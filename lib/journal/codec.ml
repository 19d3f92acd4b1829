module Iset = Secpol_core.Iset
module Value = Secpol_core.Value
module Dynamic = Secpol_taint.Dynamic

(* The on-media layout version. Bump whenever the byte layout of anything
   this module writes changes — the Expr/Store/Dynamic.image shape included:
   a journal written by one layout must never be replayed under another, so
   the decoder rejects foreign versions with a typed error instead of
   misinterpreting bytes. Version history: 1 = initial layout; 2 = snapshot
   headers carry an MD5 graph digest and a per-run nonce, and every journal
   record is stamped with that nonce. *)
let format_version = 2

type decode_error =
  | Truncated of { wanted : int; have : int }
  | Bad_magic of { got : string; want : string }
  | Bad_version of { got : int; want : int }
  | Bad_checksum of { at : int }
  | Malformed of string

exception Error of decode_error

let error_message = function
  | Truncated { wanted; have } ->
      Printf.sprintf "truncated: wanted %d more bytes, have %d" wanted have
  | Bad_magic { got; want } ->
      Printf.sprintf "bad magic %S (want %S)" got want
  | Bad_version { got; want } ->
      Printf.sprintf "layout version %d, this build reads %d" got want
  | Bad_checksum { at } -> Printf.sprintf "checksum mismatch at byte %d" at
  | Malformed m -> "malformed: " ^ m

(* Decoding must be total on arbitrary bytes: besides the typed {!Error},
   any exception a reader could be goaded into (the journal is untrusted
   input) is degraded to [Malformed] rather than allowed to escape — the
   caller maps every decode failure to Λ/recovery, never a crash. *)
let guard f =
  match f () with
  | v -> Ok v
  | exception Error e -> Error e
  | exception exn ->
      Error (Malformed ("unexpected exception: " ^ Printexc.to_string exn))

(* --- CRC-32 (IEEE, reflected), the record checksum ---------------------- *)

(* Built at module initialisation, not lazily: pool domains check records
   concurrently, and forcing one [lazy] from two domains at once raises
   [CamlinternalLazy.Undefined] under OCaml 5. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 s =
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      c := crc_table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* --- primitive writers and readers --------------------------------------

   Integers travel as 8-byte little-endian two's complement (OCaml's 63-bit
   ints embed exactly); strings and arrays are length-prefixed. Readers
   raise {!Error} with a typed reason; [guard] turns that into a result at
   the decode boundary. Length fields are validated against the remaining
   bytes before any allocation, so a corrupted length cannot demand
   gigabytes or crash the reader. *)

module W = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let contents = Buffer.contents

  let int b n =
    let by = Bytes.create 8 in
    Bytes.set_int64_le by 0 (Int64.of_int n);
    Buffer.add_bytes b by

  let bool b v = int b (if v then 1 else 0)

  let string b s =
    int b (String.length s);
    Buffer.add_string b s

  let int_array b a =
    int b (Array.length a);
    Array.iter (int b) a
end

module R = struct
  type t = { src : string; mutable pos : int }

  let of_string s = { src = s; pos = 0 }
  let remaining r = String.length r.src - r.pos
  let eof r = remaining r = 0

  let need r n =
    if n > remaining r then
      raise (Error (Truncated { wanted = n; have = remaining r }))

  let int r =
    need r 8;
    let v = Int64.to_int (String.get_int64_le r.src r.pos) in
    r.pos <- r.pos + 8;
    v

  let bool r = int r <> 0

  let length r what =
    let n = int r in
    if n < 0 then raise (Error (Malformed (what ^ ": negative length")));
    n

  let string r =
    let n = length r "string" in
    need r n;
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s

  let int_array r =
    let n = length r "array" in
    (* Compare by division: [8 * n] can wrap for absurd [n], letting a
       crafted length slip past the bound and crash in [Array.init]. *)
    if n > remaining r / 8 then
      raise
        (Error
           (Truncated
              {
                wanted = (if n > max_int / 8 then max_int else 8 * n);
                have = remaining r;
              }));
    Array.init n (fun _ -> int r)
end

(* --- version tags -------------------------------------------------------- *)

let write_version ?(version = format_version) b = W.int b version

let read_version r =
  let got = R.int r in
  if got <> format_version then
    raise (Error (Bad_version { got; want = format_version }))

(* --- values -------------------------------------------------------------- *)

let rec write_value b = function
  | Value.Int n ->
      W.int b 0;
      W.int b n
  | Value.Bool v ->
      W.int b 1;
      W.bool b v
  | Value.Str s ->
      W.int b 2;
      W.string b s
  | Value.Tuple l ->
      W.int b 3;
      W.int b (List.length l);
      List.iter (write_value b) l

let rec read_value r =
  match R.int r with
  | 0 -> Value.Int (R.int r)
  | 1 -> Value.Bool (R.bool r)
  | 2 -> Value.Str (R.string r)
  | 3 ->
      let n = R.int r in
      if n < 0 || n > R.remaining r then
        raise (Error (Malformed "tuple: bad length"));
      Value.Tuple (List.init n (fun _ -> read_value r))
  | t -> raise (Error (Malformed (Printf.sprintf "value: unknown tag %d" t)))

(* --- interpreter-state images -------------------------------------------- *)

let write_image b (im : Dynamic.image) =
  W.int b im.Dynamic.im_node;
  W.int b im.Dynamic.im_steps;
  W.int_array b im.Dynamic.im_inputs;
  W.int_array b im.Dynamic.im_regs;
  W.int b im.Dynamic.im_out;
  W.int_array b im.Dynamic.im_taint_inputs;
  W.int_array b im.Dynamic.im_taint_regs;
  W.int b im.Dynamic.im_taint_out;
  W.int_array b im.Dynamic.im_shadow_inputs;
  W.int_array b im.Dynamic.im_shadow_regs;
  W.int b im.Dynamic.im_shadow_out;
  W.int b im.Dynamic.im_pc;
  W.int b (List.length im.Dynamic.im_frames);
  List.iter
    (fun (pc, at) ->
      W.int b pc;
      W.int b at)
    im.Dynamic.im_frames

let read_image r =
  let im_node = R.int r in
  let im_steps = R.int r in
  let im_inputs = R.int_array r in
  let im_regs = R.int_array r in
  let im_out = R.int r in
  let im_taint_inputs = R.int_array r in
  let im_taint_regs = R.int_array r in
  let im_taint_out = R.int r in
  let im_shadow_inputs = R.int_array r in
  let im_shadow_regs = R.int_array r in
  let im_shadow_out = R.int r in
  let im_pc = R.int r in
  let nframes = R.length r "frames" in
  (* Division, not multiplication: [16 * nframes] can wrap (see
     [R.int_array]). *)
  if nframes > R.remaining r / 16 then
    raise
      (Error
         (Truncated
            {
              wanted = (if nframes > max_int / 16 then max_int else 16 * nframes);
              have = R.remaining r;
            }));
  let im_frames =
    List.init nframes (fun _ ->
        let pc = R.int r in
        let at = R.int r in
        (pc, at))
  in
  {
    Dynamic.im_node;
    im_steps;
    im_inputs;
    im_regs;
    im_out;
    im_taint_inputs;
    im_taint_regs;
    im_taint_out;
    im_shadow_inputs;
    im_shadow_regs;
    im_shadow_out;
    im_pc;
    im_frames;
  }

let encode_image ?version im =
  let b = W.create () in
  write_version ?version b;
  write_image b im;
  W.contents b

let decode_image s =
  guard (fun () ->
      let r = R.of_string s in
      read_version r;
      let im = read_image r in
      if not (R.eof r) then
        raise (Error (Malformed "image: trailing bytes"));
      im)
