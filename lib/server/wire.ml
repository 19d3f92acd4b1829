module Codec = Secpol_journal.Codec
module Frame = Secpol_journal.Frame
module Mechanism = Secpol_core.Mechanism
module Iset = Secpol_core.Iset
module Dynamic = Secpol_taint.Dynamic

let version = 1

let overload_notice = Secpol_core.Notice.(to_string Overload)

let default_deadline_us = 1_000_000

type open_session = {
  session : string;
  allowed : Iset.t;
  mode : Dynamic.mode;
  fuel : int;
  guard_retries : int;
  journaled : bool;
}

type enforce = {
  session : string;
  request_id : int;
  program : string;
  inputs : Secpol_core.Value.t array;
  deadline_us : int;
}

type request =
  | Hello of { client : string }
  | Open_session of open_session
  | Enforce of enforce
  | Resume of { session : string; request_id : int }
  | Stats
  | Drain

type response =
  | Welcome of { server : string }
  | Session_opened of { session : string }
  | Reply of { session : string; request_id : int; reply : Mechanism.reply }
  | Stats_reply of { body : string }
  | Draining of { outstanding : int }
  | Refused of { code : string; detail : string }

let malformed fmt = Printf.ksprintf (fun m -> raise (Codec.Error (Codec.Malformed m))) fmt

(* ---------- scalar codecs ---------- *)

let write_mode w m =
  Codec.W.int w
    (match m with
    | Dynamic.High_water -> 0
    | Dynamic.Surveillance -> 1
    | Dynamic.Scoped -> 2
    | Dynamic.Timed -> 3)

let read_mode r =
  match Codec.R.int r with
  | 0 -> Dynamic.High_water
  | 1 -> Dynamic.Surveillance
  | 2 -> Dynamic.Scoped
  | 3 -> Dynamic.Timed
  | n -> malformed "bad mode tag %d" n

let write_iset w s = Codec.W.int_array w (Array.of_list (Iset.to_list s))

let read_iset r =
  let a = Codec.R.int_array r in
  Array.iter
    (fun i ->
      if i < 0 || i >= Iset.max_index then malformed "input index %d out of range" i)
    a;
  Iset.of_list (Array.to_list a)

let write_inputs w a =
  Codec.W.int w (Array.length a);
  Array.iter (Codec.write_value w) a

let read_inputs r =
  let n = Codec.R.int r in
  if n < 0 || n > Codec.R.remaining r then malformed "bad input count %d" n;
  Array.init n (fun _ -> Codec.read_value r)

let write_reply w (rep : Mechanism.reply) =
  (match rep.Mechanism.response with
  | Mechanism.Granted v ->
      Codec.W.int w 0;
      Codec.write_value w v
  | Mechanism.Denied n ->
      Codec.W.int w 1;
      Codec.W.string w n
  | Mechanism.Hung -> Codec.W.int w 2
  | Mechanism.Failed m ->
      Codec.W.int w 3;
      Codec.W.string w m);
  Codec.W.int w rep.Mechanism.steps

let read_reply r =
  let response =
    match Codec.R.int r with
    | 0 -> Mechanism.Granted (Codec.read_value r)
    | 1 -> Mechanism.Denied (Codec.R.string r)
    | 2 -> Mechanism.Hung
    | 3 -> Mechanism.Failed (Codec.R.string r)
    | n -> malformed "bad response tag %d" n
  in
  { Mechanism.response; steps = Codec.R.int r }

(* ---------- messages ---------- *)

let write_header w tag =
  Codec.write_version ~version w;
  Codec.W.int w tag

let encode_request req =
  let w = Codec.W.create () in
  (match req with
  | Hello { client } ->
      write_header w 0;
      Codec.W.string w client
  | Open_session { session; allowed; mode; fuel; guard_retries; journaled } ->
      write_header w 1;
      Codec.W.string w session;
      write_iset w allowed;
      write_mode w mode;
      Codec.W.int w fuel;
      Codec.W.int w guard_retries;
      Codec.W.bool w journaled
  | Enforce { session; request_id; program; inputs; deadline_us } ->
      write_header w 2;
      Codec.W.string w session;
      Codec.W.int w request_id;
      Codec.W.string w program;
      write_inputs w inputs;
      Codec.W.int w deadline_us
  | Resume { session; request_id } ->
      write_header w 3;
      Codec.W.string w session;
      Codec.W.int w request_id
  | Stats -> write_header w 4
  | Drain -> write_header w 5);
  Frame.frame (Codec.W.contents w)

let encode_response resp =
  let w = Codec.W.create () in
  (match resp with
  | Welcome { server } ->
      write_header w 0;
      Codec.W.string w server
  | Session_opened { session } ->
      write_header w 1;
      Codec.W.string w session
  | Reply { session; request_id; reply } ->
      write_header w 2;
      Codec.W.string w session;
      Codec.W.int w request_id;
      write_reply w reply
  | Stats_reply { body } ->
      write_header w 3;
      Codec.W.string w body
  | Draining { outstanding } ->
      write_header w 4;
      Codec.W.int w outstanding
  | Refused { code; detail } ->
      write_header w 5;
      Codec.W.string w code;
      Codec.W.string w detail);
  Frame.frame (Codec.W.contents w)

let read_version r =
  let got = Codec.R.int r in
  if got <> version then raise (Codec.Error (Codec.Bad_version { got; want = version }))

let finish r v =
  if not (Codec.R.eof r) then malformed "trailing bytes after message";
  v

let decode_request payload =
  Codec.guard (fun () ->
      let r = Codec.R.of_string payload in
      read_version r;
      match Codec.R.int r with
      | 0 ->
          let client = Codec.R.string r in
          finish r (Hello { client })
      | 1 ->
          let session = Codec.R.string r in
          let allowed = read_iset r in
          let mode = read_mode r in
          let fuel = Codec.R.int r in
          let guard_retries = Codec.R.int r in
          let journaled = Codec.R.bool r in
          if fuel < 1 then malformed "bad fuel %d" fuel;
          if guard_retries < 0 then malformed "bad retries %d" guard_retries;
          finish r
            (Open_session { session; allowed; mode; fuel; guard_retries; journaled })
      | 2 ->
          let session = Codec.R.string r in
          let request_id = Codec.R.int r in
          let program = Codec.R.string r in
          let inputs = read_inputs r in
          let deadline_us = Codec.R.int r in
          if request_id < 0 then malformed "bad request id %d" request_id;
          finish r (Enforce { session; request_id; program; inputs; deadline_us })
      | 3 ->
          let session = Codec.R.string r in
          let request_id = Codec.R.int r in
          finish r (Resume { session; request_id })
      | 4 -> finish r Stats
      | 5 -> finish r Drain
      | n -> malformed "bad request tag %d" n)

let decode_response payload =
  Codec.guard (fun () ->
      let r = Codec.R.of_string payload in
      read_version r;
      match Codec.R.int r with
      | 0 ->
          let server = Codec.R.string r in
          finish r (Welcome { server })
      | 1 ->
          let session = Codec.R.string r in
          finish r (Session_opened { session })
      | 2 ->
          let session = Codec.R.string r in
          let request_id = Codec.R.int r in
          let reply = read_reply r in
          finish r (Reply { session; request_id; reply })
      | 3 ->
          let body = Codec.R.string r in
          finish r (Stats_reply { body })
      | 4 ->
          let outstanding = Codec.R.int r in
          finish r (Draining { outstanding })
      | 5 ->
          let code = Codec.R.string r in
          let detail = Codec.R.string r in
          finish r (Refused { code; detail })
      | n -> malformed "bad response tag %d" n)

let request_name = function
  | Hello _ -> "hello"
  | Open_session _ -> "open-session"
  | Enforce _ -> "enforce"
  | Resume _ -> "resume"
  | Stats -> "stats"
  | Drain -> "drain"

let response_name = function
  | Welcome _ -> "welcome"
  | Session_opened _ -> "session-opened"
  | Reply _ -> "reply"
  | Stats_reply _ -> "stats-reply"
  | Draining _ -> "draining"
  | Refused _ -> "refused"

(* ---------- incremental frame assembly ---------- *)

let max_payload = 16 * 1024 * 1024

module Stream = struct
  (* Received bytes live in [buf.(off) .. buf.(len - 1)]. A frame is
     parsed in place and [off] moves past it; the unparsed tail slides to
     the front only when a feed would not fit behind it, so parsing a
     frame never copies the frames queued behind it. *)
  type t = {
    mutable buf : Bytes.t;
    mutable off : int;
    mutable len : int;
    mutable since : float option;  (* arrival time of the oldest unparsed byte *)
  }

  let create () = { buf = Bytes.create 256; off = 0; len = 0; since = None }

  let pending_bytes t = t.len - t.off

  let stalled_since t = t.since

  (* Room for [n] more bytes behind the unparsed tail. *)
  let reserve t n =
    let pending = pending_bytes t in
    if t.len + n > Bytes.length t.buf then begin
      let buf =
        if pending + n <= Bytes.length t.buf then t.buf
        else Bytes.create (max (pending + n) (2 * Bytes.length t.buf))
      in
      Bytes.blit t.buf t.off buf 0 pending;
      t.buf <- buf;
      t.off <- 0;
      t.len <- pending
    end

  let feed t ~now s =
    let n = String.length s in
    if n > 0 then begin
      if pending_bytes t = 0 then t.since <- Some now;
      reserve t n;
      Bytes.blit_string s 0 t.buf t.len n;
      t.len <- t.len + n
    end

  let u32_max = 0xFFFFFFFF

  let get_u32 b pos = Int32.to_int (Bytes.get_int32_le b pos) land u32_max

  let magic_len = String.length Frame.magic

  let magic_prefix_ok t m =
    let rec go i =
      i >= m || (Bytes.get t.buf (t.off + i) = Frame.magic.[i] && go (i + 1))
    in
    go 0

  let next t =
    let n = pending_bytes t in
    let m = min n magic_len in
    if n = 0 then `Await
    else if not (magic_prefix_ok t m) then
      `Corrupt
        (Codec.Bad_magic { got = Bytes.sub_string t.buf t.off m; want = Frame.magic })
    else if n < Frame.header_size then `Await
    else
      let len = get_u32 t.buf (t.off + magic_len) in
      if len > max_payload then
        `Corrupt
          (Codec.Malformed
             (Printf.sprintf "frame declares %d payload bytes, over the %d-byte cap"
                len max_payload))
      else if n < Frame.header_size + len then `Await
      else
        let crc = get_u32 t.buf (t.off + magic_len + 4) in
        let payload = Bytes.sub_string t.buf (t.off + Frame.header_size) len in
        if Codec.crc32 payload <> crc then `Corrupt (Codec.Bad_checksum { at = 0 })
        else begin
          t.off <- t.off + Frame.header_size + len;
          if t.off = t.len then begin
            t.off <- 0;
            t.len <- 0;
            t.since <- None
          end;
          `Frame payload
        end
end
