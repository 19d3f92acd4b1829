(* Record framing: magic ("sj"), u32-LE payload length, u32-LE CRC-32 of
   the payload, payload. The scan distinguishes the two ways a journal can
   be damaged:

   - a TORN TAIL — the file ends inside a frame (fewer bytes than the
     header promises, or not even a full header). That is exactly what a
     crash mid-append produces; the tail is dropped and recovery replays
     the intact prefix, which the deterministic interpreter extends to the
     same verdict.
   - CORRUPTION — a complete frame whose checksum fails, or bytes that are
     not a frame at all. Appends cannot produce that; the medium lied, so
     nothing after the damage can be trusted and the scan refuses the whole
     journal with a typed error (the caller degrades to Λ/recovery).

   A checkpoint frame is a framed snapshot retagged "sc": the two magics
   differ in two bits, so no single flipped bit turns one into the other. *)

let magic = "sj"
let checkpoint_magic = "sc"
let header_size = 2 + 4 + 4

let u32_max = 0xFFFFFFFF

let frame payload =
  let n = String.length payload in
  if n > u32_max then invalid_arg "Frame.frame: payload too large";
  let b = Buffer.create (header_size + n) in
  Buffer.add_string b magic;
  let by = Bytes.create 8 in
  Bytes.set_int32_le by 0 (Int32.of_int n);
  Bytes.set_int32_le by 4 (Int32.of_int (Codec.crc32 payload));
  Buffer.add_bytes b (Bytes.sub by 0 8);
  Buffer.add_string b payload;
  Buffer.contents b

let append buf payload = Buffer.add_string buf (frame payload)

let retag ~from ~into s =
  if String.length s < 2 || String.sub s 0 2 <> from then
    invalid_arg "Frame: not a frame of the expected kind";
  into ^ String.sub s 2 (String.length s - 2)

let to_checkpoint = retag ~from:magic ~into:checkpoint_magic
let of_checkpoint = retag ~from:checkpoint_magic ~into:magic

let get_u32 s pos = Int32.to_int (String.get_int32_le s pos) land u32_max

type scan = { records : string list; dropped_bytes : int }

let scan s =
  let n = String.length s in
  let rec go pos acc =
    if pos = n then Ok { records = List.rev acc; dropped_bytes = 0 }
    else if n - pos < header_size then
      (* Torn mid-header: a crash wrote a prefix of the next frame. *)
      Ok { records = List.rev acc; dropped_bytes = n - pos }
    else
      let m = String.sub s pos 2 in
      if m <> magic && m <> checkpoint_magic then
        Error (Codec.Bad_magic { got = m; want = magic })
      else
        let len = get_u32 s (pos + 2) in
        let crc = get_u32 s (pos + 6) in
        if pos + header_size + len > n then
          (* Torn mid-payload: header complete, payload cut short at EOF. A
             crash can tear the checkpoint that opens a run as well as a
             record. *)
          Ok { records = List.rev acc; dropped_bytes = n - pos }
        else if m = checkpoint_magic then
          Error (Codec.Bad_magic { got = m; want = magic })
        else
          let payload = String.sub s (pos + header_size) len in
          if Codec.crc32 payload <> crc then
            Error (Codec.Bad_checksum { at = pos })
          else go (pos + header_size + len) (payload :: acc)
  in
  go 0 []

let one s =
  match scan s with
  | Error _ as e -> e
  | Ok { records = [ payload ]; dropped_bytes = 0 } -> Ok payload
  | Ok { dropped_bytes; _ } when dropped_bytes > 0 ->
      Error
        (Codec.Truncated
           { wanted = dropped_bytes; have = String.length s - dropped_bytes })
  | Ok { records; _ } ->
      Error
        (Codec.Malformed
           (Printf.sprintf "expected exactly one frame, found %d"
              (List.length records)))

type layout = {
  last_checkpoint : (int * int) option;
  whole : int;
  damaged : bool;
}

let walk ~size header =
  let rec go pos last =
    let stop damaged = { last_checkpoint = last; whole = pos; damaged } in
    if size - pos < header_size then stop false
    else
      let h = header pos in
      let m = String.sub h 0 2 in
      if m <> magic && m <> checkpoint_magic then stop true
      else
        let total = header_size + get_u32 h 2 in
        if pos + total > size then stop false
        else go (pos + total) (if m = checkpoint_magic then Some (pos, total) else last)
  in
  go 0 None

let layout s = walk ~size:(String.length s) (fun pos -> String.sub s pos header_size)
