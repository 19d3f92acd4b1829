(* The generator's end of its one enforce connection, and the /metrics
   scrape on the daemon's second listener. *)

module Wire = Secpol_server.Wire
module Metrics = Secpol_trace.Metrics
module Expo = Secpol_trace.Expo

exception Lost of string

let lost fmt = Printf.ksprintf (fun m -> raise (Lost m)) fmt

type t = { fd : Unix.file_descr; stream : Wire.Stream.t; buf : Bytes.t }

(* A connected socket whose blocking writes and reads give up after 5 s:
   a daemon that stops reading or answering ends the run, it never hangs
   it. *)
let socket path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.;
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  with e ->
    Unix.close fd;
    raise e

let connect path = { fd = socket path; stream = Wire.Stream.create (); buf = Bytes.create 65536 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let write t s =
  let rec go off =
    if off < String.length s then
      match Unix.write_substring t.fd s off (String.length s - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  try go 0 with
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      lost "connection closed by the daemon"
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      lost "the daemon stopped reading for 5 s"

let decode payload =
  match Wire.decode_response payload with
  | Ok r -> r
  | Error e -> lost "bad response frame: %s" (Wire.Codec.error_message e)

(* Take the bytes that have arrived, without waiting; return the payloads
   of the responses they complete, in order, still encoded. *)
let read t =
  let rec frames acc =
    match Wire.Stream.next t.stream with
    | `Frame p -> frames (p :: acc)
    | `Await -> List.rev acc
    | `Corrupt e -> lost "corrupt response stream: %s" (Wire.Codec.error_message e)
  in
  match Unix.select [ t.fd ] [] [] 0. with
  | [], _, _ -> []
  | _ -> (
      match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
      | 0 -> lost "connection closed by the daemon"
      | n ->
          Wire.Stream.feed t.stream ~now:0. (Bytes.sub_string t.buf 0 n);
          frames []
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          lost "connection reset by the daemon")
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* One request, one response (set-up and the window-1 ladder rung),
   waiting by spinning like the rest of the generator. *)
let call t frame =
  write t frame;
  let deadline = Proc.now () +. 5. in
  let rec wait () =
    if Proc.now () > deadline then lost "no response for 5 s";
    match read t with
    | [] -> wait ()
    | [ p ] -> (
        match decode p with
        | Wire.Refused { code; detail } -> lost "refused %s: %s" code detail
        | r -> r)
    | _ -> lost "unexpected extra response"
  in
  wait ()

(* GET /metrics over the metrics socket: the body, parsed back into a
   registry snapshot. *)
let scrape path =
  let fd = socket path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let req = "GET /metrics HTTP/1.0\r\n\r\n" in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let b = Buffer.create 8192 and chunk = Bytes.create 8192 in
      let rec read () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes b chunk 0 n;
            read ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            lost "/metrics: no answer for 5 s"
      in
      read ();
      let resp = Buffer.contents b in
      let rec body_at i =
        if i + 4 > String.length resp then lost "malformed /metrics response"
        else if String.sub resp i 4 = "\r\n\r\n" then i + 4
        else body_at (i + 1)
      in
      let i = body_at 0 in
      let body = String.sub resp i (String.length resp - i) in
      match Expo.parse body with
      | Ok snap -> (snap, String.length body)
      | Error m -> lost "unparseable /metrics body: %s" m)

let counter snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Counter n) -> n
  | _ -> 0

let histogram snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Histogram s) -> (s.Metrics.n, s.Metrics.sum)
  | _ -> (0, 0)
