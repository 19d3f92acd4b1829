module Sink = Secpol_trace.Sink
module Metrics = Secpol_trace.Metrics

type address = Unix_path of string | Tcp of string * int

let address_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* Monotonic-clamped wall clock: gettimeofday can step backwards (NTP);
   deadlines and the slowloris clock must not. *)
let clock () =
  let last = ref (Unix.gettimeofday ()) in
  fun () ->
    let t = Unix.gettimeofday () in
    if t > !last then last := t;
    !last

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> invalid_arg (Printf.sprintf "Daemon: unknown host %S" host))

let listen_socket address =
  match address with
  | Unix_path path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, address)
  | Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
      Unix.listen fd 64;
      (* port 0 asks the kernel for a free port; report the real one. *)
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> Tcp (host, p)
        | _ -> address
      in
      (fd, bound)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* Bounded best-effort send for the metrics plane: the fd is switched to
   non-blocking and given at most [budget] seconds of short write/select
   rounds. A scraper that stops reading loses its response; it can never
   stall the enforcement loop. Returns whether everything was written. *)
let write_within ~now ~budget fd s =
  (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
  let deadline = now () +. budget in
  let n = String.length s in
  let off = ref 0 in
  let give_up = ref false in
  while !off < n && not !give_up do
    match Unix.write_substring fd s !off (n - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if now () >= deadline then give_up := true
        else begin
          match Unix.select [] [ fd ] [] (min 0.05 budget) with
          | _, [], _ -> if now () >= deadline then give_up := true
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error _ -> give_up := true
  done;
  !off = n

let serve ?config ?(sink = Sink.null) ?metrics ?store ?(poll = 0.05)
    ?(signals = true) ?(ready = fun _ -> ()) ?(should_stop = fun () -> false)
    ?metrics_address ?(metrics_ready = fun _ -> ()) ?(http_deadline = 2.0)
    address =
  let store = match store with Some s -> s | None -> Store.memory () in
  let now = clock () in
  let engine = Engine.create ?config ~sink ?metrics ~store ~now:(now ()) () in
  let lfd, bound = listen_socket address in
  (* The observability plane listens on its own address, served from the
     same loop: a scrape never preempts enforcement, it just takes its
     turn in the select round. *)
  let mfd, mbound =
    match metrics_address with
    | None -> (None, None)
    | Some a ->
        let fd, b = listen_socket a in
        (Some fd, Some b)
  in
  let conns : (Unix.file_descr, int) Hashtbl.t = Hashtbl.create 16 in
  (* request buffer + accept instant: a scraper gets [http_deadline]
     seconds to deliver its request line before the fd is reclaimed. *)
  let http_conns : (Unix.file_descr, Buffer.t * float) Hashtbl.t =
    Hashtbl.create 8
  in
  let drain_requested = ref false in
  let old_handlers = ref [] in
  if signals then begin
    let install s =
      let old =
        Sys.signal s (Sys.Signal_handle (fun _ -> drain_requested := true))
      in
      old_handlers := (s, old) :: !old_handlers
    in
    install Sys.sigterm;
    install Sys.sigint;
    (try
       old_handlers :=
         (Sys.sigpipe, Sys.signal Sys.sigpipe Sys.Signal_ignore)
         :: !old_handlers
     with Invalid_argument _ | Sys_error _ -> ())
  end;
  let drop fd =
    (match Hashtbl.find_opt conns fd with
    | Some id -> Engine.close_conn engine ~conn:id
    | None -> ());
    Hashtbl.remove conns fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let buf = Bytes.create 65536 in
  let drop_http fd =
    Hashtbl.remove http_conns fd;
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  (* One shot: read until the request line is in, answer, close. The
     response write is itself bounded — a scraper that stops reading is
     cut off, never the loop. *)
  let read_http fd =
    match Hashtbl.find_opt http_conns fd with
    | None -> ()
    | Some (b, _) -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> drop_http fd
        | n -> (
            Buffer.add_subbytes b buf 0 n;
            if Buffer.length b > 8192 then drop_http fd
            else
              match Http.request_of_buffer (Buffer.contents b) with
              | None -> ()
              | Some req ->
                  let resp = Http.handle engine ~now:(now ()) req in
                  ignore (write_within ~now ~budget:http_deadline fd resp);
                  drop_http fd)
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            drop_http fd
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  in
  (* Reclaim scraper fds that never produced a full request line. *)
  let expire_http t_now =
    let stale =
      Hashtbl.fold
        (fun fd (_, since) acc ->
          if t_now -. since > http_deadline then fd :: acc else acc)
        http_conns []
    in
    List.iter drop_http stale
  in
  let read_conn fd =
    match Hashtbl.find_opt conns fd with
    | None -> ()
    | Some id -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> drop fd
        | n -> Engine.feed engine ~conn:id ~now:(now ()) (Bytes.sub_string buf 0 n)
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            drop fd
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
  in
  let flush_conn fd =
    match Hashtbl.find_opt conns fd with
    | None -> ()
    | Some id ->
        let out = Engine.output engine ~conn:id in
        (if out <> "" then
           try write_all fd out 0 (String.length out)
           with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
             drop fd);
        if Engine.conn_closing engine ~conn:id then drop fd
  in
  ready bound;
  Option.iter metrics_ready mbound;
  let close_all () =
    Hashtbl.iter (fun fd _ -> try Unix.close fd with _ -> ()) conns;
    Hashtbl.iter (fun fd _ -> try Unix.close fd with _ -> ()) http_conns;
    (try Unix.close lfd with _ -> ());
    (match mfd with Some fd -> ( try Unix.close fd with _ -> ()) | None -> ());
    (match mbound with
    | Some (Unix_path p) -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | Some (Tcp _) | None -> ());
    List.iter (fun (s, h) -> try ignore (Sys.signal s h) with _ -> ()) !old_handlers
  in
  (try
     let running = ref true in
     while !running do
       if !drain_requested && not (Engine.draining engine) then
         Engine.drain engine ~now:(now ());
       let fds = lfd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
       let fds =
         match mfd with
         | Some fd -> fd :: Hashtbl.fold (fun fd _ acc -> fd :: acc) http_conns fds
         | None -> fds
       in
       (* With admitted work still queued (past one step's exec budget),
          only poll for bytes: the queue is what needs the loop. *)
       let timeout = if Engine.queue_length engine > 0 then 0. else poll in
       let readable, _, _ =
         try Unix.select fds [] [] timeout
         with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
       in
       List.iter
         (fun fd ->
           if fd = lfd then (
             match Unix.accept lfd with
             | cfd, _ ->
                 let id = Engine.open_conn engine ~now:(now ()) in
                 Hashtbl.replace conns cfd id
             | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
           else if Some fd = mfd then (
             match Unix.accept fd with
             | cfd, _ ->
                 Hashtbl.replace http_conns cfd (Buffer.create 256, now ())
             | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
           else if Hashtbl.mem http_conns fd then read_http fd
           else read_conn fd)
         readable;
       expire_http (now ());
       Engine.step engine ~now:(now ());
       List.iter flush_conn (Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []);
       if Engine.drained engine || should_stop () then running := false
     done
   with e ->
     close_all ();
     raise e);
  (* Final flush: the drain answers are already in the buffers. *)
  List.iter flush_conn (Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []);
  close_all ();
  (match bound with
  | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | Tcp _ -> ())
