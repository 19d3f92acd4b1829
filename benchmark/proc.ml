(* The processes and files a run owns, and their cleanup on every exit
   path: normal end, failed check, SIGINT/SIGTERM. *)

exception Interrupted

(* Seconds on the monotonic clock, at nanosecond resolution: the layer
   spans are often shorter than gettimeofday's microsecond. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let scratch_dirs : string list ref = ref []

(* A fresh per-run directory for sockets and stores; removed by
   [cleanup]. Paths stay relative to the checkout so Unix socket names
   fit the 108-byte limit wherever the checkout lives. *)
let scratch_dir ~out =
  let dir = Filename.concat out (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  scratch_dirs := dir :: !scratch_dirs;
  dir

type daemon = {
  pid : int;
  stdout : Unix.file_descr;  (* kept open until reaped: the daemon prints to it *)
  socket : string;
  metrics_socket : string;
  mutable reaped : bool;
}

let live : daemon list ref = ref []

let wait_exit pid ~timeout =
  let deadline = now () +. timeout in
  let rec loop () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if now () >= deadline then false
        else begin
          Unix.sleepf 0.002;
          loop ()
        end
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  in
  loop ()

(* SIGTERM puts the daemon into drain; it exits once its queue is empty.
   One that has not exited 5 s later is killed. Either way it is reaped
   and its sockets are gone when this returns. *)
let stop d =
  if not d.reaped then begin
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    if not (wait_exit d.pid ~timeout:5.) then begin
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (wait_exit d.pid ~timeout:5.)
    end;
    d.reaped <- true;
    (try Unix.close d.stdout with Unix.Unix_error _ -> ());
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ d.socket; d.metrics_socket ];
    live := List.filter (fun x -> x != d) !live
  end

(* Wait for both ready lines of [secpol serve] (enforcement socket, then
   metrics socket). Boot includes store recovery, hence the long limit. *)
let await_ready d ~timeout =
  let buf = Buffer.create 128 in
  let chunk = Bytes.create 256 in
  let deadline = now () +. timeout in
  let ready () =
    let s = Buffer.contents buf and key = "metrics on" in
    let n = String.length s and m = String.length key in
    let rec at i = i + m <= n && (String.sub s i m = key || at (i + 1)) in
    at 0
  in
  while not (ready ()) do
    let left = deadline -. now () in
    if left <= 0. then failwith "daemon did not become ready";
    match Unix.select [ d.stdout ] [] [] left with
    | [], _, _ -> ()
    | _ -> (
        match Unix.read d.stdout chunk 0 (Bytes.length chunk) with
        | 0 -> failwith ("daemon exited during boot: " ^ Buffer.contents buf)
        | n -> Buffer.add_subbytes buf chunk 0 n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

external pin : int -> int -> bool = "secpol_bench_pin"

(* With two or more CPUs the daemon runs on CPU 0 and the generator on
   CPU 1 (pid 0 is the calling process). *)
let cpus = Domain.recommended_domain_count ()
let pin_generator () = if cpus >= 2 then ignore (pin 0 1)

let spawn ~exe ~dir ~name ?store () =
  let socket = Filename.concat dir (name ^ ".sock") in
  let metrics_socket = Filename.concat dir (name ^ "-m.sock") in
  let args =
    [ exe; "serve"; "--socket"; socket; "--metrics-socket"; metrics_socket ]
    @ match store with Some s -> [ "--store"; s ] | None -> []
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close w;
        Unix.close devnull)
      (fun () -> Unix.create_process exe (Array.of_list args) devnull w Unix.stderr)
  in
  let d = { pid; stdout = r; socket; metrics_socket; reaped = false } in
  live := d :: !live;
  if cpus >= 2 then ignore (pin pid 0);
  await_ready d ~timeout:30.;
  d

let cleanup () =
  List.iter stop !live;
  List.iter rm_rf !scratch_dirs;
  scratch_dirs := []

let install_signal_handlers () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let h = Sys.Signal_handle (fun _ -> raise Interrupted) in
  Sys.set_signal Sys.sigint h;
  Sys.set_signal Sys.sigterm h

(* ---------- /proc readers ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)

(* CPU time of the process's main thread in ns, from the scheduler's own
   accounting (clock ticks in /proc/PID/stat are 10 ms coarse). *)
let cpu_ns pid =
  Scanf.sscanf
    (read_file (Printf.sprintf "/proc/%s/schedstat" pid))
    "%f" Fun.id
