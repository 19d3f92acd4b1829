(* Spans recorded by the benchmark around its calls into each layer,
   kept in memory and written once at exit as Chrome trace-event JSON.
   Every span carries the request id it belongs to; a request's layer
   spans nest inside its "request" span by time. *)

type t = {
  names : string array;  (** span name table; spans store an index *)
  mutable name : int array;
  mutable req : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable n : int;
}

let create names =
  { names; name = [||]; req = [||]; t0 = [||]; t1 = [||]; n = 0 }

let grow a fill n =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let record t ~name ~req t0 t1 =
  if t.n = Array.length t.name then begin
    let n = max 4096 (2 * t.n) in
    t.name <- grow t.name 0 n;
    t.req <- grow t.req 0 n;
    t.t0 <- grow t.t0 0. n;
    t.t1 <- grow t.t1 0. n
  end;
  t.name.(t.n) <- name;
  t.req.(t.n) <- req;
  t.t0.(t.n) <- t0;
  t.t1.(t.n) <- t1;
  t.n <- t.n + 1

(* Durations of every span with this name, in seconds. *)
let durations t name =
  let b = Stats.Buf.create () in
  for i = 0 to t.n - 1 do
    if t.name.(i) = name then Stats.Buf.add b (t.t1.(i) -. t.t0.(i))
  done;
  Stats.Buf.to_array b

(* The first [max] spans; names are plain identifiers, so %S quoting is
   valid JSON. *)
let write_chrome t ~max path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "[";
      for i = 0 to min t.n max - 1 do
        Printf.fprintf oc
          "%s\n\
           {\"name\":%S,\"cat\":\"secpol\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"request\":%d}}"
          (if i = 0 then "" else ",")
          t.names.(t.name.(i))
          (t.t0.(i) *. 1e6)
          ((t.t1.(i) -. t.t0.(i)) *. 1e6)
          t.req.(i)
      done;
      output_string oc "\n]\n")
