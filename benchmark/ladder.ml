(* The traced run. Each request of a workload's stream goes through each
   layer's public entry point in turn, one rung more each time: Q alone,
   the monitor, the guard, the journal (every 16th request, within a
   time budget), the wire codec, the engine without and with the session
   cache, and a real daemon over its socket — all at window 1, so a
   layer's marginal cost is one subtraction between rungs. Spans come
   only from this file, around each call. *)

module Policy = Secpol_core.Policy
module Interp = Secpol_flowgraph.Interp
module Dynamic = Secpol_taint.Dynamic
module Guard = Secpol_fault.Guard
module Runner = Secpol_journal.Runner
module Media = Secpol_journal.Media
module Metrics = Secpol_trace.Metrics
module Expo = Secpol_trace.Expo
module Wire = Secpol_server.Wire
module Engine = Secpol_server.Engine
module Session = Secpol_server.Session
module Store = Secpol_server.Store
module Paper = Secpol_corpus.Paper_programs
module Analyze = Secpol.Analyze

let names =
  [| "request"; "interp"; "monitor"; "guard"; "journal"; "wire"; "engine_nocache"; "engine"; "socket" |]

let span_id name =
  let rec find i = if names.(i) = name then i else find (i + 1) in
  find 0

let request = span_id "request"
let journal_every = 16
let max_requests = 20_000

(* ---------- an in-process engine on one connection ---------- *)

type engine = { e : Engine.t; conn : int; stream : Wire.Stream.t }

let engine_call en frame =
  let now = Proc.now () in
  Engine.feed en.e ~conn:en.conn ~now frame;
  Engine.step en.e ~now;
  Engine.output en.e ~conn:en.conn

let decode en bytes =
  Wire.Stream.feed en.stream ~now:0. bytes;
  match Wire.Stream.next en.stream with
  | `Frame p -> (
      match Wire.decode_response p with
      | Ok r -> r
      | Error e -> Link.lost "engine: %s" (Wire.Codec.error_message e))
  | `Await | `Corrupt _ -> Link.lost "engine gave no complete response"

let engine_create ~cache ~store specs =
  let config = { Engine.default_config with Engine.session_cache = cache } in
  let e = Engine.create ~config ~store ~now:(Proc.now ()) () in
  let en = { e; conn = Engine.open_conn e ~now:(Proc.now ()); stream = Wire.Stream.create () } in
  Array.iter
    (fun spec ->
      match decode en (engine_call en (Wire.encode_request (Wire.Open_session spec))) with
      | Wire.Session_opened _ -> ()
      | r -> Link.lost "engine: expected session-opened, got %s" (Wire.response_name r))
    specs;
  en

let reply_of = function
  | Wire.Reply { reply; _ } -> reply
  | r -> Link.lost "unexpected %s" (Wire.response_name r)

(* The codec both ways: request encoded, reassembled from the byte
   stream and decoded, then the same for the reply. *)
let wire_trip (e : Wire.enforce) reply =
  let st = Wire.Stream.create () in
  let next () =
    match Wire.Stream.next st with
    | `Frame p -> p
    | `Await | `Corrupt _ -> Link.lost "wire: no frame"
  in
  Wire.Stream.feed st ~now:0. (Wire.encode_request (Wire.Enforce e));
  (match Wire.decode_request (next ()) with
  | Ok (Wire.Enforce _) -> ()
  | _ -> Link.lost "wire: request did not round-trip");
  Wire.Stream.feed st ~now:0.
    (Wire.encode_response
       (Wire.Reply { session = e.Wire.session; request_id = e.Wire.request_id; reply }));
  match Wire.decode_response (next ()) with
  | Ok r -> reply_of r
  | Error m -> Link.lost "wire: %s" (Wire.Codec.error_message m)

let dir_bytes root =
  let rec walk path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.fold_left (fun acc n -> acc + walk (Filename.concat path n)) 0 (Sys.readdir path)
    | { Unix.st_size; _ } -> st_size
  in
  walk root

type analysis = {
  soundness_s : float;
  maximal_s : float;
  refine_runs : int;
  refine_saved : int;
  pool_steals : int;
}

(* The Analyze layers on a service workload: what the engine proves at a
   session's first request (timed soundness of the session's monitor over
   the program's corpus space), and the maximal mechanism there. Each is
   the median of 9 repetitions. *)
let corpus_analysis (w : Service.t) () =
  let g = Service.graph w in
  let q = Interp.graph_program g in
  let space = w.Service.entry.Paper.space in
  let time f =
    let ts = Array.init 9 (fun _ ->
        let t0 = Proc.now () in
        let r = f () in
        (Proc.now () -. t0, r))
    in
    (Stats.median (Array.map fst ts), snd ts.(0))
  in
  Array.fold_left
    (fun acc (s : Wire.open_session) ->
      let policy = Policy.allow_set s.Wire.allowed in
      let m = Service.clean_mechanism g s in
      let ts, _ =
        time (fun () -> Analyze.soundness (Analyze.config ~view:`Timed space) policy m)
      in
      let tm, (_, (tel : Analyze.telemetry)) =
        time (fun () -> Analyze.maximal (Analyze.config space) policy q)
      in
      let runs, saved =
        match tel.Analyze.refine with
        | Some r -> (r.Secpol_core.Refine.runs, r.Secpol_core.Refine.saved)
        | None -> (0, 0)
      in
      let _, steals, _ = Secpol_engine.Pool.total tel.Analyze.pool in
      {
        soundness_s = acc.soundness_s +. ts;
        maximal_s = acc.maximal_s +. tm;
        refine_runs = acc.refine_runs + runs;
        refine_saved = acc.refine_saved + saved;
        pool_steals = acc.pool_steals + steals;
      })
    { soundness_s = 0.; maximal_s = 0.; refine_runs = 0; refine_saved = 0; pool_steals = 0 }
    w.Service.specs

let run ~exe ~dir ~seconds ~trace_path ~(analyze : unit -> analysis) (w : Service.t) =
  (* The analysis may use every core; the rungs after it share the
     service workloads' placement. *)
  let a = analyze () in
  Proc.pin_generator ();
  let g = Service.graph w in
  let program = w.Service.entry.Paper.name in
  let journaled = w.Service.specs.(0).Wire.journaled in
  let dcfgs =
    Array.map
      (fun (s : Wire.open_session) ->
        Dynamic.config ~fuel:s.Wire.fuel ~mode:s.Wire.mode (Policy.allow_set s.Wire.allowed))
      w.Service.specs
  in
  let mechs = Array.map (fun c -> Dynamic.mechanism c g) dcfgs in
  let guards =
    Array.map
      (fun (s : Wire.open_session) -> { Guard.default with Guard.retries = s.Wire.guard_retries })
      w.Service.specs
  in
  let sub name = Filename.concat dir name in
  (* The journal rung writes in the daemon's store layout, so the same
     directory then measures restart recovery. *)
  let jroot = sub "journal" in
  let jstore = Store.dir jroot in
  let jspecs = Array.map (fun s -> { s with Wire.journaled = true }) w.Service.specs in
  Array.iter (fun s -> Session.save jstore (Session.create s)) jspecs;
  let store name = if journaled then Store.dir (sub name) else Store.memory () in
  let nocache = engine_create ~cache:false ~store:(store "e0") w.Service.specs in
  let cached = engine_create ~cache:true ~store:(store "e1") w.Service.specs in
  let d =
    Proc.spawn ~exe ~dir ~name:"ladder"
      ?store:(if journaled then Some (sub "dstore") else None)
      ()
  in
  let pid = string_of_int d.Proc.pid in
  let link = Link.connect d.Proc.socket in
  Array.iter
    (fun spec ->
      match Link.call link (Wire.encode_request (Wire.Open_session spec)) with
      | Wire.Session_opened _ -> ()
      | r -> Link.lost "expected session-opened, got %s" (Wire.response_name r))
    w.Service.specs;
  let sp = Spans.create names in
  let attempted = ref 0 and failed = ref 0 in
  let check slot got =
    let expect = Service.expected w slot in
    if not (Service.reply_equal got expect) then
      if Service.service_failure got then incr failed
      else
        raise
          (Service.Mismatch
             (Printf.sprintf "%s (traced): request %d: expected %s, got %s" w.Service.name slot
                (Service.reply_to_string expect) (Service.reply_to_string got)))
  in
  (* The enforce slots of the stream, in order, cycling. *)
  let slots = Array.length w.Service.reqs in
  let cursor = ref w.Service.first in
  let rec next_enforce () =
    let slot = !cursor in
    cursor := (slot + 1) mod slots;
    match w.Service.reqs.(slot) with
    | Service.Enforce d -> (slot, d)
    | Service.Resume _ -> next_enforce ()
  in
  let socket slot =
    incr attempted;
    check slot (reply_of (Link.call link w.Service.frames.(slot)))
  in
  (* Tracing overhead: alternate blocks of socket round trips without and
     with span recording; the untraced blocks also give the daemon's CPU
     per request. *)
  let block = 256 and socket_id = span_id "socket" in
  let plain_s = ref 0. and plain_n = ref 0 and traced_s = ref 0. and traced_n = ref 0 in
  let cpu_d = ref 0. in
  let stop = Proc.now () +. (0.2 *. seconds) in
  while Proc.now () < stop do
    let d0 = Proc.cpu_ns pid and t0 = Proc.now () in
    for _ = 1 to block do
      socket (fst (next_enforce ()))
    done;
    plain_s := !plain_s +. (Proc.now () -. t0);
    cpu_d := !cpu_d +. (Proc.cpu_ns pid -. d0);
    plain_n := !plain_n + block;
    let t0 = Proc.now () in
    for _ = 1 to block do
      let slot, _ = next_enforce () in
      let a = Proc.now () in
      socket slot;
      let b = Proc.now () in
      Spans.record sp ~name:socket_id ~req:slot a b;
      Spans.record sp ~name:request ~req:slot a (Proc.now ())
    done;
    traced_s := !traced_s +. (Proc.now () -. t0);
    traced_n := !traced_n + block
  done;
  (* The ladder proper. *)
  let alloc = ref 0. and n = ref 0 and journals = ref [] and journal_s = ref 0. in
  let stop = Proc.now () +. (0.5 *. seconds) in
  (* A journaled run fsyncs every box: a 2,000-step loop costs a tenth of
     a second. The journal rung gets at most a fifth of the ladder's time. *)
  let journal_budget = 0.1 *. seconds in
  while Proc.now () < stop && !n < max_requests do
    let slot, dix = next_enforce () in
    let s, inputs = w.Service.distinct.(dix) in
    let frame = w.Service.frames.(slot) in
    let t_req = Proc.now () in
    let span name f =
      let a = Proc.now () in
      let r = f () in
      Spans.record sp ~name:(span_id name) ~req:slot a (Proc.now ());
      r
    in
    span "interp" (fun () -> ignore (Sys.opaque_identity (Interp.run_graph g inputs)));
    check slot (span "monitor" (fun () -> Dynamic.run dcfgs.(s) g inputs));
    check slot
      (span "guard" (fun () ->
           Guard.reply_of_outcome (Guard.run ~config:guards.(s) mechs.(s) inputs)));
    if !n mod journal_every = 0 && !journal_s < journal_budget then begin
      let key = Session.media_key ~session:jspecs.(s).Wire.session ~request_id:slot in
      journals := key :: !journals;
      let t0 = Proc.now () in
      check slot
        (span "journal" (fun () ->
             let media = Store.media jstore key in
             let o = Runner.run ~media ~program_ref:program dcfgs.(s) g inputs in
             Media.close media;
             match o with
             | Runner.Completed r -> r
             | Runner.Killed _ -> Link.lost "journal run killed"));
      journal_s := !journal_s +. (Proc.now () -. t0)
    end;
    let e =
      {
        Wire.session = w.Service.specs.(s).Wire.session;
        request_id = slot;
        program;
        inputs;
        deadline_us = -1;
      }
    in
    check slot (span "wire" (fun () -> wire_trip e (Service.expected w slot)));
    check slot (reply_of (decode nocache (span "engine_nocache" (fun () -> engine_call nocache frame))));
    let out =
      span "engine" (fun () ->
          let m0 = Gc.minor_words () in
          let out = engine_call cached frame in
          alloc := !alloc +. (Gc.minor_words () -. m0);
          out)
    in
    check slot (reply_of (decode cached out));
    span "socket" (fun () -> socket slot);
    Spans.record sp ~name:request ~req:slot t_req (Proc.now ());
    incr n
  done;
  let median_us name = Stats.median (Spans.durations sp (span_id name)) *. 1e6 in
  (* Read-back and restart recovery over the journal rung's runs. *)
  let resolve (h : Runner.header) =
    if h.Runner.program_ref = program then Ok g else Error "unknown program"
  in
  let resume_us =
    Stats.median
      (Array.of_list
         (List.map
            (fun key ->
              let media = Store.media jstore key in
              let t0 = Proc.now () in
              let r = Runner.resume ~resolve ~media () in
              let dt = Proc.now () -. t0 in
              Media.close media;
              (match r with
              | Ok _ -> ()
              | Error f -> Link.lost "resume: %s" (Runner.failure_message f));
              dt *. 1e6)
            !journals))
  in
  let runs = List.length !journals in
  let bytes = dir_bytes (Filename.concat jroot "sessions") in
  let t0 = Proc.now () in
  ignore (Engine.create ~store:(Store.dir jroot) ~now:t0 ());
  let recover_us = (Proc.now () -. t0) *. 1e6 /. float_of_int runs in
  let snap, _ = Link.scrape d.Proc.metrics_socket in
  let hits = Link.counter snap "server/session-cache-hits"
  and misses = Link.counter snap "server/session-cache-misses" in
  let steps_n, steps_sum = Link.histogram snap "server/exec-steps" in
  let renders =
    Array.init 21 (fun _ ->
        let t0 = Proc.now () in
        let body = Expo.render (Metrics.snapshot (Engine.metrics cached.e)) in
        (Proc.now () -. t0, String.length body))
  in
  Link.close link;
  Proc.stop d;
  Spans.write_chrome sp ~max:50_000 trace_path;
  let per_req x k = x /. float_of_int k in
  let plain_us = per_req !plain_s !plain_n *. 1e6 in
  let metrics =
    [
      ("interp.us_per_req", median_us "interp", "us");
      ("dynamic.us_per_req", median_us "monitor", "us");
      ("guard.us_per_req", median_us "guard", "us");
      ("runner.run_us_per_req", median_us "journal", "us");
      ("runner.resume_us", resume_us, "us");
      ("store.bytes_per_req", per_req (float_of_int bytes) runs, "count");
      ("store.recover_us_per_run", recover_us, "us");
      ("wire.us_per_req", median_us "wire", "us");
      ("engine.us_per_req", median_us "engine", "us");
      ("engine.alloc_words_per_req", per_req !alloc !n, "count");
      ("cache.rung_us", median_us "engine" -. median_us "engine_nocache", "us");
      ("daemon.us_per_req", median_us "socket", "us");
      ("daemon.cpu_us_per_req", per_req !cpu_d !plain_n /. 1e3, "us");
      ("trace.overhead_pct", 100. *. ((per_req !traced_s !traced_n *. 1e6) -. plain_us) /. plain_us, "%");
      ( "server.cache_hit_pct",
        (if hits + misses = 0 then 0.
         else 100. *. float_of_int hits /. float_of_int (hits + misses)),
        "%" );
      ( "server.cache_evictions_per_req",
        per_req
          (float_of_int (Link.counter snap "server/session-cache-evictions"))
          (max 1 (Link.counter snap "server/requests")),
        "count" );
      ("server.exec_steps_mean", per_req (float_of_int steps_sum) (max 1 steps_n), "count");
      ("expo.render_us", Stats.median (Array.map fst renders) *. 1e6, "us");
      ("expo.bytes", float_of_int (snd renders.(0)), "count");
      ("analyze.soundness_s", a.soundness_s, "s");
      ("analyze.maximal_s", a.maximal_s, "s");
      ("refine.runs", float_of_int a.refine_runs, "count");
      ("refine.saved", float_of_int a.refine_saved, "count");
      ("pool.steals", float_of_int a.pool_steals, "count");
    ]
  in
  (metrics, [ ("ladder.requests", float_of_int !n, "count") ], !attempted, !failed)
