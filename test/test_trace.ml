(* The telemetry layer: event codec round-trips (QCheck), sink backends,
   the metrics registry, and the two properties the tentpole promises —
   tracing is bit-invisible (a traced run replies exactly like an
   un-traced one, and the null sink IS the un-traced code path), and
   verdict provenance explains every condemned run in the corpus with a
   chain that ends at the condemning box. *)

open Util
module Var = Secpol_flowgraph.Var
module Span = Secpol_flowgraph.Span
module Emit = Secpol_flowgraph.Emit
module Graph = Secpol_flowgraph.Graph
module Dynamic = Secpol_taint.Dynamic
module Instrument = Secpol_taint.Instrument
module Paper = Secpol_corpus.Paper_programs
module Guard = Secpol_fault.Guard
module Media = Secpol_journal.Media
module Runner = Secpol_journal.Runner
module Event = Secpol_trace.Event
module Sink = Secpol_trace.Sink
module Metrics = Secpol_trace.Metrics
module Provenance = Secpol_trace.Provenance
module Json = Secpol_staticflow.Lint.Json

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let show_inputs a =
  "(" ^ String.concat "," (Array.to_list (Array.map Value.to_string a)) ^ ")"

let expect_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what

(* --- event generator ----------------------------------------------------- *)

let gen_iset =
  QCheck.Gen.(
    map Iset.of_list
      (list_size (int_bound 6) (int_bound (min 20 (Iset.max_index - 1)))))

let gen_var =
  QCheck.Gen.(
    oneof
      [
        return Var.Out;
        map (fun i -> Var.Reg i) (int_bound 9);
        map (fun i -> Var.Input i) (int_bound 9);
      ])

let gen_str =
  (* Printable ASCII, salted with the characters the JSON escaper has to
     work for. *)
  QCheck.Gen.(
    string_size ~gen:
      (frequency
         [
           (20, map Char.chr (int_range 32 126)); (1, oneofl [ '\n'; '\t'; '"'; '\\' ]);
         ])
      (int_bound 12))

let gen_span =
  QCheck.Gen.(
    opt
      (map
         (fun (a, b, c, d) ->
           Span.make ~start_line:a ~start_col:b ~end_line:c ~end_col:d)
         (quad small_nat small_nat small_nat small_nat)))

let gen_event =
  let open QCheck.Gen in
  let nat = small_nat in
  oneof
    [
      map
        (fun ((program, arity, mode), (allowed, inputs)) ->
          Event.Run { program; arity; mode; allowed; inputs })
        (pair (triple gen_str (int_bound 8) gen_str)
           (pair gen_iset (list_size (int_bound 4) gen_str)));
      map
        (fun (step, node, span) -> Event.Box { step; node; span })
        (triple nat nat gen_span);
      map
        (fun (step, node, var, value) -> Event.Assign { step; node; var; value })
        (quad nat nat gen_var small_signed_int);
      map
        (fun ((step, node, span), (var, taint, srcs)) ->
          Event.Taint { step; node; span; var; taint; srcs })
        (pair (triple nat nat gen_span)
           (triple gen_var gen_iset (list_size (int_bound 4) gen_var)));
      map
        (fun ((step, node, span), (pc, srcs)) ->
          Event.Pc { step; node; span; pc; srcs })
        (pair (triple nat nat gen_span)
           (pair gen_iset (list_size (int_bound 4) gen_var)));
      map
        (fun ((step, node, span), (at_decision, taint, srcs), notice) ->
          Event.Condemn { step; node; span; at_decision; taint; srcs; notice })
        (triple (triple nat nat gen_span)
           (triple bool gen_iset (list_size (int_bound 4) gen_var))
           gen_str);
      map
        (fun (kind, mechanism, attempt, detail) ->
          Event.Guard { kind; mechanism; attempt; detail })
        (quad (oneofl [ Event.Retry; Event.Degraded ]) gen_str nat gen_str);
      map
        (fun (kind, step, detail) -> Event.Journal { kind; step; detail })
        (triple
           (oneofl [ Event.Checkpoint; Event.Resume; Event.Replay_skip ])
           nat gen_str);
      map
        (fun (kind, shard, round, detail) ->
          Event.Dist { kind; shard; round; detail })
        (quad
           (oneofl
              [
                Event.Shard_start;
                Event.Shard_reply;
                Event.Shard_retry;
                Event.Shard_lost;
                Event.Merge;
              ])
           (map (fun n -> n - 1) nat)
           nat gen_str);
      map
        (fun (kind, conn, session, detail) ->
          Event.Server { kind; conn; session; detail })
        (quad
           (oneofl
              [
                Event.Conn_open;
                Event.Conn_close;
                Event.Session_open;
                Event.Admit;
                Event.Shed;
                Event.Expire;
                Event.Serve;
                Event.Resume_serve;
                Event.Proto_error;
                Event.Drain;
                Event.Restart;
              ])
           (map (fun n -> n - 1) nat)
           gen_str gen_str);
      map
        (fun (response, text, steps) -> Event.Verdict { response; text; steps })
        (triple
           (oneofl [ Event.Granted; Event.Denied; Event.Hung; Event.Failed ])
           gen_str nat);
    ]

let event_arb = QCheck.make ~print:Event.to_jsonl gen_event

(* --- codec --------------------------------------------------------------- *)

let jsonl_roundtrip e =
  match Event.of_jsonl (Event.to_jsonl e) with
  | Ok e' -> Event.equal e e'
  | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m

let json_roundtrip e =
  match Event.of_json (Event.to_json e) with
  | Ok e' -> Event.equal e e'
  | Error m -> QCheck.Test.fail_reportf "decode failed: %s" m

let chrome_renders e =
  (* Render-only, but the rendering must be self-contained valid JSON. *)
  match Json.parse (Json.render (Event.to_chrome e)) with
  | Ok (Json.Obj fields) -> List.mem_assoc "ph" fields
  | Ok _ -> false
  | Error m -> QCheck.Test.fail_reportf "chrome object unparseable: %s" m

let sample_events =
  [
    Event.Run
      {
        program = "p";
        arity = 2;
        mode = "surveillance";
        allowed = Iset.of_list [ 0 ];
        inputs = [ "1"; "2" ];
      };
    Event.Box
      {
        step = 0;
        node = 1;
        span = Some (Span.make ~start_line:1 ~start_col:0 ~end_line:1 ~end_col:4);
      };
    Event.Taint
      {
        step = 0;
        node = 1;
        span = None;
        var = Var.Reg 0;
        taint = Iset.of_list [ 1 ];
        srcs = [ Var.Input 1 ];
      };
    Event.Pc { step = 1; node = 2; span = None; pc = Iset.empty; srcs = [] };
    Event.Condemn
      {
        step = 2;
        node = 3;
        span = None;
        at_decision = false;
        taint = Iset.of_list [ 1 ];
        srcs = [ Var.Out ];
        notice = "Λ";
      };
    Event.Guard
      { kind = Event.Retry; mechanism = "m"; attempt = 1; detail = "boom" };
    Event.Journal { kind = Event.Checkpoint; step = 4; detail = "snapshot" };
    Event.Dist
      { kind = Event.Shard_reply; shard = 1; round = 2; detail = "Λ in 4" };
    Event.Verdict { response = Event.Denied; text = "Λ"; steps = 9 };
  ]

let check_events msg expected actual =
  Alcotest.(check int) (msg ^ ": count") (List.length expected) (List.length actual);
  List.iteri
    (fun i (e, e') ->
      if not (Event.equal e e') then
        Alcotest.failf "%s: event %d: %s <> %s" msg i (Event.to_jsonl e)
          (Event.to_jsonl e'))
    (List.combine expected actual)

let test_decode_lines () =
  let doc =
    "\n"
    ^ String.concat "\n\n" (List.map Event.to_jsonl sample_events)
    ^ "\n\n"
  in
  (match Event.decode_lines doc with
  | Ok evs -> check_events "blank lines skipped" sample_events evs
  | Error m -> Alcotest.failf "decode_lines: %s" m);
  match
    Event.decode_lines (Event.to_jsonl (List.hd sample_events) ^ "\nnot json\n")
  with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S names line 2" m)
        true (contains m "line 2")

(* --- sinks --------------------------------------------------------------- *)

let test_null_sink_is_none () =
  Alcotest.(check bool) "emitter null == Emit.none" true
    (Sink.emitter Sink.null == Emit.none);
  let g = Paper.graph Paper.direct_flow in
  Alcotest.(check bool) "with a graph too" true
    (Sink.emitter ~graph:g Sink.null == Emit.none);
  Alcotest.(check bool) "is_null" true (Sink.is_null Sink.null)

let test_memory_sink () =
  let sink = Sink.memory () in
  List.iter (Sink.emit sink) sample_events;
  check_events "arrival order" sample_events (Sink.events sink);
  Alcotest.(check int) "count" (List.length sample_events) (Sink.count sink)

let with_temp_file f =
  let path = Filename.temp_file ~temp_dir:(Sys.getcwd ()) "trace" ".tmp" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_jsonl_file_sink () =
  with_temp_file (fun path ->
      let sink = Sink.to_file Sink.Jsonl path in
      List.iter (Sink.emit sink) sample_events;
      Sink.close sink;
      Sink.close sink (* idempotent *);
      Sink.emit sink (Event.Box { step = 99; node = 99; span = None });
      (* no-op after close *)
      match Event.decode_lines (read_file path) with
      | Ok evs -> check_events "file round-trip" sample_events evs
      | Error m -> Alcotest.failf "decode_lines: %s" m)

let test_chrome_file_sink () =
  with_temp_file (fun path ->
      let sink = Sink.to_file Sink.Chrome path in
      List.iter (Sink.emit sink) sample_events;
      Sink.close sink;
      match Json.parse (read_file path) with
      | Ok (Json.List objs) ->
          Alcotest.(check bool)
            "one trace-event object per event" true
            (List.length objs >= List.length sample_events);
          List.iter
            (function
              | Json.Obj fields ->
                  Alcotest.(check bool) "has ph" true (List.mem_assoc "ph" fields)
              | _ -> Alcotest.fail "non-object trace event")
            objs
      | Ok _ -> Alcotest.fail "chrome file is not a JSON array"
      | Error m -> Alcotest.failf "chrome file unparseable: %s" m)

(* --- metrics ------------------------------------------------------------- *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let a = Metrics.counter m "alpha" in
  let h = Metrics.histogram m "lat" in
  let b = Metrics.counter m "beta" in
  Metrics.incr a;
  Metrics.incr ~by:4 b;
  List.iter (Metrics.observe h) [ 1; 2; 3; 8 ];
  (match Metrics.stats m with
  | [
   ("alpha", Metrics.Counter 1);
   ("lat", Metrics.Histogram s);
   ("beta", Metrics.Counter 4);
  ] ->
      Alcotest.(check int) "n" 4 s.Metrics.n;
      Alcotest.(check int) "sum" 14 s.Metrics.sum;
      Alcotest.(check int) "min" 1 s.Metrics.min;
      Alcotest.(check int) "max" 8 s.Metrics.max;
      let uppers = List.map fst s.Metrics.buckets in
      Alcotest.(check bool) "buckets ascending" true
        (List.sort compare uppers = uppers);
      Alcotest.(check int) "bucket counts total n" 4
        (List.fold_left (fun acc (_, c) -> acc + c) 0 s.Metrics.buckets)
  | stats ->
      Alcotest.failf "unexpected registry contents (%d entries)"
        (List.length stats));
  Alcotest.(check int) "get-or-create returns the same counter" 1
    (Metrics.count (Metrics.counter m "alpha"));
  Alcotest.(check int) "counter_value by name" 4 (Metrics.counter_value m "beta");
  Alcotest.(check int) "absent name reads 0" 0 (Metrics.counter_value m "nope");
  expect_invalid "counter/histogram kind clash" (fun () ->
      Metrics.counter m "lat");
  expect_invalid "histogram/counter kind clash" (fun () ->
      Metrics.histogram m "alpha");
  expect_invalid "negative increment" (fun () -> Metrics.incr ~by:(-1) a);
  expect_invalid "negative sample" (fun () -> Metrics.observe h (-1));
  match Json.parse (Metrics.to_json_string m) with
  | Ok (Json.Obj fields) ->
      Alcotest.(check bool) "json has every name" true
        (List.for_all (fun k -> List.mem_assoc k fields) [ "alpha"; "lat"; "beta" ])
  | Ok _ | Error _ -> Alcotest.fail "metrics JSON unparseable"

let test_metrics_gauges () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "depth" in
  Alcotest.(check int) "initial" 0 (Metrics.gauge_read g);
  Metrics.set g 7;
  Alcotest.(check int) "set" 7 (Metrics.gauge_read g);
  Metrics.add g 5;
  Metrics.add g (-10);
  Alcotest.(check int) "add goes down" 2 (Metrics.gauge_read g);
  Metrics.add g (-5);
  Alcotest.(check int) "may go negative" (-3) (Metrics.gauge_read g);
  Alcotest.(check int) "gauge_value by name" (-3) (Metrics.gauge_value m "depth");
  Alcotest.(check int) "absent gauge reads 0" 0 (Metrics.gauge_value m "nope");
  expect_invalid "gauge/counter kind clash" (fun () -> Metrics.counter m "depth");
  expect_invalid "gauge/histogram kind clash" (fun () ->
      Metrics.histogram m "depth");
  expect_invalid "counter/gauge kind clash" (fun () ->
      let _ = Metrics.counter m "c" in
      Metrics.gauge m "c");
  (* Snapshot JSON keeps the gauge shape and round-trips exactly. *)
  let snap = Metrics.snapshot m in
  (match Metrics.snapshot_of_json (Metrics.snapshot_to_json snap) with
  | Ok back ->
      Alcotest.(check bool) "snapshot json round-trip" true (back = snap)
  | Error e -> Alcotest.fail ("snapshot json: " ^ e));
  match Metrics.find m "depth" with
  | Some (Metrics.Gauge (-3)) -> ()
  | _ -> Alcotest.fail "find did not report the gauge"

let test_metrics_merge () =
  let mk fill =
    let m = Metrics.create () in
    fill m;
    m
  in
  let into =
    mk (fun m ->
        Metrics.incr ~by:3 (Metrics.counter m "c");
        Metrics.set (Metrics.gauge m "g") 5;
        List.iter (Metrics.observe (Metrics.histogram m "h")) [ 1; 4 ])
  in
  let src =
    mk (fun m ->
        Metrics.incr ~by:2 (Metrics.counter m "c");
        Metrics.set (Metrics.gauge m "g") (-1);
        List.iter (Metrics.observe (Metrics.histogram m "h")) [ 4; 100 ];
        Metrics.incr (Metrics.counter m "only-src"))
  in
  Metrics.merge ~into src;
  Alcotest.(check int) "counters sum" 5 (Metrics.counter_value into "c");
  Alcotest.(check int) "gauges sum" 4 (Metrics.gauge_value into "g");
  Alcotest.(check int) "new names registered" 1
    (Metrics.counter_value into "only-src");
  (match Metrics.find into "h" with
  | Some (Metrics.Histogram s) ->
      Alcotest.(check int) "hist n" 4 s.Metrics.n;
      Alcotest.(check int) "hist sum" 109 s.Metrics.sum;
      Alcotest.(check int) "hist min" 1 s.Metrics.min;
      Alcotest.(check int) "hist max" 100 s.Metrics.max
  | _ -> Alcotest.fail "merged histogram missing");
  (* Kind conflicts refuse to merge, whichever pair collides. *)
  let clash fill_into fill_src =
    let into = mk fill_into and src = mk fill_src in
    expect_invalid "merge kind clash" (fun () -> Metrics.merge ~into src)
  in
  clash
    (fun m -> ignore (Metrics.counter m "x"))
    (fun m -> ignore (Metrics.gauge m "x"));
  clash
    (fun m -> ignore (Metrics.gauge m "x"))
    (fun m -> ignore (Metrics.histogram m "x"));
  clash
    (fun m -> ignore (Metrics.histogram m "x"))
    (fun m -> ignore (Metrics.counter m "x"))

let test_metrics_boundaries () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "edge" in
  Metrics.observe h 0;
  Metrics.observe h 1;
  Metrics.observe h max_int;
  match Metrics.summary h with
  | s ->
      Alcotest.(check int) "n" 3 s.Metrics.n;
      Alcotest.(check int) "min" 0 s.Metrics.min;
      Alcotest.(check int) "max" max_int s.Metrics.max;
      (* 0 and 1 share the first bucket (upper bound 1); max_int lands in
         the last bucket, whose upper bound is max_int itself — no
         overflow into a negative bound. *)
      (match s.Metrics.buckets with
      | [ (1, 2); (upper, 1) ] ->
          Alcotest.(check int) "last bucket bound" max_int upper
      | _ -> Alcotest.fail "unexpected bucket shape");
      Alcotest.(check bool) "bounds ascend" true
        (let uppers = List.map fst s.Metrics.buckets in
         List.sort compare uppers = uppers)

let test_metrics_diff () =
  let older =
    [
      ("c", Metrics.Counter 10);
      ("g", Metrics.Gauge 9);
      ("h", Metrics.Histogram
          { Metrics.n = 2; sum = 5; min = 1; max = 4; buckets = [ (1, 1); (7, 1) ] });
      ("gone-backwards", Metrics.Counter 100);
    ]
  in
  let newer =
    [
      ("c", Metrics.Counter 15);
      ("g", Metrics.Gauge 2);
      ("h", Metrics.Histogram
          { Metrics.n = 5; sum = 25; min = 1; max = 16; buckets = [ (1, 1); (7, 2); (31, 2) ] });
      ("gone-backwards", Metrics.Counter 40);
      ("fresh", Metrics.Counter 3);
    ]
  in
  match Metrics.diff ~older newer with
  | [
      ("c", Metrics.Counter 5);
      ("g", Metrics.Gauge 2);
      ("h", Metrics.Histogram hs);
      ("gone-backwards", Metrics.Counter 0);
      ("fresh", Metrics.Counter 3);
    ] ->
      Alcotest.(check int) "interval n" 3 hs.Metrics.n;
      Alcotest.(check int) "interval sum" 20 hs.Metrics.sum;
      Alcotest.(check int) "cumulative max kept" 16 hs.Metrics.max;
      Alcotest.(check bool) "zero buckets dropped" true
        (hs.Metrics.buckets = [ (7, 1); (31, 2) ])
  | d ->
      Alcotest.failf "diff shape unexpected (%d entries)" (List.length d)

(* --- Prometheus exposition round-trip ------------------------------------ *)

(* Registry names are arbitrary strings — slashes, quotes, backslashes,
   newlines, unicode — while Prometheus family names are [A-Za-z0-9_:].
   The renderer must carry the exact name through the name="..." label
   whatever we throw at it. *)
let gen_metric_name =
  QCheck.Gen.(
    string_size ~gen:
      (frequency
         [
           (6, char_range 'a' 'z');
           (2, oneofl [ '/'; '-'; '_'; ':' ]);
           (2, oneofl [ '"'; '\\'; '\n'; ' '; '{'; '}'; ','; '='; '\xce'; '\x9b' ]);
         ])
      (int_range 1 18))

let gen_snapshot_ops =
  QCheck.Gen.(
    list_size (int_bound 10)
      (triple gen_metric_name (int_bound 2)
         (list_size (int_bound 6) (frequency [ (5, int_bound 1000); (1, return 0); (1, return max_int) ]))))

(* Build a real registry from the generated ops (first kind wins for a
   repeated name, matching registry semantics) and snapshot it. *)
let snapshot_of_ops ops =
  let m = Metrics.create () in
  List.iter
    (fun (name, kind, samples) ->
      match Metrics.find m name with
      | Some _ -> ()
      | None -> (
          match kind with
          | 0 ->
              Metrics.incr ~by:(List.fold_left ( + ) 0 (List.map (fun s -> s land 0xff) samples))
                (Metrics.counter m name)
          | 1 ->
              Metrics.set (Metrics.gauge m name)
                (List.fold_left ( - ) 17 (List.map (fun s -> s land 0xffff) samples))
          | _ -> List.iter (Metrics.observe (Metrics.histogram m name)) samples))
    ops;
  Metrics.snapshot m

let snapshot_arb =
  QCheck.make
    ~print:(fun ops ->
      Secpol_trace.Expo.render (snapshot_of_ops ops))
    gen_snapshot_ops

let expo_roundtrip ops =
  let snap = snapshot_of_ops ops in
  let text = Secpol_trace.Expo.render snap in
  (* Deterministic: same snapshot, same bytes. *)
  if text <> Secpol_trace.Expo.render snap then false
  else
    match Secpol_trace.Expo.parse text with
    | Ok back -> back = snap
    | Error _ -> false

(* Registry names that sanitize onto a histogram's sibling families
   (_min/_max/_bucket/_sum/_count) force collision renames in the
   exposition — registered before the histogram they displace its bound
   and sample families, registered after they are displaced themselves.
   Parse routes by the emitting family's # TYPE plus the name label, so
   the inverse must survive both orders. *)
let test_expo_sibling_collisions () =
  let round_trip what m =
    let snap = Metrics.snapshot m in
    match Secpol_trace.Expo.parse (Secpol_trace.Expo.render snap) with
    | Ok back -> Alcotest.(check bool) (what ^ " round-trips") true (back = snap)
    | Error e -> Alcotest.failf "%s: render not parseable: %s" what e
  in
  (* Siblings first: histogram "h" and its bounds get renamed families. *)
  let m = Metrics.create () in
  Metrics.set (Metrics.gauge m "h_min") 1;
  Metrics.set (Metrics.gauge m "h_max") 2;
  Metrics.set (Metrics.gauge m "h_bucket") 3;
  Metrics.incr (Metrics.counter m "h_sum");
  Metrics.incr (Metrics.counter m "h_count");
  List.iter (Metrics.observe (Metrics.histogram m "h")) [ 0; 5; 1000 ];
  round_trip "siblings before histogram" m;
  (* Histogram first: the later families are the renamed ones — including
     a second histogram landing on a reserved sibling name. *)
  let m = Metrics.create () in
  List.iter (Metrics.observe (Metrics.histogram m "g")) [ 2; 9 ];
  Metrics.set (Metrics.gauge m "g_min") 4;
  Metrics.set (Metrics.gauge m "g_bucket") 5;
  Metrics.observe (Metrics.histogram m "g_count") 7;
  round_trip "siblings after histogram" m

(* --- bit-identity across the corpus -------------------------------------- *)

(* Tracing must be invisible: on every corpus entry, mode, and input, a
   run traced to a memory sink (the expensive backend) and a run traced
   to the null sink reply exactly — response AND step count — like the
   un-traced run. *)
let test_bit_identity () =
  List.iter
    (fun (e : Paper.entry) ->
      match Policy.allowed_indices e.Paper.policy with
      | None -> ()
      | Some _ ->
          let g = Paper.graph e in
          List.iter
            (fun mode ->
              let plain_cfg = Dynamic.config ~fuel:2000 ~mode e.Paper.policy in
              Seq.iter
                (fun a ->
                  let plain = Dynamic.run plain_cfg g a in
                  let check label emit =
                    let cfg = Dynamic.config ~fuel:2000 ~mode ~emit e.Paper.policy in
                    let traced = Dynamic.run cfg g a in
                    if show_mech_reply plain <> show_mech_reply traced then
                      Alcotest.failf "%s/%s %s: %s run diverged: %s vs %s"
                        e.Paper.name (Dynamic.mode_name mode) (show_inputs a)
                        label (show_mech_reply plain) (show_mech_reply traced)
                  in
                  check "null-sink" (Sink.emitter ~graph:g Sink.null);
                  check "memory-sink" (Sink.emitter ~graph:g (Sink.memory ())))
                (Space.enumerate e.Paper.space))
            Dynamic.all_modes)
    Paper.all

(* --- instrumented-run parity --------------------------------------------- *)

let show_var = function
  | Var.Reg i -> Printf.sprintf "r%d" i
  | Var.Input i -> Printf.sprintf "x%d" i
  | Var.Out -> "y"

let taint_trajectory evs =
  (* Surveillance-variable updates for program variables. The instrumented
     flowchart's prologue also initialises the input slots x̄j := {j};
     Dynamic keeps those implicit, so Input taints are dropped on both
     sides before comparing. *)
  List.filter_map
    (function
      | Event.Taint { var = (Var.Reg _ | Var.Out) as v; taint; _ } ->
          Some (v, taint)
      | _ -> None)
    evs

let show_trajectory l =
  String.concat "; "
    (List.map
       (fun (v, t) ->
         Printf.sprintf "%s=%s" (show_var v) (Format.asprintf "%a" Iset.pp t))
       l)

let verdict_class (r : Mechanism.reply) =
  match r.Mechanism.response with
  | Mechanism.Granted v -> "granted " ^ Value.to_string v
  | Mechanism.Denied _ -> "denied"
  | Mechanism.Hung -> "hung"
  | Mechanism.Failed _ -> "failed"

(* Rules (1)-(4) as an interpreter (Dynamic, Surveillance) and as a
   source-to-source rewrite (Instrument, Untimed) must not only agree on
   verdicts — through the trace adapter they must bind the SAME
   surveillance values to the SAME variables in the SAME order. *)
let test_instrument_parity () =
  List.iter
    (fun (e : Paper.entry) ->
      let g = Paper.graph e in
      Seq.iter
        (fun a ->
          let dyn_sink = Sink.memory () in
          let dyn =
            Dynamic.mechanism
                (Dynamic.config ~fuel:10000 ~mode:Dynamic.Surveillance
                   ~emit:(Sink.emitter ~graph:g dyn_sink) e.Paper.policy)
                g
          in
          let r1 = Mechanism.respond dyn a in
          let ins_sink = Sink.memory () in
          let ins =
            Instrument.mechanism ~fuel:100000
              ~emit:(Sink.emitter ins_sink) Instrument.Untimed
              ~policy:e.Paper.policy g
          in
          let r2 = Mechanism.respond ins a in
          if verdict_class r1 <> verdict_class r2 then
            Alcotest.failf "%s %s: dynamic %s, instrumented %s" e.Paper.name
              (show_inputs a) (verdict_class r1) (verdict_class r2);
          let t1 = taint_trajectory (Sink.events dyn_sink) in
          let t2 = taint_trajectory (Sink.events ins_sink) in
          if t1 <> t2 then
            Alcotest.failf "%s %s: taint trajectories diverge:@\n  dynamic: %s@\n  instrumented: %s"
              e.Paper.name (show_inputs a) (show_trajectory t1)
              (show_trajectory t2))
        (Space.enumerate e.Paper.space))
    [ Paper.forgetting; Paper.direct_flow; Paper.branch_allowed; Paper.scoped_trap ]

(* --- guard events -------------------------------------------------------- *)

let test_guard_events () =
  let failing =
    Mechanism.make ~name:"flaky" ~arity:0 (fun _ ->
        { Mechanism.response = Mechanism.Failed "boom"; steps = 1 })
  in
  let sink = Sink.memory () in
  let outcome, _steps = Guard.run ~sink failing [||] in
  (match outcome with
  | Guard.Degraded r -> Alcotest.(check int) "attempts" 3 r.Guard.attempts
  | Guard.Output _ | Guard.Notice _ -> Alcotest.fail "expected degradation");
  let guards =
    List.filter_map
      (function
        | Event.Guard { kind; mechanism; attempt; _ } ->
            Some (kind, mechanism, attempt)
        | _ -> None)
      (Sink.events sink)
  in
  match guards with
  | [ (Event.Retry, m1, 1); (Event.Retry, m2, 2); (Event.Degraded, m3, 3) ] ->
      List.iter
        (fun m -> Alcotest.(check string) "mechanism name" "flaky" m)
        [ m1; m2; m3 ]
  | _ ->
      Alcotest.failf "unexpected guard events: %s"
        (String.concat "; "
           (List.map
              (fun (k, _, a) ->
                Printf.sprintf "%s@%d"
                  (match k with Event.Retry -> "retry" | Event.Degraded -> "degraded")
                  a)
              guards))

(* --- journal events ------------------------------------------------------ *)

let first_input (e : Paper.entry) =
  match (Space.enumerate e.Paper.space) () with
  | Seq.Cons (a, _) -> a
  | Seq.Nil -> assert false

let test_journal_events () =
  let e = Paper.forgetting in
  let g = Paper.graph e in
  let a = first_input e in
  let cfg = Dynamic.config ~fuel:2000 ~mode:Dynamic.Surveillance e.Paper.policy in
  let sink = Sink.memory () in
  let media = Media.memory () in
  (match
     Runner.run ~snapshot_every:2 ~sink ~media ~program_ref:e.Paper.name cfg g a
   with
  | Runner.Completed _ -> ()
  | Runner.Killed _ -> Alcotest.fail "unexpected kill");
  let evs = Sink.events sink in
  (match evs with
  | Event.Run _ :: _ -> ()
  | _ -> Alcotest.fail "journaled run does not open with the run header");
  (match List.rev evs with
  | Event.Verdict _ :: _ -> ()
  | _ -> Alcotest.fail "journaled run does not close with the verdict");
  Alcotest.(check bool) "at least one checkpoint" true
    (List.exists
       (function Event.Journal { kind = Event.Checkpoint; _ } -> true | _ -> false)
       evs);
  (* Kill the run mid-flight, then watch the recovery lifecycle. *)
  let media2 = Media.memory () in
  (match
     Runner.run ~kill_at:2 ~snapshot_every:2 ~media:media2
       ~program_ref:e.Paper.name cfg g a
   with
  | Runner.Killed _ -> ()
  | Runner.Completed _ -> Alcotest.fail "kill_at did not kill");
  let resolve (h : Runner.header) =
    if h.Runner.program_ref = e.Paper.name then Ok g
    else Error ("unknown " ^ h.Runner.program_ref)
  in
  let sink2 = Sink.memory () in
  (match Runner.resume ~sink:sink2 ~resolve ~media:media2 () with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "resume failed: %s" (Runner.failure_message f));
  let evs2 = Sink.events sink2 in
  Alcotest.(check bool) "resume event present" true
    (List.exists
       (function Event.Journal { kind = Event.Resume; _ } -> true | _ -> false)
       evs2);
  match List.rev evs2 with
  | Event.Verdict _ :: _ -> ()
  | _ -> Alcotest.fail "recovery does not close with the verdict"

(* --- provenance over the corpus ------------------------------------------ *)

(* Every condemned run in the corpus, under every mode, must explain: the
   chains cover exactly the disallowed coordinates, each chain ends at
   the condemning box, and the verdict is classified Λ/explicit,
   Λ/implicit, or Λ/timed. Chain-less denials (Λ/fuel) classify as
   Other; granted runs refuse to explain. The corpus must exercise all
   three Λ kinds. *)
let test_explain_corpus () =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (e : Paper.entry) ->
      match Policy.allowed_indices e.Paper.policy with
      | None -> ()
      | Some allowed ->
          let g = Paper.graph e in
          List.iter
            (fun mode ->
              Seq.iter
                (fun a ->
                  let where =
                    Printf.sprintf "%s/%s %s" e.Paper.name
                      (Dynamic.mode_name mode) (show_inputs a)
                  in
                  let sink = Sink.memory () in
                  let m =
                    Dynamic.mechanism
                        (Dynamic.config ~fuel:2000 ~mode
                           ~emit:(Sink.emitter ~graph:g sink) e.Paper.policy)
                        g
                  in
                  Sink.emit sink
                    (Event.run_header ~program:e.Paper.name
                       ~arity:g.Graph.arity ~mode:(Dynamic.mode_name mode)
                       ~allowed ~inputs:a);
                  let r = Mechanism.respond m a in
                  Sink.emit sink (Event.of_reply r);
                  let evs = Sink.events sink in
                  match r.Mechanism.response with
                  | Mechanism.Granted _ -> (
                      match Provenance.explain evs with
                      | Error _ -> ()
                      | Ok _ -> Alcotest.failf "%s: granted run explained" where)
                  | _ -> (
                      let condemned =
                        List.exists
                          (function Event.Condemn _ -> true | _ -> false)
                          evs
                      in
                      match Provenance.explain evs with
                      | Error msg ->
                          Alcotest.failf "%s: cannot explain denial: %s" where msg
                      | Ok ex ->
                          Hashtbl.replace seen
                            (Provenance.kind_name ex.Provenance.kind) ();
                          if condemned then begin
                            (match ex.Provenance.kind with
                            | Provenance.Explicit | Provenance.Implicit
                            | Provenance.Timed ->
                                ()
                            | Provenance.Other n ->
                                Alcotest.failf
                                  "%s: condemned run classified Other %S" where n);
                            if ex.Provenance.chains = [] then
                              Alcotest.failf "%s: condemned run has no chains"
                                where;
                            List.iter
                              (fun (c : Provenance.chain) ->
                                match List.rev c.Provenance.links with
                                | last :: _
                                  when last.Provenance.node = ex.Provenance.node
                                  ->
                                    ()
                                | _ ->
                                    Alcotest.failf
                                      "%s: chain for coordinate %d does not \
                                       end at the condemning box"
                                      where c.Provenance.coordinate)
                              ex.Provenance.chains;
                            let coords =
                              Iset.of_list
                                (List.map
                                   (fun (c : Provenance.chain) ->
                                     c.Provenance.coordinate)
                                   ex.Provenance.chains)
                            in
                            if not (Iset.equal coords ex.Provenance.disallowed)
                            then
                              Alcotest.failf
                                "%s: chains cover %a, disallowed is %a" where
                                Iset.pp coords Iset.pp ex.Provenance.disallowed
                          end
                          else
                            match ex.Provenance.kind with
                            | Provenance.Other _ -> ()
                            | k ->
                                Alcotest.failf
                                  "%s: chain-less denial classified %s" where
                                  (Provenance.kind_name k)))
                (Space.enumerate e.Paper.space))
            Dynamic.all_modes)
    Paper.all;
  List.iter
    (fun k ->
      if not (Hashtbl.mem seen k) then
        Alcotest.failf "corpus never produced a %s verdict" k)
    [ "Λ/explicit"; "Λ/implicit"; "Λ/timed" ]

(* ------------------------------------------------------------------------- *)

let () =
  Alcotest.run "trace"
    [
      ( "codec",
        [
          qtest "jsonl round-trip" event_arb jsonl_roundtrip;
          qtest "json round-trip" event_arb json_roundtrip;
          qtest "chrome rendering is valid JSON" event_arb chrome_renders;
          Alcotest.test_case "decode_lines" `Quick test_decode_lines;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "null sink is Emit.none" `Quick test_null_sink_is_none;
          Alcotest.test_case "memory sink" `Quick test_memory_sink;
          Alcotest.test_case "jsonl file sink" `Quick test_jsonl_file_sink;
          Alcotest.test_case "chrome file sink" `Quick test_chrome_file_sink;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "gauges" `Quick test_metrics_gauges;
          Alcotest.test_case "merge and kind conflicts" `Quick test_metrics_merge;
          Alcotest.test_case "histogram boundaries" `Quick test_metrics_boundaries;
          Alcotest.test_case "snapshot diff" `Quick test_metrics_diff;
          qtest "prometheus round-trip" snapshot_arb expo_roundtrip;
          Alcotest.test_case "exposition survives sibling-name collisions"
            `Quick test_expo_sibling_collisions;
        ] );
      ( "invisibility",
        [
          Alcotest.test_case "traced replies = un-traced replies" `Quick
            test_bit_identity;
          Alcotest.test_case "dynamic/instrumented taint parity" `Quick
            test_instrument_parity;
        ] );
      ( "lifecycles",
        [
          Alcotest.test_case "guard retry/degrade events" `Quick test_guard_events;
          Alcotest.test_case "journal checkpoint/resume events" `Quick
            test_journal_events;
        ] );
      ( "provenance",
        [ Alcotest.test_case "explains the whole corpus" `Quick test_explain_corpus ] );
    ]
