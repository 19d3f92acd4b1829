module Value = Secpol_core.Value
module Policy = Secpol_core.Policy
module Space = Secpol_core.Space
module Mechanism = Secpol_core.Mechanism
module Dynamic = Secpol_taint.Dynamic
module Paper = Secpol_corpus.Paper_programs
module Json = Secpol_staticflow.Lint.Json
module Metrics = Secpol_trace.Metrics
module Sink = Secpol_trace.Sink
module Cache = Secpol_engine.Cache
module Memo = Secpol_engine.Memo
module Runner = Secpol_journal.Runner

(* In rendered order, which the golden reports pin: the histogram first,
   then the counters from last to first. *)
let stats =
  Harness.
    [
      Histogram "guard_steps";
      Counter "unguarded_failures";
      Counter "clean_mismatch";
      Counter "fail_open";
      Counter "degraded";
      Counter "notices";
      Counter "recovered";
      Counter "grants";
      Counter "plans";
      Counter "runs";
    ]

(* One task per (entry, policy, chunk of [seed_chunk] seeds). The first
   chunk of each (entry, policy) also carries the fault-free guarded
   pass. *)
let seed_chunk = 25

type task = {
  t_entry : Paper.entry;
  t_policy : Policy.t;
  t_seed_lo : int;
  t_seed_count : int;
  t_first : bool;
}

let finding ~entry ~policy ~seed ~input detail =
  {
    Harness.subject = [ entry; policy; "seed " ^ string_of_int seed; input ];
    fields =
      [
        ("entry", Json.String entry);
        ("policy", Json.String policy);
        ("seed", Json.Int seed);
        ("input", Json.String input);
      ];
    detail;
  }

let run_task ~mode ~horizon ~config ~sink ~cache (ctx : Harness.ctx) t =
  let counter = Metrics.counter ctx.Harness.metrics in
  let c_runs = counter "runs"
  and c_plans = counter "plans"
  and c_grants = counter "grants"
  and c_recovered = counter "recovered"
  and c_notices = counter "notices"
  and c_degraded = counter "degraded"
  and c_fail_open = counter "fail_open"
  and c_clean_mismatch = counter "clean_mismatch"
  and c_unguarded = counter "unguarded_failures" in
  let h_steps = Metrics.histogram ctx.Harness.metrics "guard_steps" in
  let entry = t.t_entry and policy = t.t_policy in
  let g = Paper.graph entry in
  let inputs = List.of_seq (Space.enumerate entry.Paper.space) in
  let pname = Policy.name policy in
  let note ~seed a detail =
    ctx.Harness.note
      (finding ~entry:entry.Paper.name ~policy:pname ~seed
         ~input:(Harness.show_input a) detail)
  in
  let clean_mech = Dynamic.mechanism (Dynamic.config ~mode policy) g in
  (* Clean baselines through the exact-key cache: any chunk of this
     (entry, policy) may compute them, every other chunk reuses them. The
     key is the full input vector, so this is sound for any mechanism —
     no soundness assumption needed for baselines. *)
  let cached_clean =
    Memo.exact ~cache
      ~digest:(Runner.graph_hash g)
      ~tag:(Printf.sprintf "chaos-clean|%s|%s" (Dynamic.mode_name mode) pname)
      clean_mech
  in
  let clean =
    List.map (fun a -> (a, Mechanism.respond cached_clean a)) inputs
  in
  if t.t_first then
    (* Fault-free guarded pass: with no injector the guard must be a
       bit-identical wrapper. *)
    List.iter
      (fun (a, (c : Mechanism.reply)) ->
        let r = Guard.reply_of_outcome (Guard.run ~config ~sink clean_mech a) in
        if r <> c then begin
          Metrics.incr c_clean_mismatch;
          note ~seed:(-1) a
            (Printf.sprintf
               "guard without faults not bit-identical: %s vs clean %s"
               (Harness.show_reply r) (Harness.show_reply c))
        end)
      clean;
  for seed = t.t_seed_lo to t.t_seed_lo + t.t_seed_count - 1 do
    Metrics.incr c_plans;
    let plan = Plan.generate ~horizon ~seed () in
    let injector = Injector.create plan in
    let faulty =
      Dynamic.mechanism
        (Dynamic.config ~hook:(Injector.hook injector) ~mode policy)
        g
    in
    List.iter
      (fun (a, (c : Mechanism.reply)) ->
        let fault counter detail =
          note ~seed a (Printf.sprintf "[plan %s] %s" (Plan.describe plan) detail);
          Metrics.incr counter
        in
        (* Contrast pass: same faulty monitor, no supervisor. Raw-Q with
           live fault injection is exactly the unsound case the verdict
           cache must never serve — it bypasses the cache entirely. *)
        Injector.reset injector;
        (match (Mechanism.respond faulty a).Mechanism.response with
        | Mechanism.Failed _ | Mechanism.Hung -> Metrics.incr c_unguarded
        | Mechanism.Granted _ | Mechanism.Denied _ -> ());
        (* Guarded pass. *)
        let outcome, steps = Guard.run ~config ~injector ~sink faulty a in
        Metrics.incr c_runs;
        Metrics.observe h_steps steps;
        let fired = Injector.fired_total injector > 0 in
        (match outcome with
        | Guard.Output v -> (
            match c.Mechanism.response with
            | Mechanism.Granted w when Value.equal v w ->
                Metrics.incr c_grants;
                if fired then Metrics.incr c_recovered
            | _ ->
                fault c_fail_open
                  (Printf.sprintf
                     "FAIL-OPEN: guarded run granted %s but clean monitor \
                      replied %s"
                     (Value.to_string v)
                     (Harness.show_response c.Mechanism.response)))
        | Guard.Notice _ -> Metrics.incr c_notices
        | Guard.Degraded _ -> Metrics.incr c_degraded);
        if not fired then begin
          let r = Guard.reply_of_outcome (outcome, steps) in
          if r <> c then
            fault c_clean_mismatch
              (Printf.sprintf "no fault fired yet reply differs: %s vs clean %s"
                 (Harness.show_reply r) (Harness.show_reply c))
        end)
      clean
  done

let tasks_of ~entries ~seeds ~base_seed =
  let task entry policy lo count =
    {
      t_entry = entry;
      t_policy = policy;
      t_seed_lo = lo;
      t_seed_count = count;
      t_first = lo = base_seed;
    }
  in
  List.concat_map
    (fun (entry, policy) ->
      let rec chunks lo =
        if lo >= base_seed + seeds then []
        else
          let count = min seed_chunk (base_seed + seeds - lo) in
          task entry policy lo count :: chunks (lo + count)
      in
      (* No seeds still means the fault-free guarded pass. *)
      if seeds <= 0 then [ task entry policy base_seed 0 ]
      else chunks base_seed)
    (Harness.cases entries)

let describe ~seeds ~base_seed ~mode count =
  {
    Harness.title =
      Printf.sprintf "chaos sweep: %d fault plans (%d seeds from %d), mode %s"
        (count "plans") seeds base_seed (Dynamic.mode_name mode);
    params =
      [
        ("base_seed", Json.Int base_seed);
        ("seeds", Json.Int seeds);
        ("mode", Json.String (Dynamic.mode_name mode));
      ];
    rows =
      [
        ("runs", "guarded runs", None);
        ( "grants",
          "grants",
          Some
            (Printf.sprintf "%d recovered after faults fired"
               (count "recovered")) );
        ("notices", "notices", None);
        ("degraded", "degraded", None);
        ( "unguarded_failures",
          "unguarded crashes",
          Some "absorbed into F by the guard" );
        ("fail_open", "fail-open", None);
        ("clean_mismatch", "clean mismatches", None);
        ("engine_tasks", "engine tasks", None);
        ("cache_hits", "cache hits", Some "clean baselines reused");
        ("cache_misses", "cache misses", None);
      ];
    verdict_ok = "fail-secure (no fail-open outcome, clean runs bit-identical)";
    verdict_fail = "FAIL-OPEN OR DIVERGENCE FROM CLEAN RUNS DETECTED";
  }

let run ?(entries = Paper.all) ?(mode = Dynamic.Surveillance) ?(seeds = 100)
    ?(base_seed = 0) ?(horizon = 24) ?(retries = 2) ?(sink = Sink.null)
    ?(jobs = 1) () =
  let sink = if jobs > 1 then Sink.synchronized sink else sink in
  let config = { Guard.default with Guard.retries } in
  let cache = Cache.create () in
  let report =
    Harness.run ~jobs ~stats ~zero:[ "fail_open"; "clean_mismatch" ]
      ~describe:(describe ~seeds ~base_seed ~mode)
      (tasks_of ~entries ~seeds ~base_seed)
      (run_task ~mode ~horizon ~config ~sink ~cache)
  in
  (* The cache counts with compute-once semantics (misses = distinct
     keys), so its counters are as deterministic as the task list. *)
  let add name n =
    Metrics.incr ~by:n (Metrics.counter report.Harness.metrics name)
  in
  add "cache_hits" (Cache.hits cache);
  add "cache_misses" (Cache.misses cache);
  report
