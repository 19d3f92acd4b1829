module Iset = Secpol_core.Iset
module Value = Secpol_core.Value
module Policy = Secpol_core.Policy
module Space = Secpol_core.Space
module Mechanism = Secpol_core.Mechanism
module Graph = Secpol_flowgraph.Graph
module Dynamic = Secpol_taint.Dynamic
module Certifier = Secpol_staticflow.Certifier
module Paper = Secpol_corpus.Paper_programs
module Json = Secpol_staticflow.Lint.Json
module Metrics = Secpol_trace.Metrics
module Sink = Secpol_trace.Sink
module Guard = Secpol_fault.Guard
module Injector = Secpol_fault.Injector
module Media = Secpol_journal.Media
module Harness = Secpol_fault.Harness

let fault_free_shard_counts = [ 1; 2; 3; 5 ]

let stats =
  Harness.
    [
      Counter "runs";
      Counter "plans";
      Counter "grants";
      Counter "recovered";
      Counter "monitor_denials";
      Counter "fault_denials";
      Counter "partitions";
      Counter "fail_open";
      Counter "clean_mismatch";
      Counter "shard_kills";
      Counter "monitor_faults";
      Counter "timeouts";
      Counter "retransmits";
      Counter "journal_resumes";
      Counter "lost_shards";
      Counter "net_dropped";
      Counter "net_delayed";
      Counter "net_duplicated";
      Counter "net_reordered";
      Counter "net_corrupted";
      Histogram "merge_rounds";
      Histogram "backoff_steps";
    ]

let run_task ~mode ~seeds ~base_seed ~inputs_per_case ~sink
    (ctx : Harness.ctx) (entry, policy) =
  let c = Metrics.counter ctx.Harness.metrics in
  let c_runs = c "runs"
  and c_plans = c "plans"
  and c_grants = c "grants"
  and c_recovered = c "recovered"
  and c_monitor_denials = c "monitor_denials"
  and c_fault_denials = c "fault_denials"
  and c_partitions = c "partitions"
  and c_fail_open = c "fail_open"
  and c_clean_mismatch = c "clean_mismatch"
  and c_shard_kills = c "shard_kills"
  and c_monitor_faults = c "monitor_faults"
  and c_timeouts = c "timeouts"
  and c_retransmits = c "retransmits"
  and c_journal_resumes = c "journal_resumes"
  and c_lost = c "lost_shards"
  and c_net_dropped = c "net_dropped"
  and c_net_delayed = c "net_delayed"
  and c_net_duplicated = c "net_duplicated"
  and c_net_reordered = c "net_reordered"
  and c_net_corrupted = c "net_corrupted" in
  let h_rounds = Metrics.histogram ctx.Harness.metrics "merge_rounds" in
  let h_backoff = Metrics.histogram ctx.Harness.metrics "backoff_steps" in
  let g = Paper.graph entry in
  let arity = g.Graph.arity in
  let allowed = Option.get (Policy.allowed_indices policy) in
  let pname = Policy.name policy in
  let inputs =
    Harness.spread inputs_per_case
      (List.of_seq (Space.enumerate entry.Paper.space))
  in
  let clean_mech = Dynamic.mechanism (Dynamic.config ~mode policy) g in
  (* Baselines per input: the raw clean monitor (what a grant must
     match) and the guarded single enforcer (what an undisturbed
     distributed run must be bit-identical to — same guard layering,
     program faults included). *)
  let baselines =
    List.map
      (fun a ->
        ( a,
          Mechanism.respond clean_mech a,
          Guard.reply_of_outcome (Guard.run ~config:Guard.default clean_mech a)
        ))
      inputs
  in
  (* Residual plans depend only on the shard's sub-policy: cache them
     across seeds and inputs. *)
  let residuals : (int, Certifier.residual) Hashtbl.t = Hashtbl.create 16 in
  let residual_for sub_allowed =
    let key = Iset.to_mask sub_allowed in
    match Hashtbl.find_opt residuals key with
    | Some r -> r
    | None ->
        let r = Certifier.residual_plan ~allowed:sub_allowed g in
        Hashtbl.add residuals key r;
        r
  in
  (* One distributed run. Returns (merged reply, disturbed). *)
  let run_dist ~(plan : Plan.t) ~input_idx a =
    let sls = Shard.slices ~shards:plan.Plan.shards ~arity ~allowed in
    let injectors = Array.make plan.Plan.shards None in
    let shards =
      Array.map
        (fun (sl : Shard.slice) ->
          let i = sl.Shard.shard_id in
          let journaled = (plan.Plan.seed + i) land 1 = 0 in
          let injector =
            match plan.Plan.shard_faults.(i) with
            | Plan.Faulty p -> Some (Injector.create p)
            | Plan.Healthy | Plan.Kill -> None
          in
          injectors.(i) <- injector;
          let s =
            if journaled then
              Shard.create ?injector ~journal:(fun () -> Media.memory ())
                ~sink ~mode sl g
            else
              Shard.create ?injector ~residual:(residual_for sl.Shard.sub_allowed)
                ~sink ~mode sl g
          in
          (match plan.Plan.shard_faults.(i) with
          | Plan.Kill ->
              if journaled then Shard.arm_kill s (1 + (plan.Plan.seed + i) mod 5)
              else Shard.kill s
          | Plan.Healthy | Plan.Faulty _ -> ());
          s)
        sls
    in
    let net =
      match plan.Plan.net_seed with
      | Some s -> Net.create ~seed:(s + (97 * input_idx)) ~rate:plan.Plan.net_rate ()
      | None -> Net.create ()
    in
    let config =
      let jitter =
        if Plan.is_fault_free plan then None
        else Some ((plan.Plan.seed * 31) + input_idx)
      in
      if plan.Plan.coordinator_timeout then
        { Coordinator.default with deadline_rounds = 0; retries = 0; jitter }
      else { Coordinator.default with jitter }
    in
    let reply, stats =
      Coordinator.enforce ~config ~net ~sink ~nonce:(Coordinator.fresh_nonce ())
        shards a
    in
    let fired =
      Array.fold_left
        (fun n -> function
          | Some inj -> n + Injector.fired_total inj
          | None -> n)
        0 injectors
    in
    let resumed = Array.fold_left (fun n s -> n + Shard.resumes s) 0 shards in
    let nc = Net.counters net in
    Metrics.incr ~by:stats.Coordinator.retransmits c_retransmits;
    Metrics.incr ~by:resumed c_journal_resumes;
    Metrics.incr ~by:stats.Coordinator.lost c_lost;
    Metrics.incr ~by:nc.Net.dropped c_net_dropped;
    Metrics.incr ~by:nc.Net.delayed c_net_delayed;
    Metrics.incr ~by:nc.Net.duplicated c_net_duplicated;
    Metrics.incr ~by:nc.Net.reordered c_net_reordered;
    Metrics.incr ~by:nc.Net.corrupted c_net_corrupted;
    Metrics.observe h_rounds stats.Coordinator.rounds;
    Metrics.observe h_backoff stats.Coordinator.backoff_steps;
    let disturbed =
      Plan.kills plan > 0 || plan.Plan.coordinator_timeout
      || Net.faults_applied net > 0
      || fired > 0
    in
    (reply, disturbed)
  in
  let classify ~(plan : Plan.t) ~input_idx (a, (clean : Mechanism.reply), guarded)
      =
    let reply, disturbed = run_dist ~plan ~input_idx a in
    Metrics.incr c_runs;
    let fault detail counter =
      let input = Harness.show_input a in
      Metrics.incr counter;
      ctx.Harness.note
        {
          Harness.subject =
            [
              entry.Paper.name;
              pname;
              "seed " ^ string_of_int plan.Plan.seed;
              string_of_int plan.Plan.shards ^ " shards";
              input;
            ];
          fields =
            [
              ("entry", Json.String entry.Paper.name);
              ("policy", Json.String pname);
              ("seed", Json.Int plan.Plan.seed);
              ("shards", Json.Int plan.Plan.shards);
              ("input", Json.String input);
            ];
          detail = Printf.sprintf "[plan %s] %s" (Plan.describe plan) detail;
        }
    in
    (match reply.Mechanism.response with
    | Mechanism.Granted v -> (
        match clean.Mechanism.response with
        | Mechanism.Granted w when Value.equal v w ->
            Metrics.incr c_grants;
            if disturbed then Metrics.incr c_recovered
        | _ ->
            fault
              (Printf.sprintf
                 "FAIL-OPEN: merged reply granted %s but clean monitor replied \
                  %s"
                 (Value.to_string v)
                 (Harness.show_response clean.Mechanism.response))
              c_fail_open)
    | Mechanism.Denied notice ->
        if notice = Coordinator.partition_notice then Metrics.incr c_partitions
        else if notice = Dynamic.notice || notice = Dynamic.fuel_notice then
          Metrics.incr c_monitor_denials
        else Metrics.incr c_fault_denials
    | Mechanism.Hung | Mechanism.Failed _ ->
        fault "merge produced a reply outside E \xe2\x88\xaa F" c_fail_open);
    if not disturbed then begin
      if reply <> guarded then
        fault
          (Printf.sprintf
             "undisturbed run not bit-identical: %s vs guarded single \
              enforcer %s"
             (Harness.show_reply reply) (Harness.show_reply guarded))
          c_clean_mismatch
    end
  in
  (* Fault-free pass: bit-identity with the guarded single enforcer at
     every shard count. *)
  List.iter
    (fun shards ->
      let plan = Plan.fault_free ~shards in
      List.iter (fun b -> classify ~plan ~input_idx:0 b) baselines)
    fault_free_shard_counts;
  (* Seeded distributed fault plans. *)
  for seed = base_seed to base_seed + seeds - 1 do
    Metrics.incr c_plans;
    let plan = Plan.generate ~shards:(2 + (seed mod 3)) ~seed () in
    Metrics.incr ~by:(Plan.kills plan) c_shard_kills;
    Metrics.incr ~by:(Plan.monitor_faults plan) c_monitor_faults;
    if plan.Plan.coordinator_timeout then Metrics.incr c_timeouts;
    List.iteri (fun input_idx b -> classify ~plan ~input_idx b) baselines
  done

let describe ~seeds ~base_seed ~mode count =
  {
    Harness.title =
      Printf.sprintf
        "distributed chaos sweep: %d plans (%d seeds from %d), mode %s"
        (count "plans") seeds base_seed (Dynamic.mode_name mode);
    params =
      [
        ("base_seed", Json.Int base_seed);
        ("seeds", Json.Int seeds);
        ("mode", Json.String (Dynamic.mode_name mode));
      ];
    rows =
      [
        ("runs", "distributed runs", None);
        ( "grants",
          "grants",
          Some
            (Printf.sprintf "%d recovered after faults struck"
               (count "recovered")) );
        ("monitor_denials", "monitor denials", None);
        ("fault_denials", "fault denials", None);
        ("partitions", "partitions", Some "\xce\x9b/partition \xe2\x88\x88 F");
        ("fail_open", "fail-open", None);
        ("clean_mismatch", "clean mismatches", None);
        ("shard_kills", "shard kills", None);
        ("monitor_faults", "monitor-faulty shards", None);
        ("timeouts", "coordinator timeouts", None);
        ("retransmits", "retransmissions", None);
        ("journal_resumes", "journal recoveries", None);
        ("lost_shards", "shards lost", None);
        ("net_dropped", "messages dropped", None);
        ("net_delayed", "messages delayed", None);
        ("net_duplicated", "messages duplicated", None);
        ("net_reordered", "messages reordered", None);
        ("net_corrupted", "messages corrupted", None);
        ("engine_tasks", "engine tasks", None);
      ];
    verdict_ok =
      "fail-secure (no fail-open merge, undisturbed runs bit-identical)";
    verdict_fail = "FAIL-OPEN OR DIVERGENCE FROM SINGLE ENFORCER DETECTED";
  }

let run ?(entries = Paper.all) ?(mode = Dynamic.Surveillance) ?(seeds = 30)
    ?(base_seed = 0) ?(inputs_per_case = 3) ?(sink = Sink.null) ?(jobs = 1) ()
    =
  let sink = if jobs > 1 then Sink.synchronized sink else sink in
  Harness.run ~jobs ~stats ~zero:[ "fail_open"; "clean_mismatch" ]
    ~describe:(describe ~seeds ~base_seed ~mode)
    (Harness.cases entries)
    (run_task ~mode ~seeds ~base_seed ~inputs_per_case ~sink)
