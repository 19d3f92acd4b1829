module Mechanism = Secpol_core.Mechanism
module Interp = Secpol_flowgraph.Interp
module Hook = Secpol_flowgraph.Hook
module Graph = Secpol_flowgraph.Graph
module Dynamic = Secpol_taint.Dynamic
module Guard = Secpol_fault.Guard
module Runner = Secpol_journal.Runner
module Media = Secpol_journal.Media
module Sink = Secpol_trace.Sink
module Metrics = Secpol_trace.Metrics
module Pool = Secpol_engine.Pool
module Certifier = Secpol_staticflow.Certifier
module Dist_shard = Secpol_dist.Shard
module Dist_coordinator = Secpol_dist.Coordinator

type journal = {
  media : [ `Media of unit -> Media.t | `Dir of string ];
  snapshot_every : int;
  program_ref : string;
  kill_at : int option;
}

exception Killed of int

type config = {
  policy : Secpol_core.Policy.t option;
  mode : Dynamic.mode;
  fuel : int;
  cost : Secpol_flowgraph.Expr.cost_model;
  hook : Hook.t;
  trace : Sink.t;
  guard : Guard.config option;
  journal : journal option;
  jobs : int;
  residual : bool;
  shards : int;
  metrics : Metrics.t option;
}

let config ?policy ?(mode = Dynamic.Surveillance) ?(fuel = Interp.default_fuel)
    ?(cost = Secpol_flowgraph.Expr.Uniform) ?(hook = Hook.none)
    ?(trace = Sink.null) ?guard ?journal ?(jobs = 1) ?(residual = false)
    ?(shards = 1) ?metrics () =
  { policy; mode; fuel; cost; hook; trace; guard; journal; jobs; residual;
    shards; metrics }

let journal_memory ?(snapshot_every = Runner.default_snapshot_every)
    ~program_ref () =
  { media = `Media Media.memory; snapshot_every; program_ref; kill_at = None }

let journal_dir ?(snapshot_every = Runner.default_snapshot_every) ~program_ref
    dir =
  { media = `Dir dir; snapshot_every; program_ref; kill_at = None }

(* The refusal table of run.mli, row by row, checked before any layer is
   built. *)
let validate cfg =
  let refuse msg = invalid_arg ("Run: " ^ msg) in
  let killed =
    match cfg.journal with Some { kill_at = Some _; _ } -> true | _ -> false
  in
  if cfg.shards < 1 then refuse "shards must be at least 1";
  if cfg.shards > Pool.max_jobs then
    refuse (Printf.sprintf "at most %d shards are supported" Pool.max_jobs);
  if killed && Option.is_some cfg.guard then
    refuse
      "a scripted kill cannot run under a guard (a dying process has no \
       supervisor to retry it)";
  if killed && cfg.shards > 1 then
    refuse
      "a scripted kill needs a single enforcer; shard kills belong to the \
       distributed chaos sweep";
  if cfg.shards > 1 then begin
    (match cfg.policy with
    | None -> refuse "distributed enforcement needs a policy"
    | Some p when Option.is_none (Secpol_core.Policy.allowed_indices p) ->
        refuse "distributed enforcement needs an allow(J) policy"
    | Some _ -> ());
    if cfg.residual then
      refuse
        "distributed shards pick their own residual plans; drop the residual \
         flag";
    if cfg.hook != Hook.none then
      refuse
        "distributed shards do not thread a host fault hook; use the \
         distributed chaos sweep for fault injection"
  end
  else begin
    if cfg.residual && Option.is_some cfg.journal then
      refuse
        "residual monitoring does not journal (a residual taint image would \
         not resume into a full monitor)";
    if cfg.residual && Option.is_none cfg.policy then
      refuse "a residual run needs a policy to certify against";
    if Option.is_some cfg.journal && Option.is_none cfg.policy then
      refuse "a journaled run needs a policy"
  end

(* The stack is composed inside-out: monitor (or plain interpreter), then
   journal, then guard. Each layer is the underlying module verbatim, so a
   one-layer config is bit-identical to calling that module directly. *)

let monitored cfg g =
  let emit = Sink.emitter ~graph:g cfg.trace in
  match cfg.policy with
  | Some policy ->
      let dcfg =
        Dynamic.config ~fuel:cfg.fuel ~cost:cfg.cost ~hook:cfg.hook ~emit
          ~mode:cfg.mode policy
      in
      if not cfg.residual then Dynamic.mechanism dcfg g
      else begin
        (* The certifier's watch plan is fixed per (graph, policy) pair;
           compute it once here, outside the respond path. *)
        let plan = Certifier.residual_plan ~allowed:dcfg.Dynamic.allowed g in
        let record stats =
          match cfg.metrics with
          | None -> ()
          | Some m ->
              Metrics.incr (Metrics.counter m "run/residual/runs");
              Metrics.incr
                ~by:stats.Dynamic.watched_boxes
                (Metrics.counter m "run/residual/watched-boxes");
              Metrics.incr
                ~by:stats.Dynamic.skipped_boxes
                (Metrics.counter m "run/residual/skipped-boxes")
        in
        Mechanism.make
          ~name:
            (Printf.sprintf "residual-%s(%s)"
               (Dynamic.mode_name cfg.mode)
               g.Graph.name)
          ~arity:g.Graph.arity
          (fun a ->
            let reply, stats =
              Dynamic.run_residual dcfg ~watch:plan.Certifier.watch g a
            in
            record stats;
            reply)
      end
  | None -> Interp.graph_mechanism ~fuel:cfg.fuel ~hook:cfg.hook ~emit g

(* [validate] refused a journal without a policy. *)
let journaled cfg j g =
  let emit = Sink.emitter ~graph:g cfg.trace in
  let dcfg =
    Dynamic.config ~fuel:cfg.fuel ~cost:cfg.cost ~hook:cfg.hook ~emit
      ~mode:cfg.mode (Option.get cfg.policy)
  in
  let respond a =
    let media =
      match j.media with `Media fresh -> fresh () | `Dir d -> Media.dir d
    in
    let outcome =
      Fun.protect
        ~finally:(fun () -> Media.close media)
        (fun () ->
          Runner.run ?kill_at:j.kill_at ~snapshot_every:j.snapshot_every
            ~sink:cfg.trace ~media ~program_ref:j.program_ref dcfg g a)
    in
    match outcome with
    | Runner.Completed r -> r
    | Runner.Killed { at_box; _ } -> raise (Killed at_box)
  in
  Mechanism.make
    ~name:(Printf.sprintf "journal(%s)" g.Graph.name)
    ~arity:g.Graph.arity respond

(* Distributed enforcement: deal the policy's disallowed coordinates
   across [cfg.shards] shard enforcers, run them in parallel on the
   engine pool, and merge fail-securely. The guard moves INSIDE each
   shard (a shard is total into E ∪ F on its own); the coordinator's
   merge supplies the outer totalization, collapsing every distributed
   failure to Λ/partition. [validate] refused every policy but allow(J). *)
let distributed cfg g =
  let allowed =
    Option.get (Secpol_core.Policy.allowed_indices (Option.get cfg.policy))
  in
  let guard = Option.value cfg.guard ~default:Guard.default in
  let slices =
    Dist_shard.slices ~shards:cfg.shards ~arity:g.Graph.arity ~allowed
  in
  (* Residual plans are fixed per (graph, sub-policy): compute them once,
     outside the respond path — unjournaled shards only. *)
  let residuals =
    match cfg.journal with
    | Some _ -> [||]
    | None ->
        Array.map
          (fun (sl : Dist_shard.slice) ->
            Certifier.residual_plan ~allowed:sl.Dist_shard.sub_allowed g)
          slices
  in
  let record ~reply stats =
    match cfg.metrics with
    | None -> ()
    | Some m -> Dist_coordinator.record m ~reply stats
  in
  let respond a =
    (* Every medium a shard opens (one per attempt) stays open while the
       coordinator may still ask the shard to resume from it, and is
       closed once the merge is done. Shard [i] only touches [opened.(i)]. *)
    let opened = Array.make cfg.shards [] in
    let shards =
      Array.map
        (fun (sl : Dist_shard.slice) ->
          let i = sl.Dist_shard.shard_id in
          (* Distinct jitter seeds desynchronize co-located shards'
             retry storms while keeping each schedule replayable. *)
          let guard =
            {
              guard with
              Guard.jitter = Option.map (fun s -> s + i) guard.Guard.jitter;
            }
          in
          match cfg.journal with
          | Some j ->
              let journal () =
                let media =
                  match j.media with
                  | `Media fresh -> fresh ()
                  | `Dir d ->
                      Media.dir (Filename.concat d (Printf.sprintf "shard-%d" i))
                in
                opened.(i) <- media :: opened.(i);
                media
              in
              Dist_shard.create ~guard ~journal
                ~snapshot_every:j.snapshot_every ~sink:cfg.trace ~fuel:cfg.fuel
                ~cost:cfg.cost ~mode:cfg.mode sl g
          | None ->
              Dist_shard.create ~guard ~residual:residuals.(i) ~sink:cfg.trace
                ~fuel:cfg.fuel ~cost:cfg.cost ~mode:cfg.mode sl g)
        slices
    in
    let sink =
      if cfg.jobs > 1 then Sink.synchronized cfg.trace else cfg.trace
    in
    let reply, stats =
      Fun.protect
        ~finally:(fun () -> Array.iter (List.iter Media.close) opened)
        (fun () ->
          Dist_coordinator.enforce ~sink ~jobs:cfg.jobs
            ~nonce:(Dist_coordinator.fresh_nonce ())
            shards a)
    in
    record ~reply stats;
    reply
  in
  Mechanism.make
    ~name:
      (Printf.sprintf "dist%d-%s(%s)" cfg.shards
         (Dynamic.mode_name cfg.mode)
         g.Graph.name)
    ~arity:g.Graph.arity respond

let mechanism cfg g =
  validate cfg;
  if cfg.shards > 1 then distributed cfg g
  else
    let base =
      match cfg.journal with
      | Some j -> journaled cfg j g
      | None -> monitored cfg g
    in
    match cfg.guard with
    | Some gc -> Guard.protect ~config:gc ~sink:cfg.trace base
    | None -> base

let run cfg g a = Mechanism.respond (mechanism cfg g) a

let batch cfg g inputs =
  (match cfg.journal with
  | Some { media = `Dir _; _ } when cfg.jobs > 1 ->
      invalid_arg "Run.batch: parallel runs cannot share a journal directory"
  | _ -> ());
  let cfg =
    if cfg.jobs > 1 then { cfg with trace = Sink.synchronized cfg.trace }
    else cfg
  in
  let arr = Array.of_list inputs in
  let m = mechanism cfg g in
  let replies, stats =
    Pool.map ~jobs:cfg.jobs (Array.length arr) (fun i ->
        Mechanism.respond m arr.(i))
  in
  (Array.to_list replies, stats)

let resume cfg ~resolve ~media =
  Runner.resume
    ~emit:(Sink.emitter cfg.trace)
    ~sink:cfg.trace ~resolve ~media ()

let reply_of_resume res =
  Guard.reply_of_recovery (Result.map (fun r -> r.Runner.reply) res)
