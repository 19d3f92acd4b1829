(** One front door for monitored execution.

    Four run entry points grew up separately — the plain interpreter
    ({!Secpol_flowgraph.Interp}), the dynamic monitor
    ({!Secpol_taint.Dynamic}), the fail-secure supervisor
    ({!Secpol_fault.Guard}) and the durable runner
    ({!Secpol_journal.Runner}) — each with its own optional-argument
    spelling of the same knobs. [Run] composes all four behind a single
    {!config} record:

    - [policy = Some p] runs the monitor for [p]; [None] runs the plain
      interpreter (raw [Q] — never cached, never claimed sound);
    - [journal = Some j] makes the run durable on [j]'s medium;
    - [guard = Some c] supervises the result fail-securely;
    - [trace] receives every layer's events through one sink;
    - [jobs] picks the engine pool width for {!batch}.

    The layering is fixed: guard(journal(monitor | interp)). Each layer is
    the exact underlying module — a config with only [policy] set replies
    bit-identically to calling {!Secpol_taint.Dynamic} yourself.

    Every enforcing caller composes its layers here: the CLI's [run] and
    [enforce] (journaled, killed and sharded runs included), and
    [Secpol_server.Engine], where each served session is one {!config}
    and a journaled request adds a {!journal} on its own store medium. So
    one refusal table covers local runs, the CLI and served sessions.

    {1 Refusals}

    {!mechanism} (and so {!run} and {!batch}) raises [Invalid_argument]
    before building anything when the config asks for a combination no
    layer can honour:

    - [shards < 1], or more shards than {!Secpol_engine.Pool.max_jobs};
    - a scripted kill ([journal.kill_at]) together with a [guard]: a dying
      process has no supervisor to retry it;
    - a scripted kill together with [shards > 1]: shard kills belong to
      the distributed chaos sweep;
    - [shards > 1] without a policy, or with a policy that is not
      [allow(J)];
    - [shards > 1] together with [residual]: each shard picks its own
      residual plan;
    - [shards > 1] together with a fault [hook]: use the distributed
      chaos sweep for fault injection;
    - [residual] together with [journal]: a residual taint image would
      not resume into a full monitor;
    - [residual] without a policy: nothing to certify against;
    - [journal] without a policy: the durable runner journals monitored
      runs only.

    {!batch} also refuses a [`Dir] journal with [jobs > 1]: parallel runs
    cannot share one journal directory. At run time, the durable runner
    refuses [snapshot_every < 1] the same way. *)

type journal = {
  media : [ `Media of unit -> Secpol_journal.Media.t | `Dir of string ];
      (** [`Media fresh] journals each run onto the medium [fresh ()]
          (once per shard attempt when sharded, so it must mint a new
          medium per call there); [`Dir d] journals into [d], reused
          across runs — last run wins. The run closes the medium. *)
  snapshot_every : int;
  program_ref : string;  (** how {!resume}'s resolver finds the program *)
  kill_at : int option;
      (** Fault injection: [Some n] stops the run after [n] journaled
          boxes, as if the process died there, and {!mechanism}'s reply
          raises {!Killed}. The medium keeps what was journaled, for
          {!resume}. A run that ends before box [n] replies normally. *)
}

exception Killed of int
(** A run with [journal.kill_at] set was stopped after this many
    journaled boxes. *)

type config = {
  policy : Secpol_core.Policy.t option;
  mode : Secpol_taint.Dynamic.mode;
  fuel : int;
  cost : Secpol_flowgraph.Expr.cost_model;
  hook : Secpol_flowgraph.Hook.t;
      (** fault-injection hook; must be domain-safe if used with
          [jobs > 1] *)
  trace : Secpol_trace.Sink.t;
  guard : Secpol_fault.Guard.config option;
  journal : journal option;
  jobs : int;  (** engine pool width used by {!batch} *)
  residual : bool;
      (** Monitor under the static certifier's residual plan
          ({!Secpol_staticflow.Certifier.residual_plan}): statically clean
          boxes skip their surveillance work, replies stay bit-identical
          to the fully monitored run. The plan is computed once per
          {!mechanism}. *)
  shards : int;
      (** [> 1] splits each run across that many cooperating shard
          enforcers ({!Secpol_dist.Shard}) merged fail-securely by
          {!Secpol_dist.Coordinator}: the policy's disallowed coordinates
          are dealt round-robin, each shard monitors its sub-policy under
          its own guard (the [guard] config, {!Secpol_fault.Guard.default}
          if unset, with per-shard jitter seeds when jittered) and — when
          [journal] is set — its own medium ([`Dir d] becomes
          [d/shard-<i>]; [`Media fresh] is called per shard attempt);
          unjournaled shards run their sub-policy's residual plan. Shards
          execute [jobs] at a time on the engine pool, and every medium
          they opened is closed once the merge is done. On a fault-free
          host the reply is bit-identical to the guarded single-enforcer
          run. *)
  metrics : Secpol_trace.Metrics.t option;
      (** When set, residual runs count into
          ["run/residual/runs"], ["run/residual/watched-boxes"] and
          ["run/residual/skipped-boxes"], and distributed runs into
          ["run/dist/runs"], ["run/dist/rounds"],
          ["run/dist/retransmits"], ["run/dist/lost-shards"] and
          ["run/dist/backoff-steps"]. A registry is single-domain
          mutable state — with [jobs > 1], pass per-worker registries and
          {!Secpol_trace.Metrics.merge} them after the join, or omit. *)
}

val config :
  ?policy:Secpol_core.Policy.t ->
  ?mode:Secpol_taint.Dynamic.mode ->
  ?fuel:int ->
  ?cost:Secpol_flowgraph.Expr.cost_model ->
  ?hook:Secpol_flowgraph.Hook.t ->
  ?trace:Secpol_trace.Sink.t ->
  ?guard:Secpol_fault.Guard.config ->
  ?journal:journal ->
  ?jobs:int ->
  ?residual:bool ->
  ?shards:int ->
  ?metrics:Secpol_trace.Metrics.t ->
  unit ->
  config
(** Defaults: no policy (plain interpretation), [Surveillance],
    {!Secpol_flowgraph.Interp.default_fuel}, [Uniform] cost, no hook,
    null sink, unguarded, unjournaled, [jobs = 1], full (non-residual)
    monitoring, a single enforcer ([shards = 1]), no metrics. *)

val journal_memory : ?snapshot_every:int -> program_ref:string -> unit -> journal
(** A fresh in-memory medium per run ([`Media Media.memory]), no kill;
    [snapshot_every] defaults to
    {!Secpol_journal.Runner.default_snapshot_every}. *)

val journal_dir : ?snapshot_every:int -> program_ref:string -> string -> journal
(** [`Dir dir], no kill. Script a kill with
    [{ (journal_dir ~program_ref dir) with kill_at = Some n }]. *)

val mechanism : config -> Secpol_flowgraph.Graph.t -> Secpol_core.Mechanism.t
(** The configured stack packaged as a protection mechanism. Journaled
    configurations journal once per [respond]; with [journal.kill_at] set,
    a [respond] that reaches the kill raises {!Killed}.
    @raise Invalid_argument on any combination in the refusal table
    above. *)

val run :
  config ->
  Secpol_flowgraph.Graph.t ->
  Secpol_core.Value.t array ->
  Secpol_core.Mechanism.reply
(** [Mechanism.respond (mechanism cfg g)].
    @raise Invalid_argument as {!mechanism} does.
    @raise Killed when a scripted kill strikes. *)

val batch :
  config ->
  Secpol_flowgraph.Graph.t ->
  Secpol_core.Value.t array list ->
  Secpol_core.Mechanism.reply list * Secpol_engine.Pool.stats
(** All inputs through the engine pool ([config.jobs] domains); replies in
    input order — independent of [jobs], like every engine result. With
    [jobs > 1] the trace sink is synchronized (events interleave).
    @raise Invalid_argument as {!mechanism} does, and on a [`Dir] journal
    with [jobs > 1]. *)

val resume :
  config ->
  resolve:
    (Secpol_journal.Runner.header ->
    (Secpol_flowgraph.Graph.t, string) result) ->
  media:Secpol_journal.Media.t ->
  (Secpol_journal.Runner.resumed, Secpol_journal.Runner.failure) result
(** Crash recovery on [media], tracing to [config.trace]. *)

val reply_of_resume :
  (Secpol_journal.Runner.resumed, Secpol_journal.Runner.failure) result ->
  Secpol_core.Mechanism.reply
(** The supervisor's collapse into [E ∪ F]: a successful resume delivers
    its reply, any failure becomes [Λ/recovery]
    ({!Secpol_fault.Guard.reply_of_recovery}). *)
