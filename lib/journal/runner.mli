(** The durable enforcement runner: journaled monitored runs and recovery.

    {!run} drives {!Secpol_taint.Dynamic}'s step machine and commits each
    interpreter box to a {!Media.t} as a framed full-state record, after a
    checkpoint of the initial state and with a fresh checkpoint every
    [snapshot_every] records. None of these writes waits for the disk. The
    verdict frame comes last, followed by the run's one barrier,
    {!Media.sync}: {!run} and {!resume} return only once the verdict and
    every frame before it are durable, so a crash can never lose an
    already-delivered answer. {!resume} rebuilds the run from the last
    intact checkpoint plus the journal suffix and continues it under the
    same monitor; on an intact medium the resumed run is bit-identical
    (response {e and} step count) to the uninterrupted one, and on a
    corrupted medium it returns a typed {!failure} which the fail-secure
    supervisor maps to the violation notice [Λ/recovery] — degraded
    recovery lands in [F], never in a disallowed grant. A verdict already
    on the medium is re-delivered as found, with no write and no barrier.
    {!Media} lists what a crash leaves behind. *)

type header = {
  program_ref : string;  (** how to find the program again, e.g. a corpus entry name *)
  graph_name : string;
  graph_hash : string;  (** MD5 digest of the printed graph; checked on resume *)
  arity : int;
  inputs : Secpol_core.Value.t array;
  mode : Secpol_taint.Dynamic.mode;
  allowed : Secpol_core.Iset.t;
  fuel : int;
  cost : Secpol_flowgraph.Expr.cost_model;
  chatty : bool;
  snapshot_every : int;
  run_nonce : int;
      (** Fresh per {!run}; stamped into every journal record the run
          appends. Replay skips records with a foreign nonce — strays from
          a previous run of a reused medium must never be adopted (a stale
          verdict under a new header would be fail-open). *)
}
(** Everything needed to re-create the monitor configuration and restart
    the run from scratch; written into every checkpoint. *)

val graph_hash : Secpol_flowgraph.Graph.t -> string

val config_of_header :
  ?emit:Secpol_flowgraph.Emit.t -> header -> Secpol_taint.Dynamic.config
(** The journaled configuration with {!Secpol_flowgraph.Hook.none} — hooks
    are process-local and cannot be serialized. [emit] (default
    {!Secpol_flowgraph.Emit.none}) re-attaches a process-local trace
    emitter to the rebuilt configuration, for the same reason. *)

val default_snapshot_every : int

type outcome =
  | Completed of Secpol_core.Mechanism.reply
  | Killed of { at_box : int; steps : int }
      (** Only with [?kill_at]: the run stopped after journaling [at_box]
          boxes, simulating process death for the crash sweep; [steps] is
          the interpreter's charged-step count at that moment. *)

val run :
  ?kill_at:int ->
  ?snapshot_every:int ->
  ?sink:Secpol_trace.Sink.t ->
  media:Media.t ->
  program_ref:string ->
  Secpol_taint.Dynamic.config ->
  Secpol_flowgraph.Graph.t ->
  Secpol_core.Value.t array ->
  outcome
(** Run the monitored interpreter, journaling every committed box.
    [kill_at n] aborts after [n] journaled boxes (fault injection), before
    any barrier; [snapshot_every] bounds the records between checkpoints.
    [sink] (default null) receives the journal lifecycle: the run header,
    one event per checkpoint after the first, and the verdict. Per-box trace
    events flow through the configuration's own [emit] channel, not the
    sink.
    @raise Invalid_argument if [snapshot_every < 1]. *)

type failure =
  | No_journal  (** the medium has no checkpoint at all *)
  | Decode of Codec.decode_error
      (** corrupted checkpoint, journal, or state image — the journal is
          untrusted and the run degrades to [Λ/recovery] *)
  | Program_mismatch of string
      (** the resolver's graph does not hash to the journaled one *)

val failure_message : failure -> string

type resumed = {
  header : header;
  replayed : int;  (** state records adopted from the journal suffix *)
  resumed_steps : int;  (** charged steps at the point recovery took over *)
  torn_bytes : int;  (** torn-tail bytes dropped at the journal's EOF *)
  was_complete : bool;
      (** the journal already held the verdict; nothing was re-executed *)
  reply : Secpol_core.Mechanism.reply;
}

val resume :
  ?kill_at:int ->
  ?emit:Secpol_flowgraph.Emit.t ->
  ?sink:Secpol_trace.Sink.t ->
  resolve:(header -> (Secpol_flowgraph.Graph.t, string) result) ->
  media:Media.t ->
  unit ->
  (resumed, failure) result
(** Recover the run on [media]: load the last checkpoint, replay the
    journal suffix (adopting records by strictly increasing step count,
    which makes replay idempotent and skips stale pre-checkpoint records;
    records whose run nonce differs from the checkpoint header's are strays
    from a previous run of a reused medium and are skipped wholesale,
    verdicts included), then either re-deliver the journaled verdict or
    continue executing — journaling as it goes, so a crash during recovery
    also recovers, and syncing after the verdict as {!run} does.
    [resolve] maps the journaled {!header} back to a graph; a digest or
    arity mismatch is a {!Program_mismatch}. [sink] (default null)
    receives the recovery lifecycle — a replay-skip event per rejected
    journal record, a resume event at the point recovery takes over, then
    checkpoints and verdict as in {!run}; [emit] is threaded into the
    rebuilt configuration ({!config_of_header}) so the re-executed suffix
    is traced like a live run. *)
