(** Dynamic enforcement: the surveillance mechanism and its relatives.

    Section 3 of the paper associates with every variable [v] a surveillance
    variable [v̄] — the set of input indices that may have affected [v]'s
    current value — and with the program counter a surveillance variable
    [C̄]. This module implements that bookkeeping directly inside the
    interpreter (the equivalent source-to-source construction is
    {!Instrument}; a test asserts they agree pointwise).

    Four mechanisms share the machinery:

    - {b High-water mark} ([High_water]): surveillance variables only ever
      grow; an assignment adds the right-hand side's taint to the target's.
      The paper's baseline; it cannot "forget".
    - {b Surveillance} ([Surveillance], the paper's [M]): an assignment
      {e replaces} the target's taint by the right-hand side's taint joined
      with [C̄]. [C̄] grows at every decision and never shrinks. Sound when
      running time is not observable (Theorem 3); at least as complete as
      high-water, sometimes strictly more (it forgets).
    - {b Timed surveillance} ([Timed], the paper's [M']): like surveillance
      but the violation notice is issued {e at the decision box}, the moment
      a disallowed variable is about to be tested. Sound even when running
      time is observable (Theorem 3') — the abort happens before the secret
      can influence control flow, hence before it can influence timing.
    - {b Scoped surveillance} ([Scoped]): like surveillance, but [C̄] is
      restored to its previous value at the immediate postdominator of each
      decision — the "recognize single-entry single-exit constructs"
      refinement of Section 4 applied to the program counter. Strictly more
      complete on programs that compute after a tainted branch rejoins, and
      {e deliberately included although unsound in general}: whether it
      emits a violation can itself depend on the tested secret (the paper's
      "negative inference"). The experiment suite exhibits the
      counterexample; see EXPERIMENTS.md. *)

module Graph = Secpol_flowgraph.Graph

type mode = High_water | Surveillance | Scoped | Timed

val mode_name : mode -> string

val all_modes : mode list

type config = {
  mode : mode;
  allowed : Secpol_core.Iset.t;  (** the policy [allow(J)] being enforced *)
  fuel : int;
      (** Explicit step budget for each monitored run — the watchdog that
          makes the monitor a total function. Defaults to
          {!Secpol_flowgraph.Interp.default_fuel} (100_000 steps); there is
          no unbounded stepping. Exhaustion yields the violation notice
          {!fuel_notice}, never a hang or an exception. *)
  cost : Secpol_flowgraph.Expr.cost_model;
      (** Theorem 3' assumes [Uniform]; under [Operand_sized] even the
          timed mechanism leaks through granted-run durations — the side
          condition the paper states, made measurable (experiment E12) *)
  chatty_notices : bool;
      (** When true, violation notices name the offending surveillance
          variable's value — the "helpful" diagnostics of Example 4's
          Denning/Rotenberg mechanisms. The taint set is path-dependent,
          the path depends on disallowed values, so distinct notices can
          split a policy class: the tests exhibit the resulting
          unsoundness. Default false (the single notice Λ). *)
  hook : Secpol_flowgraph.Hook.t;
      (** Fault-injection point, consulted once per executed box (default
          {!Secpol_flowgraph.Hook.none}, which leaves runs bit-identical).
          An injected [Crash] becomes a [Failed] reply; [Starve] trips the
          fuel watchdog; [Corrupt] flips a bit of one surveillance
          variable's primary copy — the monitor keeps its taint state in
          two copies and cross-checks them before every read, so the
          damage surfaces as a [Failed] reply instead of silently
          steering enforcement. *)
  emit : Secpol_flowgraph.Emit.t;
      (** Trace-emission point (default {!Secpol_flowgraph.Emit.none},
          which leaves runs bit-identical — the same contract as [hook]).
          A sink receives one [box] call per committed box, a [taint] call
          for every surveillance-variable update, a [pc] call whenever the
          control-context taint changes, and a [condemn] call at the box
          that issues a Λ notice — enough to reconstruct, offline, the
          taint chain from input coordinate to condemning box
          ([Secpol_trace.Provenance]). *)
}

val config :
  ?fuel:int ->
  ?cost:Secpol_flowgraph.Expr.cost_model ->
  ?chatty_notices:bool ->
  ?hook:Secpol_flowgraph.Hook.t ->
  ?emit:Secpol_flowgraph.Emit.t ->
  mode:mode ->
  Secpol_core.Policy.t ->
  config
(** Builds a configuration from an [allow(...)] policy.
    @raise Invalid_argument on a general filter policy: the surveillance
    construction is defined for policies of the allow form. *)

val run :
  config -> Graph.t -> Secpol_core.Value.t array -> Secpol_core.Mechanism.reply
(** One monitored execution. Steps follow the same cost model as the plain
    interpreter (one per assignment or decision box), so timing-channel
    experiments can compare monitored and unmonitored runs.

    [run] is total: a wrong-arity input vector, a non-integer input, a
    runtime fault of the program or an injected fault of the monitor all
    come back as [Failed] (or [Denied]) replies — it never raises. *)

(** Surveillance-work counters from a residual run: how many committed
    assignment/decision boxes still did taint bookkeeping ([watched_boxes])
    versus how many the static plan released ([skipped_boxes]). Halt boxes
    are not counted — their check always runs. *)
type residual_stats = { watched_boxes : int; skipped_boxes : int }

val run_residual :
  config ->
  watch:bool array ->
  Graph.t ->
  Secpol_core.Value.t array ->
  Secpol_core.Mechanism.reply * residual_stats
(** One monitored execution under a static watch plan
    ({!Secpol_staticflow.Certifier.residual_plan}): boxes with
    [watch.(node) = false] skip their surveillance work — an unwatched
    assignment records the empty taint (both redundant copies), an
    unwatched decision leaves the control-context taint untouched and
    performs no timed check. Because the plan only releases boxes whose
    taint contribution provably has no disallowed part (or feeds no check),
    the reply is {e bit-identical} to {!run}'s on every input: same
    response, same notice, same step count. Fuel, fault hooks, the
    redundant-store consistency check and halt-box checks run unchanged;
    scoped-mode restore frames are pushed at every decision, watched or
    not. Trace events still fire but carry residual taint values, so
    provenance from a residual run is partial by design.

    @raise Invalid_argument if [cfg.chatty_notices] is set (chatty notices
    quote taint values the residual monitor does not maintain) or if the
    plan's length differs from the graph's node count. *)

(** {2 The step machine}

    [run] folded open: a prepared {!machine} (configuration plus the
    per-graph analyses), an explicit {!state} carried between boxes, and a
    {!step} function that commits exactly one assignment, decision or halt
    box — one hook consultation, one fuel check. [run] is definitionally
    [start] followed by {!run_to_end}, and is bit-identical to the
    historical recursive interpreter.

    The machine exists for durability: between steps the whole monitored
    run is a first-class value. {!image} flattens it to integers (taint
    sets as bitmasks, shadow copies and exact array lengths included) so
    [Secpol_journal] can checkpoint and journal it; {!of_image} validates
    and rebuilds a state, after which {!run_to_end} continues the run as if
    it had never stopped. *)

type machine

type state

type step_result = Step of state | Final of Secpol_core.Mechanism.reply

val prepare : config -> Graph.t -> machine
(** Fix the per-graph analyses (immediate postdominators for [Scoped]
    mode); pure in the graph, reusable across runs. *)

val machine_config : machine -> config

val machine_graph : machine -> Graph.t

val start :
  machine -> Secpol_core.Value.t array -> (state, Secpol_core.Mechanism.reply) result
(** The state poised at the first real box (the start box costs nothing and
    is crossed here). [Error] carries the [Failed] reply for a wrong-arity
    or non-integer input vector — the same reply {!run} would return. *)

val step : machine -> state -> step_result
(** Commit one box. [Step] is the state after the box; [Final] is the
    run's reply (grant, violation notice, or fault). The store and taint
    arrays are mutated in place — a [state] is a cursor into a live run,
    not a persistent value; use {!image} to take a durable copy. Never
    raises: runtime faults of the program become [Final (Failed _)]. *)

val run_to_end : machine -> state -> Secpol_core.Mechanism.reply
(** Fold {!step} to the reply. *)

val steps_of : state -> int
(** The step counter (fuel consumed so far). *)

val node_of : state -> int
(** The node about to execute. *)

(** A flat integer-only copy of a {!state}: variable store, both copies of
    the redundant taint store (masks), program-counter taint, scoped-mode
    frames, node and step counter. Exact array lengths are preserved —
    grow-on-demand sizing is part of deterministic replay. *)
type image = {
  im_node : int;
  im_steps : int;
  im_inputs : int array;
  im_regs : int array;
  im_out : int;
  im_taint_inputs : int array;
  im_taint_regs : int array;
  im_taint_out : int;
  im_shadow_inputs : int array;
  im_shadow_regs : int array;
  im_shadow_out : int;
  im_pc : int;
  im_frames : (int * int) list;
}

val image : state -> image
(** A durable copy; shares nothing with the live state. *)

val of_image : Graph.t -> image -> (state, string) result
(** Validate an image against the graph (node range, arity, array lengths,
    non-negative masks, frame targets) and rebuild the state. [Error]
    explains the first inconsistency — a decoded-but-nonsensical image must
    be a typed failure, never a crash or a silently wrong resume. *)

val image_equal : image -> image -> bool

val mechanism : config -> Graph.t -> Secpol_core.Mechanism.t
(** Package as a protection mechanism for the flowchart's program. *)

val notice : string
(** The violation notice Λ used by all four mechanisms. *)

val fuel_notice : string
(** The distinguished violation notice ("Λ/fuel") issued when a monitored
    run exhausts its step budget. Jones–Lipton mechanisms map every input
    into [E ∪ F]; a monitor that hangs would be a third outcome, so the
    watchdog trip is itself an element of [F]. *)

val corruption_fault : string
(** The [Failed] message reporting that the redundant surveillance store's
    two copies disagreed — i.e. injected state corruption was detected
    before it could steer enforcement. *)

val out_taint :
  ?fuel:int ->
  Graph.t ->
  Secpol_core.Value.t array ->
  (Secpol_core.Iset.t, string) result
(** Observer, not enforcer: run once on [inputs] tracking taint with
    [Scoped] semantics (the program-counter taint is restored at each
    decision's immediate postdominator — the run-time counterpart of the
    static analysis's bounded decision regions) and return the taint the
    halt box would check, enforcing nothing. [Error] on divergence, fault,
    or a [Halt_violation] box.

    The static analysis ranges over {e all} paths through each region while
    a run takes one, so for every terminating run the static out-taint of
    {!Secpol_staticflow.Dataflow} is a superset of this set — the soundness
    inclusion the test suite checks corpus-wide. (The [Surveillance] mode's
    monotone pc would {e not} satisfy that inclusion: its pc keeps taint
    from branches the static analysis already closed at the join.) *)
