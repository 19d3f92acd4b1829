(** One front door for exhaustive analysis.

    What [Secpol.Run] does for monitored execution, [Analyze] does for the
    measuring apparatus: the soundness check and the maximal-mechanism
    yardstick (paper Theorem 2) answer to one {!config} record. Behind it
    there are exactly two algorithms:

    - [algo = Refine] (the default) runs partition refinement over the
      I-kernel: group the space by policy image
      ({!Secpol_core.Refine.partition}), then hand the {!Pool} one task
      per class, each refined by {!Secpol_core.Refine.refine_class} — run
      the representative, then members until the first split. Results
      merge in class-creation order, so verdicts, witnesses, class tables
      and tallies are {b bit-identical} to the oracle at any [jobs].
    - [algo = Brute] is the sequential oracle: {!Secpol_core.Maximal.table}
      and {!Secpol_core.Soundness.check}, called directly on the calling
      domain whatever [jobs] is. It is the differential reference the
      refined path is gated against (see [test/test_refine.ml] and the
      bench gate), reachable from the CLI as [secpol measure --algo brute].

    [jobs] spreads the refined path only, as [cache] applies only to it. *)

type algo = Refine | Brute

val algo_name : algo -> string

type config = {
  view : Secpol_core.Program.view;
  space : Secpol_core.Space.t;
  jobs : int;  (** engine pool width (refined path only) *)
  cache : Cache.t option;
      (** shares raw-Q runs (refined path only); the cache keys on the
          program's {e name}, so never show one cache two different
          programs under the same name *)
  algo : algo;
  identify_violations : bool;
      (** collapse violation notices before comparing observables
          ({!Secpol_core.Soundness.config}) *)
}

val config :
  ?view:Secpol_core.Program.view ->
  ?jobs:int ->
  ?cache:Cache.t ->
  ?algo:algo ->
  ?identify_violations:bool ->
  Secpol_core.Space.t ->
  config
(** Defaults: [`Value] view, [jobs = 1], no cache, [Refine], violation
    notices kept distinct. *)

type telemetry = {
  refine : Secpol_core.Refine.stats option;
      (** refinement savings; [None] on the brute path and for
          {!soundness} (whose refined driver reports pool stats only) *)
  pool : Pool.stats;
}

val soundness :
  config ->
  Secpol_core.Policy.t ->
  Secpol_core.Mechanism.t ->
  Secpol_core.Soundness.verdict * telemetry
(** The verdict — witness included — of [Soundness.check], whatever the
    algorithm or [jobs]. The refined path never probes a singleton class
    and stops each class at its first split; per class, the candidate is
    its earliest mismatch, and the globally earliest candidate is the
    witness the sequential scan reports. *)

val table :
  config ->
  Secpol_core.Policy.t ->
  Secpol_core.Program.t ->
  (Secpol_core.Value.t, Secpol_core.Maximal.entry) Hashtbl.t * telemetry
(** The maximal mechanism's class table: the keys and entries of
    [Maximal.table], whatever the algorithm or [jobs]. What the
    fingerprint gates ({!Secpol_core.Refine.table_fingerprint}) compare. *)

val maximal :
  config ->
  Secpol_core.Policy.t ->
  Secpol_core.Program.t ->
  Secpol_core.Mechanism.t * telemetry
(** The maximal sound mechanism, bit-identical to [Maximal.build]. *)

val maximal_ratio :
  config ->
  Secpol_core.Policy.t ->
  Secpol_core.Program.t ->
  float * telemetry
(** The completeness ratio of the maximal mechanism itself — the paper's
    yardstick number. On the refined path this is read directly off the
    class table ({!Secpol_core.Refine.grant_count_of_table}): a class
    grants iff it serves a proper value, so no mechanism is ever built or
    run. Equal to [Completeness.ratio (Maximal.build ...)] under either
    view. *)
