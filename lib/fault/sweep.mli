(** Differential chaos sweep: fail-open hunting over the whole corpus.

    For every paper program, every [allow(J)] policy over its inputs and
    every seed, the surveillance monitor runs under the {!Guard} with a
    seeded fault {!Plan} injected, and each reply is compared with the
    clean monitor's on the same input. The invariants, gated by
    [fail_open = 0] and [clean_mismatch = 0]:

    - a guarded grant equals the clean monitor's grant on that input;
    - a run whose fault points never fired, and the guard with no
      injector at all, are bit-identical (response and step count) to the
      clean run;
    - everything else surfaces as a violation notice, never as a raw
      crash or hang.

    Counters: [runs] (guarded faulty runs), [plans], [grants],
    [recovered] (grants after a fault fired), [notices], [degraded],
    [fail_open], [clean_mismatch], [unguarded_failures] (raw
    [Failed]/[Hung] replies of the same faulty monitor without the
    guard), [engine_tasks], and [cache_hits]/[cache_misses] of the clean
    baselines; the [guard_steps] histogram holds steps per guarded run. *)

val run :
  ?entries:Secpol_corpus.Paper_programs.entry list ->
  ?mode:Secpol_taint.Dynamic.mode ->
  ?seeds:int ->
  ?base_seed:int ->
  ?horizon:int ->
  ?retries:int ->
  ?sink:Secpol_trace.Sink.t ->
  ?jobs:int ->
  unit ->
  Harness.report
(** Defaults: the whole corpus, [Surveillance] monitors, 100 seeds from
    base seed 0, fault-step horizon 24, 2 retries, [jobs = 1]. One task
    per (entry, policy, chunk of 25 seeds). [sink] (default null)
    receives the {!Guard}'s retry/degradation events; with [jobs > 1] it
    is wrapped with {!Secpol_trace.Sink.synchronized} and events
    interleave across tasks. Clean baselines are fetched through the
    engine's exact-key verdict cache; faulty runs never touch it. *)
