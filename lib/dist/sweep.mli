(** Distributed chaos sweep: partition/kill/network-fault hunting over
    the corpus.

    For every paper program, every [allow(J)] policy over its inputs and
    every seed, the sweep generates a distributed fault {!Plan} — shard
    kills, injected monitor faults, a lossy {!Net}, coordinator timeouts
    — splits the run across the plan's shards and merges through
    {!Coordinator.enforce}. Shards alternate between residual and
    journaled execution, so kills exercise both the partition path and
    journal-recovery retransmission. The invariants, gated by
    [fail_open = 0] and [clean_mismatch = 0]:

    - a merged grant equals the clean monitor's grant on that input,
      whatever was killed, dropped, duplicated, reordered, corrupted or
      timed out;
    - a run in which no fault fired is bit-identical — response and step
      count — to the guarded single enforcer; a fault-free pass checks
      this at shard counts 1, 2, 3 and 5.

    Counters: [runs], [plans], [grants], [recovered] (grants after faults
    struck), [monitor_denials], [fault_denials], [partitions],
    [fail_open], [clean_mismatch], [shard_kills], [monitor_faults],
    [timeouts], [retransmits], [journal_resumes], [lost_shards], the
    [net_*] message faults, [engine_tasks]; the [merge_rounds] and
    [backoff_steps] histograms. *)

val run :
  ?entries:Secpol_corpus.Paper_programs.entry list ->
  ?mode:Secpol_taint.Dynamic.mode ->
  ?seeds:int ->
  ?base_seed:int ->
  ?inputs_per_case:int ->
  ?sink:Secpol_trace.Sink.t ->
  ?jobs:int ->
  unit ->
  Secpol_fault.Harness.report
(** Defaults: the whole corpus, [Surveillance] monitors, 30 seeds from
    base seed 0, up to 3 inputs per (entry, policy, plan) spread evenly
    over the entry's input space, [jobs = 1]. One task per (entry,
    policy); seeded plans run at 2–4 shards ([2 + seed mod 3]). [sink]
    receives every distributed lifecycle event of the sweep
    (synchronized when [jobs > 1]). *)
