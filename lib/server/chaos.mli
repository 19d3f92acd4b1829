(** The server chaos sweep: seeded client misbehaviour and process death
    against the enforcement service.

    One task per (corpus entry, policy): one fault-free plan plus [seeds]
    generated {!Secpol_fault.Server_plan}s, each booting a fresh
    {!Engine} on a memory {!Store} with a small admission queue and a
    virtual clock. The invariants, gated by [fail_open = 0],
    [clean_mismatch = 0], [unanswered = 0] and [proto_misses = 0]:

    - clean requests are answered bit-identically to the guarded single
      enforcer;
    - disconnects, slowloris stalls and malformed frames cost the sender
      its connection and nothing else, and are refused;
    - a killed request resumes after the restart bit-identically when
      journaled, as [Λ/recovery] otherwise;
    - burst requests above queue capacity get the clean verdict or
      [Λ/overload];
    - every tracked request is answered in [E ∪ F] before the drain ends:
      no foreign grant, no [Hung]/[Failed], no notice outside [F], no
      silence.

    Counters: [plans], [requests], [grants], [monitor_denials],
    [overload_denials], [recovery_denials], [fault_denials], [fail_open],
    [clean_mismatch], [unanswered], [proto_refusals], [proto_misses],
    [disconnects], [slowloris], [malformed], [kills], [kill_survivals],
    [restarts], [resumes], [burst_requests], [engine_tasks], then the
    engines' own [server/*] series. *)

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
(** Defaults: the whole corpus, surveillance mode, 30 seeds from 0, 3
    inputs per case, 1 job — 1178 plans over 38 (entry, policy) tasks. *)
