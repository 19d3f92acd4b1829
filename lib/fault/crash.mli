(** Crash-recovery chaos sweep: differential verification of the durable
    runner ({!Secpol_journal.Runner}).

    For every corpus entry, every [allow(J)] policy over its inputs and a
    spread of inputs, the sweep runs the journaled monitor, kills it at
    every crash point [k < crash_points], and resumes from the medium. The
    invariants, gated by [divergent = 0], [fail_open = 0] and
    [journal_mismatch = 0]:

    - on pristine media, and on damage a real crash can cause (torn
      tails, lost journal suffixes), the resume is bit-identical —
      response and step count — to the uninterrupted run;
    - on damage a crash cannot cause (flipped bits), recovery still
      reproduces the run or refuses with a typed error that
      {!Guard.reply_of_recovery} maps to [Λ/recovery ∈ F] — never a
      divergent verdict, never a grant the clean monitor did not issue.

    Counters: [cases], [crashes] (kill/resume cycles), [identical],
    [complete_replays] (resumes re-delivering a journaled verdict),
    [recovery_notices], [tamper_survived], [divergent], [fail_open],
    [journal_mismatch] (journaled baseline vs plain monitor),
    [engine_tasks]; the [replayed_records] histogram holds the records
    each successful resume adopted. Tamper randomness comes from
    {!Plan.Rng} seeded by each case's coordinates, so a failing sweep
    replays bit-for-bit from [base_seed]. *)

val default_fuel : int
(** 2000 — enough for every terminating corpus run, small enough that the
    diverging entries journal bounded records before [Λ/fuel]. *)

val default_snapshot_every : int
(** 8 — low, so the sweep exercises many snapshot/journal-reset boundaries,
    including crashes landing between them. *)

val run :
  ?entries:Secpol_corpus.Paper_programs.entry list ->
  ?mode:Secpol_taint.Dynamic.mode ->
  ?crash_points:int ->
  ?base_seed:int ->
  ?fuel:int ->
  ?snapshot_every:int ->
  ?inputs_per_case:int ->
  ?sink:Secpol_trace.Sink.t ->
  ?jobs:int ->
  unit ->
  Harness.report
(** Defaults: the whole corpus, [Surveillance] monitors, 50 crash points,
    base seed 0, {!default_fuel}, {!default_snapshot_every}, 4 inputs
    spread across each entry's space, [jobs = 1]. One task per (entry,
    policy, input) case. [sink] (default null) receives the journal
    lifecycle events of every baseline run and resume; with [jobs > 1] it
    is synchronized and interleaved. *)
