(* The issue's acceptance gate for durable enforcement, wired into `dune
   runtest`: the crash-recovery sweep over every corpus program, every
   allow(J) policy over its inputs, and 50 crash points per case, with
   seeded media tampering (torn tails, dropped records, flipped bits).
   Every resume must be bit-identical to the uninterrupted run or degrade
   to Λ/recovery — zero divergent verdicts, zero fail-open grants, zero
   journaled-vs-plain mismatches. `make chaos-crash` drives the same sweep
   through the CLI. *)

let () =
  Util.sweep_gate
    (Secpol_fault.Crash.run ~crash_points:50 ())
    ~zero:
      [
        ("divergent resumes", "divergent");
        ("fail-open resumes", "fail_open");
        ("journaled-run mismatches", "journal_mismatch");
      ]
    ~nonzero:
      [
        ("bit-identical resumes", "identical");
        ("complete replays", "complete_replays");
        ("tampering survived", "tamper_survived");
        ("recovery notices", "recovery_notices");
      ]
