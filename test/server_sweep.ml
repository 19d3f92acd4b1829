(* The issue's server acceptance gate, wired into `dune runtest`:
   corpus × allow(J) policies × ≥1000 seeded server plans mixing client
   disconnects, slowloris frames, malformed/truncated/foreign-version
   frames, overload bursts above queue capacity and kill/restart cycles.
   Zero fail-open: every shed, expired or interrupted request is answered
   with a violation notice in F or recovered bit-identically via journal
   resume — never a foreign grant, never silence. `make serve-chaos`
   drives the same sweep through the CLI. *)

let () =
  Util.sweep_gate ~min_plans:1000
    (Secpol_server.Chaos.run ~seeds:30 ())
    ~zero:
      [
        ("fail-open replies", "fail_open");
        ("clean mismatches", "clean_mismatch");
        ("unanswered requests", "unanswered");
        ("refusals missed", "proto_misses");
      ]
    ~nonzero:
      [
        ("grants", "grants");
        ("monitor denials", "monitor_denials");
        ("overload denials", "overload_denials");
        ("recovery denials", "recovery_denials");
        ("connections refused", "proto_refusals");
        ("client disconnects", "disconnects");
        ("slowloris frames", "slowloris");
        ("malformed frames", "malformed");
        ("kills armed", "kills");
        ("restarts", "restarts");
        ("resume requests", "resumes");
        ("burst requests", "burst_requests");
      ]
