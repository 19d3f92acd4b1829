(* The issue's acceptance gate, wired into `dune runtest`: a differential
   chaos sweep over every corpus program, every allow(J) policy over its
   inputs, and 100 seeded fault plans each. Every injected fault must
   surface as a violation notice (Notice or Degraded) — zero fail-open
   outcomes — and runs whose fault points never fire must be bit-identical
   to the unguarded clean monitor. `make chaos` drives the same sweep
   through the CLI. *)

let () =
  Util.sweep_gate
    (Secpol_fault.Sweep.run ~seeds:100 ())
    ~zero:
      [
        ("fail-open outcomes", "fail_open");
        ("clean-run mismatches", "clean_mismatch");
      ]
    ~nonzero:
      [
        ("faults absorbed (degraded)", "degraded");
        ("unguarded crashes contrast", "unguarded_failures");
        ("recovered grants", "recovered");
      ]
