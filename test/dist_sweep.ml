(* The issue's distributed acceptance gate, wired into `dune runtest`:
   corpus × allow(J) policies × ≥1000 seeded plans mixing shard kills,
   injected monitor faults, message drop/delay/duplicate/reorder/corrupt
   and coordinator timeouts. Zero fail-open merges — no grant the clean
   single enforcer would not have issued — and every undisturbed run
   bit-identical to the guarded single enforcer, with a separate
   fault-free pass at shard counts 1, 2, 3 and 5. `make chaos-dist`
   drives the same sweep through the CLI. *)

let () =
  Util.sweep_gate ~min_plans:1000
    (Secpol_dist.Sweep.run ~seeds:30 ())
    ~zero:
      [
        ("fail-open merges", "fail_open");
        ("clean-run mismatches", "clean_mismatch");
      ]
    ~nonzero:
      [
        ("grants", "grants");
        ("recovered grants", "recovered");
        ("monitor denials", "monitor_denials");
        ("partitions", "partitions");
        ("shard kills", "shard_kills");
        ("monitor-faulty shards", "monitor_faults");
        ("coordinator timeouts", "timeouts");
        ("retransmissions", "retransmits");
        ("journal recoveries", "journal_resumes");
        ("shards lost", "lost_shards");
        ("messages dropped", "net_dropped");
        ("messages delayed", "net_delayed");
        ("messages duplicated", "net_duplicated");
        ("messages reordered", "net_reordered");
        ("messages corrupted", "net_corrupted");
      ]
