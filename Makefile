# Convenience targets; everything is plain dune underneath.

all:
	dune build @all

test:
	dune runtest

test-force:
	dune runtest --force --no-buffer

# Lint / certify every example program and fail on an unexpected verdict.
# Both targets (and test/lint_corpus.ml, test/certify_corpus.ml inside
# `dune runtest`) read the same expectation table,
# examples/programs/corpus.manifest, so adding an example cannot silently
# skip one gate: a file missing from the manifest — or a manifest line
# with no file on disk — fails the sweep. $(1) is the CLI subcommand,
# $(2) the manifest verdict column it answers for.
MANIFEST := examples/programs/corpus.manifest
define corpus_sweep
	@dune build bin/secpol_cli.exe
	@status=0; \
	for f in examples/programs/*.spl; do \
	  b=$$(basename $$f); \
	  verdict=$$(awk -v f="$$b" '!/^\#/ && $$1 == f { print $$$(2) }' $(MANIFEST)); \
	  case "$$verdict" in \
	    proved) want=0 ;; \
	    refuted) want=1 ;; \
	    *) echo "UNEXPECTED $$f: add it to $(MANIFEST)"; status=1; continue ;; \
	  esac; \
	  ./_build/default/bin/secpol_cli.exe $(1) $$f > /dev/null 2>&1; code=$$?; \
	  if [ $$code -ne $$want ]; then \
	    echo "FAIL $$f: exit $$code, want $$want ($$verdict)"; status=1; \
	  else \
	    echo "ok   $$f (exit $$code, $$verdict)"; \
	  fi; \
	done; \
	for b in $$(awk '!/^\#/ && NF { print $$1 }' $(MANIFEST)); do \
	  if [ ! -f "examples/programs/$$b" ]; then \
	    echo "MISSING $$b: listed in $(MANIFEST) but not on disk"; status=1; \
	  fi; \
	done; \
	exit $$status
endef

lint-corpus:
	$(call corpus_sweep,lint,2)

certify-corpus:
	$(call corpus_sweep,certify,3)

# Differential fault-injection sweep over the whole corpus: every seeded
# fault must land in a violation notice, never in a fail-open grant. The
# same sweep runs inside `dune runtest` (test/chaos_sweep.ml); this target
# drives it through the CLI with the full seed count and text report.
chaos:
	dune exec bin/secpol_cli.exe -- chaos --seeds 100

# Crash-recovery sweep: kill journaled monitored runs at every crash point,
# tamper with the media, and verify every resume is bit-identical to the
# uninterrupted run or degrades to the violation notice Λ/recovery. The
# same sweep runs inside `dune runtest` (test/crash_sweep.ml).
chaos-crash:
	dune exec bin/secpol_cli.exe -- chaos --crash --crash-points 50

# Distributed chaos sweep: split every run across cooperating shard
# enforcers under seeded shard-kill / network-fault / coordinator-timeout
# plans, and verify no merge ever fail-opens, with undisturbed runs
# bit-identical to the guarded single enforcer. The same sweep runs inside
# `dune runtest` (test/dist_sweep.ml).
chaos-dist:
	dune exec bin/secpol_cli.exe -- chaos --dist --seeds 30

# Enforcement-service chaos sweep: seeded client misbehaviour
# (disconnects, slowloris stalls, malformed frames, overload bursts) and
# process kills mid-request against the service engine. Every tracked
# request must be answered in E ∪ F — the clean verdict or a violation
# notice, Λ/overload under shedding, Λ/recovery after an unrecoverable
# kill — never a fail-open grant, never silence. The same sweep runs
# inside `dune runtest` (test/server_sweep.ml).
serve-chaos:
	dune exec bin/secpol_cli.exe -- chaos --server --seeds 100

# All four sweeps through the engine pool at 4 domains. Reports are
# promised byte-identical to the sequential ones; the pool's scheduling
# telemetry (steals, idle probes) lands on stderr.
chaos-par:
	dune exec bin/secpol_cli.exe -- chaos --seeds 100 --jobs 4
	dune exec bin/secpol_cli.exe -- chaos --crash --crash-points 50 --jobs 4
	dune exec bin/secpol_cli.exe -- chaos --dist --seeds 30 --jobs 4
	dune exec bin/secpol_cli.exe -- chaos --server --seeds 100 --jobs 4

# Refined-vs-brute differential sweep: Secpol.Analyze's refined path (the
# default, `secpol measure --algo refine`) must reproduce the brute-force
# oracle (Maximal, Soundness) bit-for-bit — class tables under both
# observables, mechanisms, grant tallies, soundness verdicts and witnesses —
# over the corpus, random programs and adversarial spaces, at jobs 1 and 4.
# The same suite runs inside `dune runtest` (test/test_refine.ml).
refine-diff:
	dune exec test/test_refine.exe

# Regenerates experiments_output.txt (gitignored — it is derived output;
# EXPERIMENTS.md narrates the numbers).
experiments:
	dune exec bin/experiments.exe | tee experiments_output.txt

bench:
	dune exec bench/main.exe

# Benchmarks plus a machine-readable BENCH_secpol.json (series -> ns/run).
bench-json:
	dune exec bench/main.exe -- --json

examples:
	dune exec examples/quickstart.exe
	dune exec examples/payroll_audit.exe
	dune exec examples/password_attack.exe
	dune exec examples/timing_channel.exe
	dune exec examples/certify_pipeline.exe
	dune exec examples/file_enforcement.exe
	dune exec examples/database_session.exe

doc:
	# requires odoc (opam install odoc)
	dune build @doc

clean:
	dune clean

.PHONY: all test test-force lint-corpus certify-corpus chaos chaos-crash chaos-dist serve-chaos chaos-par refine-diff experiments bench bench-json examples doc clean
