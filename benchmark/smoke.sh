#!/bin/sh
# Smoke test of the benchmark harness, run by `dune runtest`: every
# workload with short phases and every oracle check on, then one run
# whose oracle is falsified on purpose, which must fail and leave no
# daemon, socket or store behind.
#   sh smoke.sh MAIN_EXE SECPOL_CLI_EXE
set -u
main=$1
cli=$2
out=smoke-out
log=smoke.log
fail() {
  echo "benchmark smoke: $*" >&2
  cat "$log" >&2
  rm -rf "$out" "$log"
  exit 1
}
# Run the benchmark; succeed only if it exits 0 and its last line is a
# correct result containing $1.
check() {
  want=$1
  shift
  "$main" "$@" --daemon "$cli" --out "$out" >"$log" 2>&1 || fail "$* exited non-zero"
  case "$(tail -n 1 "$log")" in
  '{"correct": true,'*"$want"*) ;;
  *) fail "$*: no correct result" ;;
  esac
}
rm -rf "$out" "$log"
for w in hot-cache cold-monitor durable-journal yardstick; do
  check '"rps"' --workload "$w" --seed 1 --seconds 1 --preseed 600
done
check '"daemon.us_per_req"' --workload hot-cache --seconds 0.5 --trace 1
[ -s "$out/trace-hot-cache.json" ] || fail "the traced run wrote no trace"
"$main" --workload hot-cache --seconds 1 --daemon "$cli" --out "$out" --corrupt-oracle >"$log" 2>&1
code=$?
[ "$code" -eq 1 ] || fail "corrupted oracle: exit $code, expected 1"
grep -q "oracle mismatch: hot-cache: request" "$log" || fail "corrupted oracle: no mismatch report"
# Nothing may outlive the failed run: no process naming its scratch
# space, no scratch directory.
left=$(grep -la "smoke-ou[t]/run-" /proc/[0-9]*/cmdline 2>/dev/null; ls -d "$out"/run-* 2>/dev/null)
[ -z "$left" ] || fail "left behind after the failed run: $left"
rm -rf "$out" "$log"
