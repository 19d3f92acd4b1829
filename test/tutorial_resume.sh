#!/bin/sh
# docs/TUTORIAL.md §9 through the built CLI: a journaled run killed after
# 10 boxes resumes, in a fresh process, to the reply of the same run left
# alone; --kill-at without --journal is a usage error. `dune runtest` runs
# it (test/dune); by hand:
#   sh test/tutorial_resume.sh _build/default/bin/secpol_cli.exe
set -eu
B=$1
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT

# expect FILE LINE: FILE holds LINE, whole.
expect() {
  if ! grep -qxF -- "$2" "$1"; then
    printf 'expected the line: %s\ngot:\n' "$2"
    cat "$1"
    exit 1
  fi
}

"$B" run loop-then-secretfree --inputs 6,1 --journal "$d/j" --kill-at 10 > "$d/killed"
expect "$d/killed" "killed after 10 journaled box(es); recover with: secpol resume $d/j"

"$B" resume "$d/j" > "$d/resumed"
expect "$d/resumed" "granted: 1"
expect "$d/resumed" "steps:  15"

"$B" run loop-then-secretfree --inputs 6,1 > "$d/plain"
expect "$d/plain" "output: 1"
expect "$d/plain" "steps:  15"

# Without a journal there is nothing to kill: both commands refuse the
# flag (exit 2) before running.
for cmd in run enforce; do
  code=0
  "$B" $cmd loop-then-secretfree --inputs 6,1 --kill-at 3 > "$d/out" 2> "$d/err" || code=$?
  if [ "$code" -ne 2 ]; then
    printf '%s --kill-at without --journal: exit %s, want 2\n' "$cmd" "$code"
    cat "$d/out"
    exit 1
  fi
  expect "$d/err" "--kill-at requires --journal"
done

echo "tutorial 9: killed after 10 boxes; resumed to granted 1 in 15 steps, as the unjournaled run; --kill-at without --journal refused"
