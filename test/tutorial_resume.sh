#!/bin/sh
# docs/TUTORIAL.md §9 through the built CLI: a journaled run killed after
# 10 boxes resumes, in a fresh process, to the reply of the same run left
# alone.
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

echo "tutorial 9: killed after 10 boxes; resumed to granted 1 in 15 steps, as the unjournaled run"
