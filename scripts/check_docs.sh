#!/usr/bin/env bash
# Doc guard: the documents the code cites stay citable and stay small.
# Run by scripts/check.sh; runs alone in well under a second.
#
# Fails if
# - a `DESIGN.md §N` cited under crates/ tests/ examples/ scripts/ or in
#   README.md names no `## N.` heading (the leading number counts: §6.3
#   needs `## 6.`, §5a needs `## 5a.`);
# - an E-number cited in DESIGN.md §4 or in a tests/*.rs module doc has
#   no `## E<n>` heading in EXPERIMENTS.md;
# - a DESIGN.md or EXPERIMENTS.md heading names a PR (a heading says what
#   the system does, TRAJECTORY.md and CHANGES.md say when);
# - DESIGN.md and EXPERIMENTS.md together exceed 120 000 bytes.
set -euo pipefail
cd "$(dirname "$0")/.."

LIMIT=120000
fail=0

SECTIONS="$(grep -rhoE 'DESIGN\.md §[0-9]+[a-z]?((,? | and | or |, and )§[0-9]+[a-z]?)*' \
    crates/ tests/ examples/ scripts/ README.md \
  | grep -oE '§[0-9]+[a-z]?' | sort -u)"
for s in $SECTIONS; do
  n="${s#§}"
  if ! grep -qE "^## ${n}\. " DESIGN.md; then
    echo "DESIGN.md $s is cited but has no '## ${n}.' heading:" >&2
    grep -rnE "DESIGN\.md [^)]*$s([^0-9a-z]|$)" crates/ tests/ examples/ scripts/ README.md >&2 || true
    fail=1
  fi
done

CITED_E="$( { awk '/^## 4\. /{on=1; next} /^## /{on=0} on' DESIGN.md
              grep -hE '^//!' tests/*.rs; } \
  | grep -oE '\bE[0-9]+\b' | sort -u)"
for e in $CITED_E; do
  if ! grep -qE "^## ${e} " EXPERIMENTS.md; then
    echo "$e is cited (DESIGN.md §4 or a tests/*.rs module doc) but EXPERIMENTS.md has no '## $e' heading" >&2
    fail=1
  fi
done

if grep -nE '^#+ .*PR [0-9]' DESIGN.md EXPERIMENTS.md >&2; then
  echo "a DESIGN.md or EXPERIMENTS.md heading names a PR; history goes in TRAJECTORY.md and CHANGES.md" >&2
  fail=1
fi

bytes="$(cat DESIGN.md EXPERIMENTS.md | wc -c)"
if [ "$bytes" -gt "$LIMIT" ]; then
  echo "DESIGN.md + EXPERIMENTS.md are $bytes bytes, over $LIMIT: cut history, not the design" >&2
  fail=1
fi

exit "$fail"
