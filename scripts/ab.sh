#!/usr/bin/env bash
# A/B of stackbench between a parent revision and a change: alternating
# runs of two builds, each built from source in a directory of its own,
# summed up as one TRAJECTORY.md row per workload.
#
#   scripts/ab.sh <parent-rev> [--change REV] [--workloads a,b] [--pairs N]
#                 [--seconds S] [--seed N] [--traced] [--smoke]
#
# The parent is built from `git archive <parent-rev>`, the change from the
# working tree (its tracked and untracked, not ignored, files) or, with
# --change, from `git archive REV`. Both build --offline under
# ${AB_DIR:-target/ab}, so nothing in the working tree is written (the
# build rewrites stackbench/Cargo.lock in its copy only), and a second run
# against the same revisions rebuilds only what changed.
#
# Pairs run in ABBA order — parent then change, then change then parent —
# so drift in the host's speed cancels. Each run is
# `stackbench --workload W --seed N --seconds S --trace 0`; its last
# stdout line is the JSON the script reads. Every run's `events_per_s`,
# `setup_s`, `allocs_per_event` and `cpu_us_per_event` are printed, so an
# outlier shows instead of hiding inside a median (`cpu_us_per_event`
# can read 0 on one run and ~9 on the next: it is a median of per-round
# CPU counted in 10 ms ticks). If any run of a workload is not
# `correct` or has a failed operation, that workload gets no row and the
# script exits 1.
#
# The row: pairs the change won on `events_per_s`, the medians of
# `events_per_s` parent → change, the interquartile range of the
# parent's `events_per_s` (Tukey's hinges), and the medians of
# `allocs_per_event`. The PR, E and verdict cells are left as `?` for
# the author. Below it, on stderr, the medians of every end-to-end
# metric, the ones the benchmark's gate compares. --traced adds as many
# pairs of `--trace 1` runs and prints the per-layer medians, parent →
# change.
#
# --smoke runs one pair of stackbench's own --smoke run per workload
# (small topology, one round): it checks that both builds and this
# script work, not numbers.
set -euo pipefail
cd "$(dirname "$0")/.."
REPO="$PWD"

usage() {
  sed -n '4,5p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[ $# -ge 1 ] || usage
PARENT="$1"
shift
CHANGE=""
WORKLOADS="default_flash,lean_mice,window_shard,isolated_channel,crash_flap"
PAIRS=3
SECONDS_PER_RUN=20
SEED=7
TRACED=0
SMOKE=0
while [ $# -gt 0 ]; do
  case "$1" in
    --change) CHANGE="$2"; shift 2 ;;
    --workloads) WORKLOADS="$2"; shift 2 ;;
    --pairs) PAIRS="$2"; shift 2 ;;
    --seconds) SECONDS_PER_RUN="$2"; shift 2 ;;
    --seed) SEED="$2"; shift 2 ;;
    --traced) TRACED=1; shift ;;
    --smoke) SMOKE=1; PAIRS=1; shift ;;
    *) usage ;;
  esac
done
[ "$PAIRS" -ge 1 ] 2>/dev/null || { echo "--pairs must be at least 1" >&2; exit 2; }

AB_DIR="${AB_DIR:-$REPO/target/ab}"
mkdir -p "$AB_DIR"

# Put the source of one side in $AB_DIR/<side>/src: `git archive` of a
# revision, or a copy of the working tree. Unchanged files keep their
# modification times, so cargo rebuilds only what differs.
checkout() { # checkout SIDE REV|""
  local dir="$AB_DIR/$1" rev="$2" hash
  mkdir -p "$dir"
  if [ -n "$rev" ]; then
    hash="$(git rev-parse --verify "$rev^{commit}")"
    if [ "$(cat "$dir/rev" 2>/dev/null)" != "$hash" ] || [ ! -d "$dir/src" ]; then
      rm -rf "$dir/src" "$dir/rev"
      mkdir -p "$dir/src"
      git archive "$hash" | tar -x -C "$dir/src"
      echo "$hash" >"$dir/rev"
    fi
  else
    rm -rf "$dir/src" "$dir/rev"
    mkdir -p "$dir/src"
    git ls-files -z --cached --others --exclude-standard \
      | while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done \
      | tar --null -T - -cf - | tar -xf - -C "$dir/src"
  fi
}

# Build one side's stackbench; print the binary's path.
build() { # build SIDE
  local dir="$AB_DIR/$1"
  CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
    --manifest-path "$dir/src/stackbench/Cargo.toml" >&2
  echo "$dir/target/release/stackbench"
}

label() { # label REV|""
  if [ -n "$1" ]; then
    echo "\`$(git rev-parse --short "$1^{commit}")\`"
  else
    echo "\`$(git rev-parse --short HEAD)\` + working tree"
  fi
}

echo "==> building the parent ($PARENT) and the change (${CHANGE:-working tree}) under $AB_DIR" >&2
checkout parent "$PARENT"
checkout change "$CHANGE"
BIN_A="$(build parent)"
BIN_B="$(build change)"
LABEL="$(label "$PARENT") → $(label "$CHANGE")"

# One run of SIDE's binary; print its last stdout line. It runs in its own
# source copy, so anything it writes stays there. A run that exits with an
# error still prints what it printed: its `correct` and `failed` decide.
run_one() { # run_one SIDE WORKLOAD TRACE
  local bin dir len
  if [ "$1" = parent ]; then bin="$BIN_A"; else bin="$BIN_B"; fi
  dir="$AB_DIR/$1/src"
  if [ "$SMOKE" = 1 ]; then len=(--smoke); else len=(--seconds "$SECONDS_PER_RUN"); fi
  { (cd "$dir" && "$bin" --workload "$2" --seed "$SEED" "${len[@]}" --trace "$3" 2>/dev/null) \
    || true; } | tail -n 1
}

# The value of metric NAME in one JSON line.
metric() { # metric NAME LINE
  printf '%s\n' "$2" | sed -n "s/.*\"$1\": {\"value\": \([^,}]*\).*/\1/p"
}

# Median of the numbers on stdin.
median() {
  sort -g | awk '{ v[NR] = $1 } END {
    if (NR == 0) { print "nan"; exit }
    if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

# Interquartile range of the numbers on stdin, by Tukey's hinges (the
# medians of the lower and upper halves, the median itself left out).
iqr() {
  sort -g | awk '{ v[NR] = $1 }
    function med(lo, hi,   n) { n = hi - lo + 1
      return (n % 2) ? v[lo + (n - 1) / 2] : (v[lo + n / 2 - 1] + v[lo + n / 2]) / 2 }
    END { if (NR < 2) { print "nan"; exit }
      h = int(NR / 2); print med(NR - h + 1, NR) - med(1, h) }'
}

# 173 900 → 173.9k.
rate() {
  awk -v v="$1" 'BEGIN { if (v == "nan") print "—"; else if (v >= 1000) printf "%.1fk\n", v / 1000; else printf "%.0f\n", v }'
}

# Every metric of one JSON line as "SIDE NAME VALUE" lines.
values() { # values SIDE LINE
  { printf '%s\n' "$2" | grep -oE '"[A-Za-z0-9_.]+": \{"value": [-0-9.eE+]+' || true; } \
    | sed -E "s/^\"([^\"]+)\": \{\"value\": (.*)$/$1 \\1 \\2/"
}

# The values of SIDE's metric NAME in a file of values() lines.
column() { # column FILE SIDE NAME
  awk -v s="$2" -v n="$3" '$1 == s && $2 == n { print $3 }' "$1"
}

# Each metric's medians, parent → change, as a markdown table.
medians() { # medians FILE TITLE
  local name
  echo "| $2 | parent median | change median |"
  echo "|---|---|---|"
  for name in $(awk '!seen[$2]++ { print $2 }' "$1"); do
    printf '| `%s` | %.6g | %.6g |\n' "$name" \
      "$(column "$1" parent "$name" | median)" "$(column "$1" change "$name" | median)"
  done
}

# One pair's order: parent first on odd pairs, change first on even ones.
order() { # order PAIR
  if [ $(($1 % 2)) = 1 ]; then echo "parent change"; else echo "change parent"; fi
}

STATUS=0
RUNS="$(mktemp)"
trap 'rm -f "$RUNS"' EXIT
for w in ${WORKLOADS//,/ }; do
  echo "==> $w: $PAIRS pair(s), ABBA" >&2
  : >"$RUNS"
  WON=0 VOID=""
  for i in $(seq 1 "$PAIRS"); do
    for side in $(order "$i"); do
      line="$(run_one "$side" "$w" 0)"
      correct="$(printf '%s\n' "$line" | sed -n 's/.*"correct": \([a-z]*\).*/\1/p')"
      failed="$(printf '%s\n' "$line" | sed -n 's/.*"failed": \([0-9]*\).*/\1/p')"
      printf '  pair %d %-6s events_per_s %s  setup_s %s  allocs_per_event %s  cpu_us_per_event %s%s\n' \
        "$i" "$side" "$(metric events_per_s "$line")" "$(metric setup_s "$line")" \
        "$(metric allocs_per_event "$line")" "$(metric cpu_us_per_event "$line")" \
        "$([ "$correct" = true ] && [ "$failed" = 0 ] || echo "  <- correct=${correct:-?} failed=${failed:-?}")" >&2
      if [ "$correct" != true ] || [ "$failed" != 0 ]; then
        VOID="pair $i $side: correct=${correct:-?} failed=${failed:-?}"
      fi
      values "$side $i" "$line" >>"$RUNS"
    done
    if awk -v i="$i" '$2 == i && $3 == "events_per_s" { v[$1] = $4 }
      END { exit !("parent" in v && "change" in v && v["change"] > v["parent"]) }' "$RUNS"; then
      WON=$((WON + 1))
    fi
  done
  if [ -n "$VOID" ]; then
    echo "no row for $w: $VOID" >&2
    STATUS=1
    continue
  fi
  # Drop the pair number: values() lines again.
  awk '{ print $1, $3, $4 }' "$RUNS" >"$RUNS.e2e"
  mv "$RUNS.e2e" "$RUNS"
  pm="$(column "$RUNS" parent events_per_s | median)"
  cm="$(column "$RUNS" change events_per_s | median)"
  spread="$(column "$RUNS" parent events_per_s | iqr)"
  pa="$(column "$RUNS" parent allocs_per_event | median)"
  ca="$(column "$RUNS" change allocs_per_event | median)"
  pct="$(awk -v p="$pm" -v c="$cm" 'BEGIN { d = (c - p) / p * 100
    printf "%s%.1f %%\n", (d < 0 ? "−" : "+"), (d < 0 ? -d : d) }')"
  allocs="$(awk -v p="$pa" -v c="$ca" 'BEGIN { p = sprintf("%.2f", p); c = sprintf("%.2f", c)
    if (p == c) print p " ="; else print p " → " c }')"
  if [ "$SMOKE" = 1 ]; then len="smoke"; else len="$SECONDS_PER_RUN s"; fi
  echo "| ? | $LABEL | ? | \`$w\` ($len) | $SEED | $WON/$PAIRS | $(rate "$pm") → $(rate "$cm") ($pct) | $(rate "$spread") | $allocs | ? |"
  medians "$RUNS" "\`$w\` end-to-end metric" >&2

  if [ "$TRACED" = 1 ]; then
    echo "==> $w traced: $PAIRS pair(s) of --trace 1, ABBA" >&2
    : >"$RUNS"
    for i in $(seq 1 "$PAIRS"); do
      for side in $(order "$i"); do
        values "$side" "$(run_one "$side" "$w" 1)" >>"$RUNS"
      done
    done
    medians "$RUNS" "\`$w\` per-layer metric"
  fi
done
exit "$STATUS"
