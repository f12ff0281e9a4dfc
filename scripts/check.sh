#!/usr/bin/env bash
# Repo gate: formatting, lints, tests. Run before every commit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

# Every suite in the workspace, once, under one hard timeout: a stub
# deadlock, a wedged barrier or a lost wakeup hangs a test, and the timeout
# is what turns that into a failure. Suites are re-run by name below only
# where that adds something this run lacks.
echo "==> cargo test (hard 600s timeout)"
timeout 600 cargo test -q --offline --workspace \
  || { echo "workspace tests failed or timed out" >&2; exit 1; }

# The warm invariant check skips every pair a flow-mod's match cannot
# reach; that it still reports what a cold scan reports is shown by this
# sweep and nothing else (DESIGN.md §13). By name, optimized (the debug
# run above took the same seeds, the slow way): under a second.
echo "==> warm check == cold check, release sweep (hard 120s timeout)"
timeout 120 cargo test -q --offline --release -p legosdn-invariants --test incremental_equivalence \
  || { echo "a warm invariant check disagreed with a cold one" >&2; exit 1; }

# Names the one-engine, one-stub-host, static-placement and
# one-ops-endpoint refactors deleted must not grow back beside what
# replaced them.
echo "==> no second dispatch path, fan-out API, stub host, shard re-balancer or fleet pipeline"
if grep -rnE 'dispatch_pipelined|fanout_send|fanout_collect|deliver_fanout|stable_shard' crates/ \
  || grep -rnE 'IoMode::Blocking|spawn_stub|run_stub|DispatchMode|ChannelTransport|IoConfig::blocking' \
    crates/ tests/ examples/ \
  || grep -rnE 'rebalance_shards|cost_ewma|AppMigration|dispatch_app_ns|worker_load' \
    crates/ tests/ examples/ \
  || grep -rnE 'PushExporter|PushFrame|PushConfig|Aggregator|AggregateConfig|RouteHandler|ObsServerBuilder|ObsError|close_grace|obs_frame|snapshot_since' \
    crates/ tests/ examples/; then
  echo "a deleted dispatch/fan-out/stub-host/placement/fleet-pipeline name reappeared (see DESIGN.md §7, §9, §11)" >&2
  exit 1
fi

# `legosdn-obs` is std-only: its normal dependency tree is itself.
echo "==> legosdn-obs has no dependencies"
OBS_TREE="$(cargo tree --offline -p legosdn-obs -e normal)"
[ "$(printf '%s\n' "$OBS_TREE" | wc -l)" -eq 1 ] \
  || { echo "legosdn-obs grew a dependency:" >&2; echo "$OBS_TREE" >&2; exit 1; }

# The full failure/recovery campaign through the daemon path, once per
# configuration the dispatch engine can be put in (the determinism suite
# proves the outputs identical; this proves the daemon wires each one up
# and that none of them hangs). One row per smoke: label | extra flags.
cargo build -q --offline --release -p legosdn-bench --bin campaign
while IFS='|' read -r label flags; do
  echo "==> campaign smoke: $label"
  # shellcheck disable=SC2086  # $flags is a flag string, split on purpose
  timeout 60 ./target/release/campaign --addr 127.0.0.1:0 --rounds 2 --period-ms 1 $flags \
    </dev/null || { echo "campaign smoke ($label) failed or hung" >&2; exit 1; }
done <<'SMOKES'
defaults|
isolated stubs|--isolation channel
isolated stubs sharing 2 host threads|--isolation channel --io-threads 2
4 worker shards behind the commit barrier|--isolation channel --window 4 --workers 4
4 worker shards, cross-cycle lookahead|--isolation channel --window 4 --workers 4 --lookahead 2
SMOKES

# The flags that selected the deleted paths are gone, not hidden.
for gone in --dispatch --transport --push-to --campaign; do
  if ./target/release/campaign --rounds 1 "$gone" x </dev/null >/dev/null 2>&1; then
    echo "campaign still accepts $gone" >&2
    exit 1
  fi
done

# Scrape one path from a live endpoint over bash's /dev/tcp (curl may be
# absent), under a hard timeout so a wedged responder fails fast.
scrape() { # scrape HOST:PORT PATH
  exec 3<>"/dev/tcp/${1%:*}/${1#*:}" \
    && printf 'GET %s HTTP/1.1\r\nHost: check\r\n\r\n' "$2" >&3 \
    && timeout 10 cat <&3
  local rc=$?
  exec 3<&- 3>&- || true
  return $rc
}

# And with a cross-event window: multiple events in flight per stub, with
# crash/cancel/re-send riding the same failure/recovery story — run in the
# background so the flight recorder and local rollups can be scraped live.
echo "==> campaign smoke under windowed dispatch (--window 8) + /traces /rollups"
CMP_ADDR_FILE="$(mktemp)"
CMP_OUT="$(mktemp)"
CMP_PID=""
BURN_PIDS=""
# shellcheck disable=SC2086  # $BURN_PIDS is a pid list, split on purpose
trap 'kill "$CMP_PID" $BURN_PIDS 2>/dev/null || true; \
  rm -f "$CMP_ADDR_FILE" "$CMP_OUT"' EXIT
./target/release/campaign --addr 127.0.0.1:0 --addr-file "$CMP_ADDR_FILE" \
  --period-ms 1 --isolation channel --window 8 \
  --trace-sample 1 2>"$CMP_OUT" &
CMP_PID=$!
for _ in $(seq 1 100); do
  [ -s "$CMP_ADDR_FILE" ] && break
  kill -0 "$CMP_PID" 2>/dev/null || { cat "$CMP_OUT" >&2; exit 1; }
  sleep 0.1
done
CMP_ADDR="$(cat "$CMP_ADDR_FILE")"
[ -n "$CMP_ADDR" ] || { echo "windowed campaign never published its address" >&2; exit 1; }
sleep 1   # let a few windowed rounds record traces
TRACES="$(scrape "$CMP_ADDR" /traces || true)"
echo "$TRACES" | grep -q '"traces"' \
  || { echo "windowed campaign /traces is missing its trace list" >&2; exit 1; }
ROLLUPS="$(scrape "$CMP_ADDR" /rollups || true)"
echo "$ROLLUPS" | grep -q '"width_ns"' \
  || { echo "windowed campaign /rollups is missing the window config" >&2; exit 1; }
kill "$CMP_PID" 2>/dev/null || true
wait "$CMP_PID" 2>/dev/null || true

# A 1000-stub fleet: the whole fleet must be serviced by the fixed
# stub-host pool (4 threads), so the process thread count stays far
# below one-per-app. The bin exits 1 on a missed delivery, a missing
# shutdown report, or a thread-count blowup.
echo "==> fleet smoke: 1000 stubs under a 64-thread bound"
cargo build -q --offline --release -p legosdn-bench --bin fleet
timeout 120 ./target/release/fleet --apps 1000 --io-threads 4 --rounds 3 \
  --max-threads 64 \
  || { echo "fleet smoke failed, hung, or leaked threads" >&2; exit 1; }
if ./target/release/fleet --apps 1 --transport polled >/dev/null 2>&1; then
  echo "fleet still accepts --transport" >&2
  exit 1
fi

# Trace-driven workloads at datacenter scale: replay the three seeded
# streams (flash crowd, elephant/mice, link-flap storm) over a 1125-switch
# fat-tree through the indexed flow tables. The bin exits 1 if any stream
# generates no packet-ins or delivers nothing; the timeout catches a
# lookup-path complexity regression (linear tables take minutes here).
echo "==> 1k-switch fat-tree workload smoke (hard 120s timeout)"
cargo build -q --offline --release -p legosdn-bench --bin workload
timeout 120 ./target/release/workload --k 30 --events 20000 --seed 7 \
  || { echo "fat-tree workload smoke failed or hung" >&2; exit 1; }

# The delivery path's contracts, filtered out of the workspace run and
# given a process to themselves: every transport facade passes the one
# conformance suite, and no park-aware signal loses a wakeup in 200k
# frames. Beside 200 other tests the stress has the scheduler's noise to
# hide in; alone, a lost wakeup parks it for 2 s per frame and the
# timeout fails it.
echo "==> transport conformance + lost-wake stress, alone (hard 120s timeout)"
timeout 120 cargo test -q --offline -p legosdn-appvisor --lib -- conforms lost_wake_stress \
  || { echo "transport conformance / lost-wake stress failed or timed out" >&2; exit 1; }

# Two tests that expect an explicit `Crashed` report used to give the
# stub 60 / 300 ms to send it and went red on a loaded box (the stub was
# still printing its panic backtrace). They now wait up to 2 s and return
# when the report arrives. Hold that: 20 rounds with every core kept busy.
echo "==> crash-report tests, 20x beside a busy loop per core (hard 300s timeout)"
cargo test -q --offline --no-run -p legosdn-appvisor --test view_resync
cargo test -q --offline --no-run -p legosdn --test integration_appvisor
for _ in $(seq 1 "$(nproc)"); do
  ( while :; do :; done ) &
  BURN_PIDS="$BURN_PIDS $!"
done
for round in $(seq 1 20); do
  timeout 300 cargo test -q --offline -p legosdn-appvisor --test view_resync -- \
      a_crash_mid_window_resends_whole_views_then_diffs >/dev/null 2>&1 \
    && timeout 300 cargo test -q --offline -p legosdn --test integration_appvisor -- \
      crash_containment_with_explicit_report >/dev/null 2>&1 \
    || { echo "crash-report test flaked in round $round of 20 under load" >&2; exit 1; }
done
# shellcheck disable=SC2086
kill $BURN_PIDS 2>/dev/null || true
BURN_PIDS=""

# The per-event path's budget, by name so a filtered or renamed run
# cannot skip it: allocations per event of the lean skeleton under its
# bound, and zero by-name registry lookups across thousands of commits
# (DESIGN.md §7). Exact counts, so no retry and no load sensitivity.
echo "==> allocation budget + no by-name lookups per event (hard 120s timeout)"
timeout 120 cargo test -q --offline -p legosdn --test alloc_budget \
  || { echo "allocation budget exceeded, or a by-name lookup is back on the per-event path" >&2; exit 1; }

# The benchmark is a package of its own, so the workspace run above does
# not reach it: its unit tests, the all-workload --smoke run (every
# oracle digest check) and BENCHMARK.json against the names the binary
# emits.
echo "==> stackbench tests + smoke (hard 300s timeout)"
timeout 300 cargo test -q --offline --manifest-path stackbench/Cargo.toml \
  || { echo "stackbench tests failed or timed out" >&2; exit 1; }

echo "all checks passed"
