#!/usr/bin/env bash
# Repo gate: formatting, lints, tests. Run before every commit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# The documents code comments cite: every `DESIGN.md §N` and every E-number
# DESIGN §4 or a test's module doc names resolves, no DESIGN or
# EXPERIMENTS heading names a PR, and the two stay under 120 000 bytes.
echo "==> doc guard: cited sections and E-numbers resolve, no PR in a heading, size bound"
bash scripts/check_docs.sh || { echo "doc guard failed" >&2; exit 1; }

echo "==> cargo clippy (deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

# Every suite in the workspace, once, under one hard timeout: a stub
# deadlock or a lost wakeup hangs a test, and the timeout
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

# A byte array's one-copy body decodes as the per-element path does, at
# every cut of arrays up to 17 069 bytes long, and a length past the
# input is `Eof` (DESIGN.md §15). By name, optimized: the per-element
# twin is the slow side.
echo "==> bulk bytes == per-element bytes at every cut, release (hard 120s timeout)"
timeout 120 cargo test -q --offline --release -p legosdn-codec --test bulk_bytes \
  || { echo "a byte array decoded unlike its per-element twin" >&2; exit 1; }

# Names the one-engine, one-stub-host, static-placement,
# one-ops-endpoint, one-burst-per-cycle, one-commit, book-once and
# one-commit-order refactors deleted must not grow back beside what
# replaced them, nor Crash-Pad's second event log (a plan's replay is the
# archive's suffix, DESIGN.md §15), nor a second replica mechanism beside
# the N-version group (DESIGN.md §5a), nor a second delivery outcome,
# failure entry or fault kind nothing produces (DESIGN.md §5), nor the
# bench harness and its result files (a claim is held by a test, a
# stackbench metric or a smoke below, DESIGN.md §4). `TxTouch`
# survives only as the barrier's hidden shim, `DeliveryResult` only as
# Crash-Pad's hidden alias. Nor the proxy-side poll pool, the split
# sink/source traits or the TCP transport (one transport seam, DESIGN.md
# §11), nor the per-element array codec or a memo encoding held in a
# `Box` (a byte array is one append; a memo's bytes are shared, §15),
# nor a transaction's begin record, its app map, a by-value inverse or
# an action fold that collects ports (a transaction is one recycled
# record, its commit or rollback names its app, and forwarding runs on
# reused scratch, §3, §7, §12), nor a per-app usage field nothing writes
# (`app_usage` reports only what the runtime counts), nor the worker
# shards, their thread pool, the locked slot store, the commit barrier's
# waits and counters or a worker count anything reads (one engine on the
# runtime thread, DESIGN.md §9); `DispatchConfig::workers` survives only
# as `config.rs`'s hidden shim, which ignores its argument. Nor a window
# depth anything configures, checks or reports (the isolation mode sets
# it, DESIGN.md §9): `DispatchConfig::window` is the same kind of shim,
# and `alloc_budget.rs` calls it once to show an in-process runtime
# ignores it. Nor a frame sized from the stream's last one (frame
# buffers circulate: the stub acks into the delivery's buffer and the
# proxy writes deltas into decoded acks, §11). Nor a second request path
# in the proxy, a timer behind a channel-only stub host's park, or a
# dispatch counted apart from its booking (a blocking call is a queued
# request collected at once, a channel host sleeps until rung, and
# Crash-Pad's `complete` counts what it books, §7, §11). A bracketed
# letter keeps a pattern from matching the line that spells it.
echo "==> no second dispatch path, fan-out API, stub host, shard re-balancer, fleet pipeline, cross-cycle lookahead, NetLog mode, commit-path decision, commit fastpath, replay buffer, clone pair, fault vocabulary, bench harness, proxy-side poller, split transport, TCP transport, per-element array codec, boxed memo encoding, transaction begin record, by-value inverse, unwritten usage field, worker shard or window-depth option"
if grep -rnE 'dispatch_pipelined|fanout_send|fanout_collect|deliver_fanout|stable_shard' crates/ \
  || grep -rnE 'IoMode::Blocking|spawn_stub|run_stub|DispatchMode|ChannelTransport|IoConfig::blocking' \
    crates/ tests/ examples/ \
  || grep -rnE 'rebalance_shards|cost_ewma|AppMigration|dispatch_app_ns|worker_load' \
    crates/ tests/ examples/ \
  || grep -rnE 'PushExporter|PushFrame|PushConfig|Aggregator|AggregateConfig|RouteHandler|ObsServerBuilder|ObsError|close_grace|obs_frame|snapshot_since' \
    crates/ tests/ examples/ \
  || grep -rnE 'trace_event(_for)?\(|trace_active|record_at_evicting|HashMap<ThreadId|EndpointArgs|DispatchArgs' \
    crates/ tests/ examples/ \
  || grep -rnE 'lookahead_cycles|\.lookahead\(|DispatchWindow|ZeroLookahead|TraceWithObsDisabled|ChurnCounters|pop_event' \
    crates/ tests/ examples/ \
  || grep -rnE 'TxMode::Buffered|buffered_commands|applied_ops|ops_failed|WarmCheck|\.gate\(|fn gate\(' \
    crates/ tests/ examples/ \
  || grep -rnw TraceEvent crates/obs crates/core crates/crashpad crates/netlog crates/appvisor \
    tests/ examples/ \
  || grep -rnE 'lane_need' crates/ tests/ examples/ \
  || grep -rnw notify_seen crates/ tests/ examples/ \
  || grep -rnw replay_buffer crates/ tests/ examples/ \
  || grep -rniE 'fastpath|commands_touch|notify_flows_seen|poison_fastpath|Admission::|shared_switch_conflicts' \
    crates/ tests/ examples/ \
  || grep -rnE 'ClonePair|CloneStats|clone_runner' crates/ tests/ examples/ \
  || grep -rnw TxTouch crates/ tests/ examples/ | grep -v '^crates/netlog/src/barrier\.rs:' \
  || grep -rnE 'outcome_to_delivery|delivery_label|recover_byzantine|HeartbeatLoss|ReplayedOnly' \
    crates/ tests/ examples/ \
  || grep -rnE 'enum Failure\b' crates/appvisor \
  || grep -rn DeliveryResult crates/ tests/ examples/ \
    | grep -vE '^crates/crashpad/src/lib\.rs:[0-9]+:pub use [a-z_:]+::DeliverOutcome as DeliveryResult;$' \
  || grep -rnE 'criterion_[g]roup|final_summary|BENCH[_]' crates/ tests/ examples/ \
  || grep -rnE 'Poller|PolledTransport|poller_(wakeups|ready_set)|appvisor-poll' \
    crates/ tests/ examples/ \
  || grep -rnE 'tcp_duplex_pair|TcpFramer|TcpSink|TcpSource|(IsolationMode|TransportKind)::Tcp' \
    crates/ tests/ examples/ \
  || grep -rnE 'FrameSink|FrameSource|into_duplex|queue_duplex_pair|udp_duplex_pair' \
    crates/ tests/ examples/ \
  || grep -rnE 'Codec for \[[T]; N\]|OnceLock<Box<\[u8\]>>' crates/ tests/ examples/ \
  || grep -rnE 'TxnBegin|inverse_of|Inverse::|apply_actions|txn_app' crates/ tests/ examples/ \
  || grep -rniE 'heartbeat|check_liveness|FlowModBatch' crates/ tests/ examples/ \
  || grep -rnw last_snapshot_bytes crates/ tests/ examples/ \
  || grep -rnE 'send_owned|fn recv_timeout|time_left|crashpad_mut|crash_info\(' crates/ tests/ examples/ \
  || grep -rnE 'ShardPool|SlotStore|lego-worker|wait_cursor_past|finish_empty|BarrierStats|worker_of|crashpad_for|ZeroWorkers|barrier_ordered_commits|barrier_elided_positions' \
    crates/ tests/ examples/ \
  || grep -rnE '\.workers\(' crates/ tests/ examples/ | grep -v '^crates/core/src/config\.rs:' \
  || grep -rnE 'ZeroWindowDepth|window_depth' crates/ tests/ examples/ \
  || grep -rnE 'cancel_pending|commit_on_lane|LaneWork|struct Settle|settles' crates/ tests/ examples/ \
  || grep -rnwE 'ack_capacity|encode_frame_sized' crates/ tests/ examples/ \
  || grep -rnwE 'cancel_app|resend_app|send_rpc|HOST_PARK_MAX|note_dispatch' crates/ tests/ examples/ \
  || grep -rnE '\.window\(' crates/ tests/ examples/ \
    | grep -vE '^(crates/core/src/config|tests/alloc_budget)\.rs:'; then
  echo "a deleted dispatch/fan-out/stub-host/placement/fleet-pipeline/two-stream obs/lookahead/NetLog-mode/commit-path/fastpath/replay-buffer/clone-pair/fault-vocabulary/bench-harness/proxy-poller/split-transport/TCP-transport/array-codec/boxed-memo/txn-begin/by-value-inverse/heartbeat/flow-mod-batch/unwritten-usage-field/proxy-deadline/dead-accessor/worker-shard/window-depth/two-pass-settle/cancelled-tag/sized-frame/per-slot-entry-list/blocking-send/park-ceiling/dispatch-count name reappeared (see DESIGN.md §3, §4, §5, §5a, §7, §9, §11, §12, §13, §15)" >&2
  exit 1
fi

# No ambient inputs: a process-global `static` is state two runtimes (or
# two networks) in one binary would share. `static`s inside functions are
# not matched.
echo "==> no item-level static"
if grep -rn '^static ' crates/*/src; then
  echo "a process-global static in a library crate; hand the state in instead" >&2
  exit 1
fi

# Book once, commit on the lane (DESIGN.md §9): a commit-path step takes
# the slot it commits, not its parts, so no function in core needs more
# than clippy's argument limit.
echo "==> no too_many_arguments allowance in core"
if grep -rn too_many_arguments crates/core/src; then
  echo "core allows too_many_arguments; pass the slot, not its parts (see DESIGN.md §9)" >&2
  exit 1
fi

# One commit (DESIGN.md §13): the invariant check lives in
# `NetLog::commit`, which owns the checker's warm state. Outside its
# tests, the runtime never holds a `CheckState` of its own.
echo "==> the commit check has one home: no CheckState in core outside tests"
CHECKS="$(find crates/core/src -name '*.rs' -print0 | xargs -0 awk '
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  !in_tests && /CheckState/ { print FILENAME ":" FNR ": " $0 }')"
if [ -n "$CHECKS" ]; then
  echo "$CHECKS" >&2
  echo "core names CheckState; the check belongs to NetLog::commit (see DESIGN.md §13)" >&2
  exit 1
fi

# One scope for snapshot sharing (DESIGN.md §15): the thread-local naming
# the buffer a `Snapshot::of` cuts memos out of is written only inside
# `codec/src/snapshot.rs`'s `Scope`, whose `Drop` puts it back, so a panic
# mid-encode cannot leave a later encode sharing what it should copy.
echo "==> snapshot sharing state written only through its guard"
SETS="$(find crates -name '*.rs' -print0 | xargs -0 awk '
  FNR == 1 { in_guard = 0 }
  /^impl (Drop for )?Scope \{/ { in_guard = (FILENAME ~ /crates\/codec\/src\/snapshot\.rs$/) }
  /^}/ { in_guard = 0 }
  !in_guard && /CUTTING\.[a-z_]+\(/ && !/CUTTING\.get\(\)/ { print FILENAME ":" FNR ": " $0 }')"
if [ -n "$SETS" ]; then
  echo "$SETS" >&2
  echo "the sharing state is set outside its guard; enter a Scope instead (see DESIGN.md §15)" >&2
  exit 1
fi

# One typed record (DESIGN.md §7): an emission carries numbers, ids and
# static names, and text is rendered at export. No emission call's
# arguments may build a `String`.
echo "==> no String built in an emission's arguments"
EMITS="$(find crates/*/src -name '*.rs' -print0 | xargs -0 perl -0777 -ne '
  while (/\.(?:emit|emit_to|trace_begin)(\((?:[^()]++|(?1))*\))/g) {
    my ($args, $line) = ($1, 1 + (substr($_, 0, $-[0]) =~ tr/\n//));
    print "$ARGV:$line: $args\n" if $args =~ /format!\(|\.to_string\(\)/;
  }')"
if [ -n "$EMITS" ]; then
  echo "$EMITS" >&2
  echo "an emission builds a String in its arguments; render it at export (see DESIGN.md §7)" >&2
  exit 1
fi

# One fault wall (DESIGN.md §2): outside tests, app code is called through
# `controller::Sandbox` and nowhere else. The monolithic baseline keeps
# its own wall, since dying with the app is what LegoSDN is measured
# against; testkit's `forall` catches a failing case to report its seed.
echo "==> one fault wall: app calls only behind the sandbox"
WALLS='^crates/controller/src/(sandbox|monolithic)\.rs:'
if grep -rnE '\.app(\(\))?\.(on_event|snapshot|restore|name|subscriptions)\(' crates/*/src \
    | grep -vE "$WALLS"; then
  echo "app code called outside controller/src/sandbox.rs (see DESIGN.md §2)" >&2
  exit 1
fi

# One failure path for a panic (DESIGN.md §5): outside tests a panic is
# caught only where it becomes a failed app — the sandbox's wall, the stub
# host's scan (the stub retires), the engine's loop (every running app
# dies as `WorkerLost`), where the engine turns one in its drain into an
# abort; the two exceptions of the guard above stand. Nothing in core
# re-raises a panic or dies of a poisoned lock.
echo "==> one failure path: catch_unwind only at the walls, no re-raise or poison expect in core"
CATCHES="$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
  FNR == 1 { in_tests = 0; prev = "" }
  prev ~ /^#\[cfg\(test\)\]$/ && /^mod / { in_tests = 1 }
  { prev = $0 }
  !in_tests && /catch_unwind/ { print FILENAME ":" FNR ": " $0 }' \
  | grep -vE '^crates/(controller/src/(sandbox|monolithic)|appvisor/src/stub|core/src/engine|testkit/src/lib)\.rs:' \
  || true)"
if [ -n "$CATCHES" ]; then
  echo "$CATCHES" >&2
  echo "a panic caught outside the walls; let it reach one (see DESIGN.md §5)" >&2
  exit 1
fi
if grep -rnE 'resume_unwind|expect\("[^"]*poisoned' crates/core/src; then
  echo "core re-raises a panic or expects an unpoisoned lock; a panic is a failed app (see DESIGN.md §5, §9)" >&2
  exit 1
fi

# No `unsafe` in the library crates, and every one of them says so: the
# allocation-budget test's counting allocator is the one user, because
# `GlobalAlloc` cannot be implemented without it.
echo "==> unsafe only in the counting allocator; every crate forbids unsafe_code"
if grep -rnw unsafe crates/ tests/ examples/ | grep -v '^tests/alloc_budget\.rs:'; then
  echo "unsafe outside tests/alloc_budget.rs" >&2
  exit 1
fi
for lib in crates/*/src/lib.rs; do
  grep -qxF '#![forbid(unsafe_code)]' "$lib" \
    || { echo "$lib does not forbid unsafe_code" >&2; exit 1; }
done

# One engine on the runtime thread (DESIGN.md §9): outside its tests the
# runtime crate starts no thread of its own. Stubs run on the AppVisor
# stub host's threads.
echo "==> core starts no thread outside its tests"
THREADS="$(find crates/core/src -name '*.rs' -print0 | xargs -0 awk '
  FNR == 1 { in_tests = 0; prev = "" }
  prev ~ /^#\[cfg\(test\)\]$/ && /^mod / { in_tests = 1 }
  { prev = $0 }
  !in_tests && /thread::(spawn|scope|Builder)/ { print FILENAME ":" FNR ": " $0 }')"
if [ -n "$THREADS" ]; then
  echo "$THREADS" >&2
  echo "core starts a thread; the engine runs on the runtime thread (see DESIGN.md §9)" >&2
  exit 1
fi

# `legosdn-obs` is std-only: its normal dependency tree is itself.
echo "==> legosdn-obs has no dependencies"
OBS_TREE="$(cargo tree --offline -p legosdn-obs -e normal)"
[ "$(printf '%s\n' "$OBS_TREE" | wc -l)" -eq 1 ] \
  || { echo "legosdn-obs grew a dependency:" >&2; echo "$OBS_TREE" >&2; exit 1; }

# No layer reports anywhere it was not handed (DESIGN.md §7): the
# runtime's default configuration is the one user of the global instance,
# and netsim does not depend on legosdn-obs at all.
echo "==> Obs::global only as the runtime's default; legosdn-netsim has no legosdn-obs"
if grep -rnF 'Obs::global()' crates/*/src \
    | grep -vE '^crates/(obs/src/lib|core/src/runtime)\.rs:'; then
  echo "a layer reports to Obs::global() on its own" >&2
  exit 1
fi
NETSIM_TREE="$(cargo tree --offline -p legosdn-netsim -e normal)"
if printf '%s\n' "$NETSIM_TREE" | grep -q 'legosdn-obs'; then
  echo "legosdn-netsim depends on legosdn-obs again:" >&2
  echo "$NETSIM_TREE" >&2
  exit 1
fi

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
isolated stubs over UDP|--isolation udp
SMOKES

# The flags that selected the deleted paths are gone, not hidden.
for gone in --dispatch --transport --push-to --campaign --lookahead --workers --window; do
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

# And behind stubs, whose window holds several events in flight per stub,
# with crash/cancel/re-send riding the same failure/recovery story — run
# in the background so the flight recorder and local rollups can be
# scraped live.
echo "==> campaign smoke behind channel stubs (the stub window) + /traces /rollups"
CMP_ADDR_FILE="$(mktemp)"
CMP_OUT="$(mktemp)"
CMP_PID=""
BURN_PIDS=""
# shellcheck disable=SC2086  # $BURN_PIDS is a pid list, split on purpose
trap 'kill "$CMP_PID" $BURN_PIDS 2>/dev/null || true; \
  rm -f "$CMP_ADDR_FILE" "$CMP_OUT"' EXIT
./target/release/campaign --addr 127.0.0.1:0 --addr-file "$CMP_ADDR_FILE" \
  --period-ms 1 --isolation channel \
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
# given a process to themselves: both transports pass the one
# conformance suite, and no park-aware signal loses a wakeup in 200k
# frames — the stub host's scan of a channel among them. Beside 200
# other tests the stress has the scheduler's noise to hide in; alone, a
# lost wakeup parks it for 2 s per frame and the timeout fails it.
echo "==> transport conformance + lost-wake stress, alone (hard 120s timeout)"
timeout 120 cargo test -q --offline -p legosdn-appvisor --lib -- conforms lost_wake_stress \
  || { echo "transport conformance / lost-wake stress failed or timed out" >&2; exit 1; }

# Tests whose outcome turns on a deadline drive their stub inline
# (`InlineStub`): a reply not queued when the proxy looks never comes, so
# a lost frame or a silent stub is a timeout at once and no wall-clock
# deadline is waited out. Hold that: 20 rounds with every core kept busy,
# over the view_resync suite and the three appvisor unit tests moved onto
# it. A test that expects an explicit `Crashed` report from a hosted stub
# waits up to 2 s and returns when the report arrives; it rides along.
# The lost-engine tests ride along too: a lost engine's drain, behind
# stubs, must hold on a starved box too. So do the channel's wake rule
# (a send rings the host only with nothing unread, a wait rings before it
# parks), its windowed lost-ring stress, where a ring the scheduler
# delays past a park would surface as a 2 s timeout, and the proxy's two
# overlap tests, which park the host first so only a send's ring can
# start the stub (no timer wakes a channel-only host). So does the dispatch
# determinism suite: stub reply timing is the one interleaving the engine
# has left, and the per-app in-flight queues must match the oracle under
# any of it.
echo "==> inline-stub deadline, crash-report, lost-engine, wake-rule and dispatch-determinism tests, 20x beside a busy loop per core (hard 300s timeout)"
cargo test -q --offline --no-run -p legosdn-appvisor --lib --test view_resync
cargo test -q --offline --no-run -p legosdn --lib --test integration_appvisor \
  --test integration_dispatch_determinism
for _ in $(seq 1 "$(nproc)"); do
  ( while :; do :; done ) &
  BURN_PIDS="$BURN_PIDS $!"
done
for round in $(seq 1 20); do
  timeout 300 cargo test -q --offline -p legosdn-appvisor --test view_resync >/dev/null 2>&1 \
    && timeout 300 cargo test -q --offline -p legosdn-appvisor --lib -- comm_failure_on_silent_crash \
      crash_is_contained_and_reported silent_crash_mode_goes_quiet >/dev/null 2>&1 \
    && timeout 300 cargo test -q --offline -p legosdn --test integration_appvisor -- \
      crash_containment_with_explicit_report >/dev/null 2>&1 \
    && timeout 300 cargo test -q --offline -p legosdn --lib -- lost_engine_tests:: >/dev/null 2>&1 \
    && timeout 300 cargo test -q --offline -p legosdn-appvisor --lib -- \
      a_send_rings_the_scanner_only_when_nothing_waits_unread \
      lost_wake_stress_windowed_requests_to_a_scanned_echo \
      fanout_delivers_to_all_in_parallel \
      work_between_queue_and_collect_overlaps_the_stub >/dev/null 2>&1 \
    && timeout 300 cargo test -q --offline -p legosdn --test integration_dispatch_determinism \
      >/dev/null 2>&1 \
    || { echo "inline-stub deadline, crash-report, lost-engine, wake-rule or dispatch-determinism test flaked in round $round of 20 under load" >&2; exit 1; }
done
# shellcheck disable=SC2086
kill $BURN_PIDS 2>/dev/null || true
BURN_PIDS=""

# The per-event path's budget, by name so a filtered or renamed run
# cannot skip it: allocations per event of the lean skeleton under its
# bound, zero by-name registry lookups across thousands of commits
# (DESIGN.md §7), and a frame's byte array decoded in one exact copy
# (§15). Exact counts, so no retry and no load sensitivity.
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

# The A/B behind every TRAJECTORY.md row, in its smoke mode so it cannot
# rot: HEAD against the working tree (HEAD itself in a clean checkout),
# each built from source under target/ab, one pair of stackbench's
# --smoke run per workload; it exits 1 if a run is incorrect or fails an
# operation.
echo "==> A/B script smoke: HEAD against the working tree (hard 900s timeout)"
timeout 900 bash scripts/ab.sh HEAD --smoke \
  || { echo "scripts/ab.sh --smoke failed or timed out" >&2; exit 1; }

echo "all checks passed"
