//! E3 — §4.1/§5: checkpointing cost vs recovery cost.
//!
//! Per-event checkpointing (the CRIU prototype) pays a snapshot on every
//! event; checkpoint-every-N pays ~1/N of that but must replay up to N-1
//! events at recovery. The sweep shows steady-state overhead falling with
//! N while recovery time grows — the §5 trade-off, with the crossover
//! visible in the table.

use legosdn::controller::app::SdnApp;
use legosdn::controller::services::{DeviceView, TopologyView};
use legosdn::controller::Sandbox;
use legosdn::crashpad::{
    CheckpointPolicy, CrashPad, CrashPadConfig, PolicyTable, TransformDirection,
};
use legosdn::prelude::*;
use legosdn_bench::harness::{criterion_group, BenchmarkId, Criterion};
use legosdn_bench::{print_table, workloads};
use std::time::Instant;

const INTERVALS: [u64; 6] = [1, 2, 5, 10, 25, 100];

fn pad(interval: u64) -> CrashPad {
    CrashPad::new(CrashPadConfig {
        checkpoints: CheckpointPolicy {
            interval,
            history: 4,
            ..CheckpointPolicy::default()
        },
        policies: PolicyTable::with_default(CompromisePolicy::Absolute),
        transform_direction: TransformDirection::Decompose,
    })
}

/// Steady-state: dispatch `n` healthy events through Crash-Pad; returns
/// (mean us/event, snapshots taken, snapshot bytes total).
fn steady_state(interval: u64, n: u64, state_size: u64) -> (f64, u64, u64) {
    let mut cp = pad(interval);
    let mut sandbox = Sandbox::new(Box::new(workloads::warmed_learning_switch(state_size)));
    let topo = TopologyView::default();
    let dev = DeviceView::default();
    let start = Instant::now();
    for i in 0..n {
        let ev = workloads::bench_packet_in(i);
        cp.dispatch(&mut sandbox, "ls", &ev, &topo, &dev, SimTime::ZERO);
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / n as f64;
    (
        us,
        cp.checkpoints.snapshots_taken,
        cp.checkpoints.bytes_snapshotted,
    )
}

/// Recovery: deliver `interval - 1` healthy events past the checkpoint,
/// then a crashing one; time the recovery dispatch. Returns
/// (recovery us, events replayed).
fn recovery_cost(interval: u64, state_size: u64) -> (f64, u64) {
    let mut cp = pad(interval);
    let inner = workloads::warmed_learning_switch(state_size);
    let mut sandbox = Sandbox::new(Box::new(FaultyApp::new(
        Box::new(inner),
        BugTrigger::OnPacketToMac(MacAddr::from_index(0xdead)),
        BugEffect::Crash,
    )));
    let topo = TopologyView::default();
    let dev = DeviceView::default();
    // Fill the replay window.
    for i in 0..interval.saturating_sub(1) {
        let ev = workloads::bench_packet_in(i);
        cp.dispatch(&mut sandbox, "f", &ev, &topo, &dev, SimTime::ZERO);
    }
    // The poisoned event.
    let poison_ev = Event::PacketIn(
        DatapathId(1),
        PacketIn {
            buffer_id: BufferId::NONE,
            in_port: PortNo::Phys(1),
            reason: PacketInReason::NoMatch,
            packet: Packet::ethernet(MacAddr::from_index(1), MacAddr::from_index(0xdead)),
        },
    );
    let start = Instant::now();
    let result = cp.dispatch(&mut sandbox, "f", &poison_ev, &topo, &dev, SimTime::ZERO);
    let us = start.elapsed().as_secs_f64() * 1e6;
    assert!(matches!(
        result,
        legosdn::crashpad::DispatchResult::Recovered { .. }
    ));
    (us, cp.stats().events_replayed)
}

/// Elision: dispatch `n` events that do not touch the app's state (a
/// switch-down for a dpid the app never learned) with per-event
/// checkpointing. Every snapshot after the first hashes (FNV-1a)
/// identical to the stored one and is elided — recorded but not stored.
/// Returns (stored, elided).
fn elision_rate(n: u64, state_size: u64) -> (u64, u64) {
    let mut cp = pad(1);
    let mut sandbox = Sandbox::new(Box::new(workloads::warmed_learning_switch(state_size)));
    let topo = TopologyView::default();
    let dev = DeviceView::default();
    for _ in 0..n {
        let ev = Event::SwitchDown(DatapathId(0xdead));
        cp.dispatch(&mut sandbox, "ls", &ev, &topo, &dev, SimTime::ZERO);
    }
    (
        cp.checkpoints.snapshots_taken,
        cp.checkpoints.snapshots_elided,
    )
}

fn summary() {
    let state = 500; // learned MACs in the app: a realistic snapshot size
    let snap_bytes = {
        let app = workloads::warmed_learning_switch(state);
        app.snapshot().len()
    };
    eprintln!("app snapshot size at {state} learned MACs: {snap_bytes} bytes");
    let mut rows = Vec::new();
    for interval in INTERVALS {
        let (us, snaps, bytes) = steady_state(interval, 400, state);
        let (rec_us, replayed) = recovery_cost(interval, state);
        rows.push(vec![
            interval.to_string(),
            format!("{us:.1}"),
            snaps.to_string(),
            (bytes / 1024).to_string(),
            format!("{rec_us:.0}"),
            replayed.to_string(),
        ]);
    }
    print_table(
        "E3: checkpoint interval sweep (400-event steady state + 1 crash)",
        &[
            "interval N",
            "us/event",
            "snapshots",
            "snap KiB",
            "recovery us",
            "replayed",
        ],
        &rows,
    );

    // Elision check: state-neutral events at interval 1 must store one
    // snapshot and hash-skip the rest.
    let (stored, elided) = elision_rate(200, state);
    assert!(
        stored == 1 && elided == 199,
        "stable state should elide every snapshot after the first \
         (stored {stored}, elided {elided})"
    );
    eprintln!("elision on state-neutral events at interval 1: {stored} stored, {elided} elided");
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e3_checkpoint");
    g.sample_size(20);
    for interval in [1u64, 10, 100] {
        g.bench_with_input(
            BenchmarkId::new("steady_state_100ev", interval),
            &interval,
            |b, &interval| {
                b.iter(|| steady_state(interval, 100, 200));
            },
        );
        g.bench_with_input(
            BenchmarkId::new("recovery", interval),
            &interval,
            |b, &interval| {
                b.iter(|| recovery_cost(interval, 200));
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    // Injected app crashes are contained by design; silence their default
    // backtraces so the summary tables stay readable.
    std::panic::set_hook(Box::new(|_| {}));
    summary();
    benches();
    legosdn_bench::harness::Criterion::default()
        .configure_from_args()
        .final_summary();
}
