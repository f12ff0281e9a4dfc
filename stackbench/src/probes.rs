//! Replay probes: single layers timed alone on the event and command
//! streams a staged replay recorded, so a layer's self time in the staged
//! budget can be split further (NetLog's own work versus the netsim apply
//! under it, the rpc codec versus the transport round trip). Plus the
//! config-delta mini-runs and direct calls into obs.

use crate::alloc;
use crate::driver::run_round;
use crate::metrics::Values;
use crate::staged::Staged;
use crate::stats::{median, percentile_us};
use crate::trace_gen::TraceKind;
use crate::workloads::{lean, Scale, Workload};
use legosdn::appvisor::{decode_frame, encode_frame, AppVisorProxy, RpcMessage, TransportKind};
use legosdn::netlog::{CommitBarrier, NetLog, TxTouch};
use legosdn::netsim::{Network, Topology};
use legosdn::obs::Obs;
use legosdn::openflow::wire;
use legosdn::prelude::*;
use std::hint::black_box;
use std::time::Instant;

fn ns_each(total: std::time::Duration, n: usize) -> f64 {
    total.as_nanos() as f64 / n.max(1) as f64
}

/// Everything timed on the recorded streams and the end-state network.
pub fn replay_probes(staged: &Staged, end: &Network, topo: &Topology, out: &mut Values) {
    let commands = &staged.commands;
    let events = &staged.events;
    let views = (&staged.translator.topology, &staged.translator.devices);

    // Bare `Network::apply` of the command stream on a fresh network:
    // what a NetLog transaction costs beyond this is NetLog's own.
    let apply: Vec<f64> = (0..3)
        .map(|_| {
            let mut net = Network::new(topo);
            let t0 = Instant::now();
            for c in commands {
                let _ = black_box(net.apply(c.dpid, &c.msg));
            }
            ns_each(t0.elapsed(), commands.len())
        })
        .collect();
    out.insert("netsim.apply_ns_per_cmd", median(&apply));

    // Rollback: the same stream in two-command transactions, each
    // executed and then aborted; only the abort is timed.
    let mut net = Network::new(topo);
    let mut netlog = NetLog::new(TxMode::Immediate);
    netlog.set_obs(Obs::new());
    let mut abort = std::time::Duration::ZERO;
    let mut txs = 0;
    for pair in commands.chunks(2) {
        let mut tx = netlog.begin();
        for c in pair {
            let _ = netlog.execute(&mut tx, &mut net, c.dpid, &c.msg);
        }
        let t0 = Instant::now();
        let _ = black_box(netlog.abort(tx, &mut net));
        abort += t0.elapsed();
        txs += 1;
    }
    out.insert("netlog.abort_ns_per_tx", ns_each(abort, txs));

    // The commit barrier with nobody to wait for: its bookkeeping alone.
    const POSITIONS: u64 = 20_000;
    let barrier = CommitBarrier::new(true);
    let t0 = Instant::now();
    for pos in 0..POSITIONS {
        let touch = TxTouch::Flows {
            dpids: vec![DatapathId(1 + pos % 80)],
            add_only: true,
        };
        barrier.declare(pos, 0, touch);
        black_box(barrier.acquire(pos));
        barrier.release(pos);
    }
    out.insert(
        "netlog.barrier_ns_per_pos",
        ns_each(t0.elapsed(), POSITIONS as usize),
    );

    let checker = Checker::default();
    let check: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            black_box(checker.check(end));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    out.insert("invariants.check_ns", median(&check));

    // OpenFlow wire codec over the command stream.
    let t0 = Instant::now();
    let wires: Vec<Vec<u8>> = commands
        .iter()
        .map(|c| wire::encode(&c.msg, Xid(1)))
        .collect();
    out.insert(
        "openflow.encode_ns_per_msg",
        ns_each(t0.elapsed(), commands.len()),
    );
    let t0 = Instant::now();
    for w in &wires {
        let _ = black_box(wire::decode(w));
    }
    out.insert(
        "openflow.decode_ns_per_msg",
        ns_each(t0.elapsed(), commands.len()),
    );
    let bytes: usize = wires.iter().map(Vec::len).sum();
    out.insert(
        "openflow.bytes_per_msg",
        bytes as f64 / commands.len().max(1) as f64,
    );

    // What every isolated delivery pays before a byte moves: a clone of
    // both views into the frame (`translate_burst` pays the same per
    // event), then the rpc codec.
    let sample = &events[..events.len().min(64)];
    let t0 = Instant::now();
    let frames: Vec<RpcMessage> = sample
        .iter()
        .map(|event| RpcMessage::EventDeliver {
            seq: 1,
            event: event.clone(),
            topology: views.0.clone(),
            devices: views.1.clone(),
            now: end.now(),
        })
        .collect();
    out.insert(
        "controller.view_clone_ns",
        ns_each(t0.elapsed(), sample.len()),
    );
    let t0 = Instant::now();
    let encoded: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
    out.insert(
        "appvisor.rpc_encode_ns_per_frame",
        ns_each(t0.elapsed(), sample.len()),
    );
    let t0 = Instant::now();
    for f in &encoded {
        let _ = black_box(decode_frame(f));
    }
    out.insert(
        "appvisor.rpc_decode_ns_per_frame",
        ns_each(t0.elapsed(), sample.len()),
    );
    let frame_bytes: usize = encoded.iter().map(Vec::len).sum();
    out.insert(
        "appvisor.deliver_frame_bytes",
        frame_bytes as f64 / sample.len().max(1) as f64,
    );

    // Blocking round trips to a real stub, over in-process channels and
    // over UDP on the host's loopback; nothing crosses a real link.
    let mut channel = stub_round_trips(TransportKind::Channel, sample, views, end);
    out.insert(
        "appvisor.deliver_rtt_us_p50.channel",
        percentile_us(&mut channel.deliver_ns, 50.0),
    );
    out.insert(
        "appvisor.snapshot_rtt_us_p50",
        percentile_us(&mut channel.snapshot_ns, 50.0),
    );
    out.insert("appvisor.wire_bytes_per_event", channel.bytes_per_event);
    let mut udp = stub_round_trips(TransportKind::Udp, sample, views, end);
    out.insert(
        "appvisor.deliver_rtt_us_p50.udp",
        percentile_us(&mut udp.deliver_ns, 50.0),
    );
    out.insert(
        "appvisor.comm_failures",
        (channel.comm_failures + udp.comm_failures) as f64,
    );
}

struct RoundTrips {
    deliver_ns: Vec<u64>,
    snapshot_ns: Vec<u64>,
    bytes_per_event: f64,
    comm_failures: u64,
}

/// A learning switch behind a stub, as `isolated_channel` hosts it.
/// Deliveries that fail (a frame past UDP's datagram limit, say) leave no
/// latency sample and count as comm failures.
fn stub_round_trips(
    kind: TransportKind,
    events: &[Event],
    views: (
        &legosdn::controller::TopologyView,
        &legosdn::controller::DeviceView,
    ),
    end: &Network,
) -> RoundTrips {
    let io = IoConfig::polled(1);
    let mut config = io.proxy;
    config.io = io.mode;
    let mut proxy = AppVisorProxy::new(config);
    proxy.set_obs(Obs::new());
    let mut trips = RoundTrips {
        deliver_ns: Vec::with_capacity(events.len()),
        snapshot_ns: Vec::new(),
        bytes_per_event: 0.0,
        comm_failures: 0,
    };
    let Ok(handle) = proxy.launch_app(Box::new(LearningSwitch::new()), kind) else {
        trips.comm_failures = events.len() as u64;
        return trips;
    };
    for event in events {
        let t0 = Instant::now();
        match proxy.deliver(handle, event, views.0, views.1, end.now()) {
            Ok(legosdn::appvisor::DeliverOutcome::Commands(_)) => {
                trips.deliver_ns.push(t0.elapsed().as_nanos() as u64);
            }
            _ => trips.comm_failures += 1,
        }
    }
    for _ in 0..32 {
        let t0 = Instant::now();
        if proxy.snapshot(handle).is_ok() {
            trips.snapshot_ns.push(t0.elapsed().as_nanos() as u64);
        }
    }
    if let Ok(stats) = proxy.wire_stats(handle) {
        trips.bytes_per_event =
            (stats.bytes_sent + stats.bytes_received) as f64 / stats.events_delivered.max(1) as f64;
        trips.comm_failures += stats.comm_failures;
    }
    proxy.shutdown();
    trips
}

fn d8w1() -> LegoSdnConfig {
    LegoSdnConfig {
        dispatch: DispatchConfig::default().window(8),
        ..lean()
    }
}

fn d8w2() -> LegoSdnConfig {
    LegoSdnConfig {
        dispatch: DispatchConfig::default().window(8).workers(2),
        ..lean()
    }
}

fn obs_on() -> LegoSdnConfig {
    LegoSdnConfig {
        obs: ObsConfig::instance(Obs::new()).trace_sample(0),
        ..lean()
    }
}

fn obs_traced() -> LegoSdnConfig {
    LegoSdnConfig {
        obs: ObsConfig::instance(Obs::new()),
        ..lean()
    }
}

/// One knob changed at a time from `lean`, on a short flash crowd: the
/// window tax, the shard tax, and what observability costs with no sleeps
/// to hide behind. Each figure is the median of three rounds.
pub fn config_deltas(scale: Scale, seed: u64, out: &mut Values) {
    let ns_per_event = |config: fn() -> LegoSdnConfig| {
        let w = Workload {
            name: "mini",
            why: "",
            trace: TraceKind::FlashCrowd,
            n: 1024,
            burst: 16,
            faulty: false,
            config,
        };
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let r = run_round(&w, scale, seed, false);
                r.stats.wall_ns as f64 / r.slowdown / r.stats.events.max(1) as f64
            })
            .collect();
        median(&runs)
    };
    let base = ns_per_event(lean);
    out.insert("core.ns_per_event.d1w1", base);
    out.insert("core.ns_per_event.d8w1", ns_per_event(d8w1));
    out.insert("core.ns_per_event.d8w2", ns_per_event(d8w2));
    out.insert("obs.tax_ns_per_event.on", ns_per_event(obs_on) - base);
    out.insert(
        "obs.tax_ns_per_event.traced",
        ns_per_event(obs_traced) - base,
    );
}

/// Direct `Obs::counter` / `Obs::span` calls: the registry mutex and the
/// three `String`s per lookup that every instrumented call site pays.
pub fn obs_calls(out: &mut Values) {
    const CALLS: usize = 20_000;
    let obs = Obs::new();
    obs.counter("core", "dispatches", "").inc();
    let allocs_before = alloc::counters().allocs;
    let t0 = Instant::now();
    for _ in 0..CALLS {
        obs.counter("core", "dispatches", "").inc();
    }
    out.insert("obs.counter_lookup_ns", ns_each(t0.elapsed(), CALLS));
    out.insert(
        "obs.allocs_per_counter_lookup",
        (alloc::counters().allocs - allocs_before) as f64 / CALLS as f64,
    );
    let t0 = Instant::now();
    for _ in 0..CALLS {
        drop(obs.span("core.run_cycle"));
    }
    out.insert("obs.span_ns", ns_each(t0.elapsed(), CALLS));
}
