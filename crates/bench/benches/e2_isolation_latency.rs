//! E2 — Table 1 / §3.1: the latency cost of isolation.
//!
//! Per-event dispatch latency across the four hosting configurations:
//! monolithic direct call, in-process sandbox (panic containment only),
//! AppVisor over in-memory channels, and AppVisor over UDP loopback (the
//! paper's prototype transport) — both AppVisor rows on the stub-host
//! pool, the one way a stub is hosted. The UDP path includes real
//! serialization of the event + controller views and the kernel round
//! trip — the "additional latency into the control-loop" §3.1 argues is
//! acceptable against the 4x slowdown controllers already impose on flow
//! setup.

use legosdn::appvisor::{AppVisorProxy, ProxyConfig, StubConfig, TransportKind};
use legosdn::controller::app::{Ctx, SdnApp};
use legosdn::controller::services::{DeviceView, TopologyView};
use legosdn::controller::Sandbox;
use legosdn::crashpad::RecoverableApp;
use legosdn::prelude::*;
use legosdn_bench::harness::{criterion_group, Criterion};
use legosdn_bench::{print_table, workloads};
use std::time::{Duration, Instant};

fn proxy() -> AppVisorProxy {
    AppVisorProxy::new(ProxyConfig {
        deliver_timeout: Duration::from_secs(2),
        rpc_timeout: Duration::from_secs(2),
        heartbeat_timeout: Duration::from_secs(10),
        stub: StubConfig {
            heartbeat_period: Duration::from_millis(500),
            report_crashes: true,
        },
        ..Default::default()
    })
}

/// Time `n` deliveries through a closure; returns mean microseconds.
fn time_deliveries(n: u64, mut deliver: impl FnMut(u64)) -> f64 {
    // Warm up.
    for i in 0..50 {
        deliver(i);
    }
    let start = Instant::now();
    for i in 0..n {
        deliver(i);
    }
    start.elapsed().as_secs_f64() * 1e6 / n as f64
}

fn summary() {
    let topo = TopologyView::default();
    let dev = DeviceView::default();
    let n = 2_000u64;

    // Direct call (monolithic's dispatch cost).
    let mut direct_app = LearningSwitch::new();
    let direct = time_deliveries(n, |i| {
        let ev = workloads::bench_packet_in(i);
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        direct_app.on_event(&ev, &mut ctx);
        let _ = ctx.into_commands();
    });

    // In-process sandbox.
    let mut sandbox = Sandbox::new(Box::new(LearningSwitch::new()));
    let local = time_deliveries(n, |i| {
        let ev = workloads::bench_packet_in(i);
        let _ = sandbox.deliver(&ev, &topo, &dev, SimTime::ZERO);
    });

    // AppVisor / channel.
    let mut p = proxy();
    let h = p
        .launch_app(Box::new(LearningSwitch::new()), TransportKind::Channel)
        .unwrap();
    let channel = time_deliveries(n, |i| {
        let ev = workloads::bench_packet_in(i);
        let _ = p.deliver(h, &ev, &topo, &dev, SimTime::ZERO);
    });
    let channel_bytes = p.wire_stats(h).unwrap();
    let _ = p.shutdown();

    // AppVisor / UDP (paper prototype).
    let mut p = proxy();
    let h = p
        .launch_app(Box::new(LearningSwitch::new()), TransportKind::Udp)
        .unwrap();
    let udp = time_deliveries(n, |i| {
        let ev = workloads::bench_packet_in(i);
        let _ = p.deliver(h, &ev, &topo, &dev, SimTime::ZERO);
    });
    let udp_bytes = p.wire_stats(h).unwrap();
    let _ = p.shutdown();

    let per_event_wire =
        (udp_bytes.bytes_sent + udp_bytes.bytes_received) / (udp_bytes.events_delivered.max(1));
    print_table(
        "E2: per-event dispatch latency by isolation mode",
        &["mode", "mean us/event", "x direct", "wire bytes/event"],
        &[
            vec![
                "direct (monolithic)".into(),
                format!("{direct:.2}"),
                "1.0".into(),
                "0".into(),
            ],
            vec![
                "local sandbox".into(),
                format!("{local:.2}"),
                format!("{:.1}", local / direct),
                "0".into(),
            ],
            vec![
                "appvisor channel".into(),
                format!("{channel:.2}"),
                format!("{:.1}", channel / direct),
                ((channel_bytes.bytes_sent + channel_bytes.bytes_received)
                    / channel_bytes.events_delivered.max(1))
                .to_string(),
            ],
            vec![
                "appvisor UDP (paper)".into(),
                format!("{udp:.2}"),
                format!("{:.1}", udp / direct),
                per_event_wire.to_string(),
            ],
        ],
    );

    // Parallel fan-out: one event to 4 isolated apps, one blocking
    // deliver each vs queue-all-then-collect (the default pool gives four
    // stubs a host thread each, so they process concurrently).
    let mut p = proxy();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            p.launch_app(Box::new(LearningSwitch::new()), TransportKind::Channel)
                .unwrap()
        })
        .collect();
    let seq_us = time_deliveries(500, |i| {
        let ev = workloads::bench_packet_in(i);
        for &h in &handles {
            let _ = p.deliver(h, &ev, &topo, &dev, SimTime::ZERO);
        }
    });
    let fan_us = time_deliveries(500, |i| {
        let ev = workloads::bench_packet_in(i);
        let _ = workloads::fan_out(&mut p, &handles, &ev, &topo, &dev);
    });
    eprintln!(
        "fan-out to 4 isolated apps: sequential {seq_us:.1} us/event, \
         parallel {fan_us:.1} us/event ({:.2}x)",
        seq_us / fan_us
    );
    let _ = p.shutdown();

    // OpenFlow wire-codec cost, the serialization component in isolation.
    let fm = Message::FlowMod(
        FlowMod::add(Match::from_packet(
            &Packet::tcp(
                MacAddr::from_index(1),
                MacAddr::from_index(2),
                Ipv4Addr::from_index(1),
                Ipv4Addr::from_index(2),
                40_000,
                80,
            ),
            PortNo::Phys(1),
        ))
        .action(Action::Output(PortNo::Phys(2))),
    );
    let start = Instant::now();
    let iters = 100_000u64;
    for i in 0..iters {
        let bytes = legosdn::openflow::wire::encode(&fm, Xid(i as u32));
        let _ = legosdn::openflow::wire::decode(&bytes).unwrap();
    }
    let codec_ns = start.elapsed().as_nanos() as f64 / iters as f64;
    eprintln!("OpenFlow flow-mod encode+decode: {codec_ns:.0} ns/roundtrip\n");
}

fn bench(c: &mut Criterion) {
    let topo = TopologyView::default();
    let dev = DeviceView::default();

    let mut g = c.benchmark_group("e2_isolation_latency");
    let mut direct_app = LearningSwitch::new();
    let mut i = 0u64;
    g.bench_function("direct", |b| {
        b.iter(|| {
            i += 1;
            let ev = workloads::bench_packet_in(i);
            let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
            direct_app.on_event(&ev, &mut ctx);
            ctx.into_commands()
        });
    });

    let mut sandbox = Sandbox::new(Box::new(LearningSwitch::new()));
    g.bench_function("local_sandbox", |b| {
        b.iter(|| {
            i += 1;
            sandbox.deliver(&workloads::bench_packet_in(i), &topo, &dev, SimTime::ZERO)
        });
    });

    let mut p = proxy();
    let h = p
        .launch_app(Box::new(LearningSwitch::new()), TransportKind::Channel)
        .unwrap();
    g.bench_function("appvisor_channel", |b| {
        b.iter(|| {
            i += 1;
            p.deliver(
                h,
                &workloads::bench_packet_in(i),
                &topo,
                &dev,
                SimTime::ZERO,
            )
            .unwrap()
        });
    });
    let _ = p.shutdown();

    let mut p = proxy();
    let h = p
        .launch_app(Box::new(LearningSwitch::new()), TransportKind::Udp)
        .unwrap();
    g.bench_function("appvisor_udp", |b| {
        b.iter(|| {
            i += 1;
            p.deliver(
                h,
                &workloads::bench_packet_in(i),
                &topo,
                &dev,
                SimTime::ZERO,
            )
            .unwrap()
        });
    });
    let _ = p.shutdown();
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    summary();
    benches();
    legosdn_bench::harness::Criterion::default()
        .configure_from_args()
        .final_summary();
}
