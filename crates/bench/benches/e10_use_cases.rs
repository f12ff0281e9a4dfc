//! E10 — §3.4/§5 novel use cases, exercised and timed:
//! N-version voting overhead, hot-standby (clone pair) overhead, controller
//! upgrade (LegoSDN) vs reboot (monolithic), and per-app resource-limit
//! enforcement cost.

use legosdn::controller::services::{DeviceView, TopologyView};
use legosdn::controller::Sandbox;
use legosdn::crashpad::RecoverableApp;
use legosdn::nversion::NVersionApp;
use legosdn::prelude::*;
use legosdn_bench::harness::{criterion_group, Criterion};
use legosdn_bench::{print_table, workloads};
use std::time::Instant;

fn time_events(n: u64, mut f: impl FnMut(u64)) -> f64 {
    for i in 0..50 {
        f(i);
    }
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    start.elapsed().as_secs_f64() * 1e6 / n as f64
}

fn summary() {
    let topo = TopologyView::default();
    let dev = DeviceView::default();
    let n = 2_000;

    // Single app baseline vs 3-version group vs clone pair.
    let mut single = Sandbox::new(Box::new(Hub::new()));
    let single_us = time_events(n, |i| {
        let _ = single.deliver(&workloads::bench_packet_in(i), &topo, &dev, SimTime::ZERO);
    });

    let mut nv = Sandbox::new(Box::new(NVersionApp::new(
        "hub-3v",
        vec![
            Box::new(Hub::new()),
            Box::new(Hub::new()),
            Box::new(Hub::new()),
        ],
    )));
    let nv_us = time_events(n, |i| {
        let _ = nv.deliver(&workloads::bench_packet_in(i), &topo, &dev, SimTime::ZERO);
    });

    let mut pair = Sandbox::new(Box::new(NVersionApp::standby(
        "hub-hs",
        vec![Box::new(Hub::new()), Box::new(Hub::new())],
    )));
    let clone_us = time_events(n, |i| {
        let _ = pair.deliver(&workloads::bench_packet_in(i), &topo, &dev, SimTime::ZERO);
    });

    print_table(
        "E10a: redundancy mechanisms — per-event cost",
        &["configuration", "us/event", "x single"],
        &[
            vec!["single app".into(), format!("{single_us:.2}"), "1.0".into()],
            vec![
                "3-version vote".into(),
                format!("{nv_us:.2}"),
                format!("{:.1}", nv_us / single_us),
            ],
            vec![
                "clone pair".into(),
                format!("{clone_us:.2}"),
                format!("{:.1}", clone_us / single_us),
            ],
        ],
    );

    // Upgrade vs reboot: state retained and wall time.
    let topo2 = Topology::linear(3, 1);
    let mut net = Network::new(&topo2);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig::default());
    rt.attach(Box::new(LearningSwitch::new())).unwrap();
    rt.run_cycle(&mut net);
    workloads::round_robin_traffic(&topo2, 6, |s, d| {
        let _ = net.inject(s, Packet::ethernet(s, d));
        rt.run_cycle(&mut net);
    });
    let start = Instant::now();
    rt.upgrade_controller(&mut net);
    let upgrade_us = start.elapsed().as_secs_f64() * 1e6;
    let lego_links = rt.translator().topology.n_links();
    let app_state_kept = rt
        .crashpad()
        .checkpoints
        .events_delivered("learning-switch")
        > 0;

    let mut net = Network::new(&topo2);
    let mut ctl = MonolithicController::new();
    ctl.attach(Box::new(LearningSwitch::new()));
    ctl.run_cycle(&mut net);
    workloads::round_robin_traffic(&topo2, 6, |s, d| {
        let _ = net.inject(s, Packet::ethernet(s, d));
        ctl.run_cycle(&mut net);
    });
    let start = Instant::now();
    ctl.reboot();
    ctl.run_cycle(&mut net); // re-handshake happens only on new events
    let reboot_us = start.elapsed().as_secs_f64() * 1e6;
    let mono_links = ctl.translator().topology.n_links();

    print_table(
        "E10b: controller upgrade (LegoSDN) vs reboot (monolithic)",
        &[
            "architecture",
            "wall us",
            "links known after",
            "app state kept",
        ],
        &[
            vec![
                "legosdn upgrade".into(),
                format!("{upgrade_us:.0}"),
                lego_links.to_string(),
                app_state_kept.to_string(),
            ],
            vec![
                "monolithic reboot".into(),
                format!("{reboot_us:.0}"),
                mono_links.to_string(),
                "false".into(),
            ],
        ],
    );

    // Resource limits: enforcement overhead is a per-dispatch counter check.
    let (mut net, mut rt, topo3) = workloads::lego_on_linear(2, 1, LegoSdnConfig::default());
    rt.attach_with_limits(
        Box::new(Hub::new()),
        ResourceLimits {
            max_events: Some(u64::MAX >> 1),
            ..ResourceLimits::default()
        },
    )
    .unwrap();
    rt.run_cycle(&mut net);
    let hosts = topo3.hosts.clone();
    let limited_us = time_events(300, |i| {
        let src = hosts[(i % 2) as usize].mac;
        let _ = net.inject(src, Packet::ethernet(src, MacAddr::from_index(900 + i)));
        rt.run_cycle(&mut net);
    });
    eprintln!("resource-limited dispatch through full runtime: {limited_us:.1} us/event\n");
}

fn bench(c: &mut Criterion) {
    let topo = TopologyView::default();
    let dev = DeviceView::default();
    let mut g = c.benchmark_group("e10_use_cases");
    let mut i = 0u64;

    let mut single = Sandbox::new(Box::new(Hub::new()));
    g.bench_function("single_app", |b| {
        b.iter(|| {
            i += 1;
            single.deliver(&workloads::bench_packet_in(i), &topo, &dev, SimTime::ZERO)
        });
    });

    let mut nv = Sandbox::new(Box::new(NVersionApp::new(
        "hub-3v",
        vec![
            Box::new(Hub::new()),
            Box::new(Hub::new()),
            Box::new(Hub::new()),
        ],
    )));
    g.bench_function("nversion_3", |b| {
        b.iter(|| {
            i += 1;
            nv.deliver(&workloads::bench_packet_in(i), &topo, &dev, SimTime::ZERO)
        });
    });

    let mut pair = Sandbox::new(Box::new(NVersionApp::standby(
        "hub-hs",
        vec![Box::new(Hub::new()), Box::new(Hub::new())],
    )));
    g.bench_function("clone_pair", |b| {
        b.iter(|| {
            i += 1;
            pair.deliver(&workloads::bench_packet_in(i), &topo, &dev, SimTime::ZERO)
        });
    });
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
