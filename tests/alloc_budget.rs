//! The per-event allocation budget of the lean skeleton, and the rule that
//! keeps it: nothing on the per-event path looks an instrument up by name
//! (DESIGN.md §7).
//!
//! A test binary of its own with a counting `#[global_allocator]` and a
//! single test, so nothing else allocates, or touches `Obs::global()`,
//! beside it. Both numbers are counts of what this program does with a
//! seeded input: they repeat exactly, on any host.

use legosdn::netsim::{SimDuration, Topology};
use legosdn::obs::Obs;
use legosdn::prelude::*;
use legosdn_testkit::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// statistic and publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per translated event the lean skeleton may spend on this
/// trace. Measured 34.72 when written; the bound sits ~15 % above, so a
/// per-event `String`, `Vec` or by-name lookup that creeps back in (each
/// worth 1–3 across three apps) trips it.
const ALLOCS_PER_EVENT_BOUND: f64 = 40.0;

/// Packets between two one-second clock ticks, so idle expiry runs.
const TICK_EVERY: usize = 256;

/// Eight long-lived 5-tuples carry ~70 % of the packets (table hits once
/// installed); the rest are one-off mice (packet-ins, new entries).
fn trace(topo: &Topology, seed: u64, n: usize) -> Vec<(MacAddr, Packet)> {
    let mut rng = Rng::seed_from_u64(seed);
    let flow = |rng: &mut Rng, dport: u16| {
        let (src, dst) = (rng.pick(&topo.hosts), rng.pick(&topo.hosts));
        let sport = rng.gen_range(1024..51_024u16);
        (
            src.mac,
            Packet::tcp(src.mac, dst.mac, src.ip, dst.ip, sport, dport),
        )
    };
    let elephants: Vec<_> = (0..8).map(|_| flow(&mut rng, 443)).collect();
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.7) {
                rng.pick(&elephants).clone()
            } else {
                flow(&mut rng, 80)
            }
        })
        .collect()
}

fn quiesce(rt: &mut LegoSdnRuntime, net: &mut Network) -> u64 {
    let mut events = 0;
    while net.peek_event().is_some() {
        events += rt.run_cycle(net).events as u64;
    }
    events
}

/// Offer `packets` one per op with a tick every [`TICK_EVERY`]; returns
/// the translated events.
fn drive(rt: &mut LegoSdnRuntime, net: &mut Network, packets: &[(MacAddr, Packet)]) -> u64 {
    let mut events = 0;
    for (i, (src, pkt)) in packets.iter().enumerate() {
        net.inject(*src, pkt.clone()).expect("trace hosts exist");
        events += quiesce(rt, net);
        if (i + 1) % TICK_EVERY == 0 {
            net.tick(SimDuration::from_secs(1));
            events += quiesce(rt, net);
        }
    }
    events
}

/// `legosdn_netsim_flow_*` series in the global exposition.
fn churn_series() -> u64 {
    Obs::global()
        .prometheus()
        .lines()
        .filter(|l| l.starts_with("legosdn_netsim_flow_"))
        .count() as u64
}

#[test]
fn lean_skeleton_stays_inside_its_allocation_budget() {
    let topo = Topology::fat_tree(4);
    let mut net = Network::new(&topo);
    let mut cfg = LegoSdnConfig {
        checker: None,
        obs: ObsConfig::disabled(),
        ..LegoSdnConfig::default()
    };
    cfg.crashpad.checkpoints.interval = 64;
    assert_eq!(cfg.isolation, IsolationMode::Local);
    assert_eq!((cfg.dispatch.window.depth, cfg.dispatch.workers), (1, 1));
    let mut rt = LegoSdnRuntime::new(cfg);
    rt.attach(Box::new(SpanningTree::new())).unwrap();
    rt.attach(Box::new(LearningSwitch::new())).unwrap();
    rt.attach(Box::new(Firewall::new(vec![AclRule::deny_port(8080)])))
        .unwrap();

    // Warm-up: handshake and discovery, every host announces itself, and
    // a first stretch of the trace so tables, rings and scratch buffers
    // have reached their working size.
    quiesce(&mut rt, &mut net);
    for h in &topo.hosts {
        let hello = Packet::ethernet(h.mac, MacAddr([0xff; 6]));
        net.inject(h.mac, hello).unwrap();
        quiesce(&mut rt, &mut net);
    }
    let packets = trace(&topo, 7, 12_000);
    let (warm, measured) = packets.split_at(4_000);
    drive(&mut rt, &mut net, warm);

    let obs = rt.obs();
    let lookups = obs.registry_lookups();
    let global_lookups = Obs::global().registry_lookups();
    let global_series = churn_series();
    let committed = rt.netlog().stats().committed;
    let allocs = ALLOCS.load(Relaxed);

    let events = drive(&mut rt, &mut net, measured);

    let allocs = ALLOCS.load(Relaxed) - allocs;
    let committed = rt.netlog().stats().committed - committed;
    assert!(!rt.is_crashed());
    assert!(
        committed >= 1_000,
        "only {committed} transactions committed"
    );
    assert!(events >= 1_000, "only {events} events translated");

    // The structural half: no instrument of the runtime's own instance is
    // looked up by name once it runs. The switches' churn counters land
    // in the global instance; there, each lookup since the warm-up must
    // have been the first use of a series, never a per-flow-mod hit.
    assert_eq!(
        obs.registry_lookups(),
        lookups,
        "a by-name lookup on the per-event path"
    );
    assert_eq!(
        Obs::global().registry_lookups() - global_lookups,
        churn_series() - global_series,
        "a switch looked a churn counter up again"
    );

    let per_event = allocs as f64 / events as f64;
    println!("{allocs} allocations / {events} events = {per_event:.2} ({committed} commits)");
    assert!(
        per_event <= ALLOCS_PER_EVENT_BOUND,
        "{per_event:.2} allocations per event, budget {ALLOCS_PER_EVENT_BOUND}"
    );
    rt.shutdown();
}
