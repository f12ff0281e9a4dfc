//! The per-event allocation budgets of the lean skeleton and the default
//! configuration, the rule that keeps them — nothing on the per-event path
//! looks an instrument up by name (DESIGN.md §7) — and the cost of one
//! warm checkpoint: a single allocation (DESIGN.md §15).
//!
//! A test binary of its own with a counting `#[global_allocator]`; its
//! tests measure one at a time, so nothing else allocates, or touches
//! `Obs::global()`, beside a measurement. Every number is a count of what
//! this program does with a seeded input: it repeats exactly, on any host.

use legosdn::controller::{DeviceView, Sandbox, TopologyView};
use legosdn::crashpad::CheckpointStore;
use legosdn::netsim::{SimDuration, Topology};
use legosdn::obs::Obs;
use legosdn::prelude::*;
use legosdn_testkit::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

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
/// trace. Measured 31.50 since a checkpoint is one exact-size copy (31.69
/// before; 33.69 before NetLog stopped cloning each executed message into
/// its undo log); the bound sits ~11 % above, so a per-event `String`,
/// `Vec` or by-name lookup that creeps back in (each worth 1–3 across
/// three apps) trips it.
const ALLOCS_PER_EVENT_BOUND: f64 = 35.0;

/// Allocations per translated event the default configuration (a
/// checkpoint before every event, the invariant guard, every event
/// traced) may spend on this trace. Measured 33.47 since a checkpoint is
/// one exact-size copy and an event is archived once (45.47 before); the
/// bound sits ~10 % above.
const DEFAULT_ALLOCS_PER_EVENT_BOUND: f64 = 37.0;

/// Allocations per event that tracing every event may add to the default
/// configuration on this trace.
const TRACE_ALLOCS_PER_EVENT_BOUND: f64 = 1.0;

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

/// The allocator's count is process-wide: one measurement at a time.
fn serial() -> MutexGuard<'static, ()> {
    static MEASURING: Mutex<()> = Mutex::new(());
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A runtime of `cfg` over the three-app roster on a fat tree, warmed
/// up: handshake and discovery, every host announced, and a first
/// stretch of the trace so tables, rings and scratch buffers have reached
/// their working size. `rest` is the stretch left to measure.
struct Warm {
    rt: LegoSdnRuntime,
    net: Network,
    rest: Vec<(MacAddr, Packet)>,
}

impl Warm {
    fn new(cfg: LegoSdnConfig) -> Self {
        let topo = Topology::fat_tree(4);
        let mut net = Network::new(&topo);
        let mut rt = LegoSdnRuntime::new(cfg);
        rt.attach(Box::new(SpanningTree::new())).unwrap();
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        rt.attach(Box::new(Firewall::new(vec![AclRule::deny_port(8080)])))
            .unwrap();
        quiesce(&mut rt, &mut net);
        for h in &topo.hosts {
            let hello = Packet::ethernet(h.mac, MacAddr([0xff; 6]));
            net.inject(h.mac, hello).unwrap();
            quiesce(&mut rt, &mut net);
        }
        let mut packets = trace(&topo, 7, 12_000);
        let rest = packets.split_off(4_000);
        drive(&mut rt, &mut net, &packets);
        Warm { rt, net, rest }
    }

    /// Drive the rest of the trace: `(allocations, events)`.
    fn measure(&mut self) -> (u64, u64) {
        let allocs = ALLOCS.load(Relaxed);
        let events = drive(&mut self.rt, &mut self.net, &self.rest);
        (ALLOCS.load(Relaxed) - allocs, events)
    }
}

#[test]
fn lean_skeleton_stays_inside_its_allocation_budget() {
    let _serial = serial();
    let mut cfg = LegoSdnConfig {
        checker: None,
        obs: ObsConfig::disabled(),
        ..LegoSdnConfig::default()
    };
    cfg.crashpad.checkpoints.interval = 64;
    assert_eq!(cfg.isolation, IsolationMode::Local);
    assert_eq!((cfg.dispatch.window, cfg.dispatch.workers), (1, 1));
    let mut warm = Warm::new(cfg);

    let obs = warm.rt.obs();
    let lookups = obs.registry_lookups();
    let global_lookups = Obs::global().registry_lookups();
    let committed = warm.rt.netlog().stats().committed;

    let (allocs, events) = warm.measure();

    let committed = warm.rt.netlog().stats().committed - committed;
    assert!(!warm.rt.is_crashed());
    assert!(
        committed >= 1_000,
        "only {committed} transactions committed"
    );
    assert!(events >= 1_000, "only {events} events translated");

    // The structural half: no instrument of the runtime's own instance is
    // looked up by name once it runs, and no layer reports to the global
    // instance it was never handed.
    assert_eq!(
        obs.registry_lookups(),
        lookups,
        "a by-name lookup on the per-event path"
    );
    assert_eq!(
        Obs::global().registry_lookups(),
        global_lookups,
        "a layer looked an instrument up on Obs::global()"
    );

    let per_event = allocs as f64 / events as f64;
    println!("{allocs} allocations / {events} events = {per_event:.2} ({committed} commits)");
    assert!(
        per_event <= ALLOCS_PER_EVENT_BOUND,
        "{per_event:.2} allocations per event, budget {ALLOCS_PER_EVENT_BOUND}"
    );
    warm.rt.shutdown();
}

/// The default configuration traces every event. On the same trace, a
/// traced event may cost at most [`TRACE_ALLOCS_PER_EVENT_BOUND`]
/// allocations more than the same configuration with sampling off: a
/// steady-state step reuses the storage of the trace it evicted.
#[test]
fn default_config_traces_every_event_almost_for_free() {
    let _serial = serial();
    let per_event = |sample: u64| {
        let mut warm = Warm::new(LegoSdnConfig {
            obs: ObsConfig::instance(Obs::new()).trace_sample(sample),
            ..LegoSdnConfig::default()
        });
        let (allocs, events) = warm.measure();
        assert!(events >= 1_000, "only {events} events translated");
        warm.rt.shutdown();
        allocs as f64 / events as f64
    };
    let (traced, untraced) = (per_event(1), per_event(0));
    println!(
        "default config: {traced:.2} allocations/event traced, {untraced:.2} untraced, \
         tracing {:.2}",
        traced - untraced
    );
    assert!(
        traced - untraced <= TRACE_ALLOCS_PER_EVENT_BOUND,
        "tracing costs {:.2} allocations per event, budget {TRACE_ALLOCS_PER_EVENT_BOUND}",
        traced - untraced
    );
    assert!(
        traced <= DEFAULT_ALLOCS_PER_EVENT_BOUND,
        "{traced:.2} allocations per event, budget {DEFAULT_ALLOCS_PER_EVENT_BOUND}"
    );
}

/// A learning switch that knows hosts on every switch of the benchmark's
/// fat tree, checkpointed the way Crash-Pad does before an event
/// (`Sandbox::capture`, then `CheckpointStore::record_snapshot`). Once
/// warm, a checkpoint is one allocation: the stored copy, at exactly its
/// length. The tables are memoized segments, so the encoding is copies;
/// the encoder's buffer is reused, so it does not regrow; and the bytes
/// arrive at their exact size, so the store keeps them as they are.
#[test]
fn a_warm_checkpoint_is_one_allocation_at_its_exact_size() {
    let _serial = serial();
    let topo = Topology::fat_tree(8);
    let (topology, devices) = (TopologyView::default(), DeviceView::default());
    let mut app = Sandbox::new(Box::new(LearningSwitch::new()));
    let mut store = CheckpointStore::new(CheckpointPolicy::default());
    let packet_in = |dpid: DatapathId, port: u16, src: MacAddr, dst: MacAddr| {
        Event::PacketIn(
            dpid,
            PacketIn {
                buffer_id: BufferId::NONE,
                in_port: PortNo::Phys(port),
                reason: PacketInReason::NoMatch,
                packet: Packet::ethernet(src, dst),
            },
        )
    };
    let deliver = |app: &mut Sandbox, event: &Event| {
        let mut ctx = Ctx::new(SimTime::ZERO, &topology, &devices);
        app.on_event(event, &mut ctx).expect("the app lives");
    };
    for &dpid in topo.switches.keys() {
        for (i, host) in topo.hosts.iter().take(32).enumerate() {
            let dst = topo.hosts[(i + 1) % topo.hosts.len()].mac;
            deliver(&mut app, &packet_in(dpid, 1 + i as u16 % 8, host.mac, dst));
        }
    }
    // Teaches nothing: the counters move, the tables stay as they were.
    let (first, h0, h1) = (
        *topo.switches.keys().next().unwrap(),
        &topo.hosts[0],
        &topo.hosts[1],
    );
    let quiet = packet_in(first, 1, h0.mac, h1.mac);
    for _ in 0..10 {
        deliver(&mut app, &quiet);
        assert!(store.record_snapshot("ls", app.capture().unwrap()));
    }
    deliver(&mut app, &quiet);

    let before = ALLOCS.load(Relaxed);
    let stored = store.record_snapshot("ls", app.capture().unwrap());
    let allocs = ALLOCS.load(Relaxed) - before;

    let latest = *store.history("ls").last().unwrap();
    println!(
        "warm checkpoint of {} bytes: {allocs} allocation(s)",
        latest.bytes.len()
    );
    assert!(stored, "the counters changed: stored, not elided");
    assert_eq!(allocs, 1, "a warm checkpoint allocates once");
    assert_eq!(latest.bytes.capacity(), latest.bytes.len());
}
