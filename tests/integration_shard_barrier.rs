//! Cross-shard commit synchronization: when apps on *different* worker
//! shards write the same switch, the commit barrier must serialize their
//! transactions into exactly the order sequential dispatch would have
//! produced — including while a neighboring app is crashing and being
//! replay-recovered mid-window (DESIGN.md §9).

use legosdn::controller::app::{Ctx, RestoreError, SdnApp};
use legosdn::crashpad::{CheckpointPolicy, CrashPadConfig, PolicyTable, TransformDirection};
use legosdn::netlog::TxRecord;
use legosdn::netsim::FlowEntry;
use legosdn::prelude::*;

/// Installs one uniquely-tagged flow on a FIXED switch per packet-in, no
/// matter where the packet arrived. Every instance targets the same
/// switch, so any two instances on different shards force a shared-switch
/// conflict at the barrier.
struct SharedSwitchWriter {
    id: u64,
    count: u64,
}

const TAG_BASE: u64 = 40_000;
const CONTESTED: DatapathId = DatapathId(1);

impl SdnApp for SharedSwitchWriter {
    fn name(&self) -> &str {
        "shared-switch-writer"
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        vec![EventKind::PacketIn]
    }

    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        if let Event::PacketIn(_, pi) = event {
            let mut mat = Match::from_packet(&pi.packet, pi.in_port);
            // Unique per (instance, delivery): installs never shadow one
            // another, so the contested table records every commit.
            mat.eth_src = Some(MacAddr::from_index(
                TAG_BASE + self.id * 10_000 + self.count,
            ));
            self.count += 1;
            ctx.send(CONTESTED, Message::FlowMod(FlowMod::add(mat)));
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        self.count.to_le_bytes().to_vec()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| RestoreError("bad snapshot".into()))?;
        self.count = u64::from_le_bytes(arr);
        Ok(())
    }
}

struct Residue {
    flow_tables: Vec<(DatapathId, Vec<FlowEntry>)>,
    txlog: Vec<TxRecord>,
    stats: RuntimeStats,
    recoveries: usize,
    worker_spread: usize,
    shared_switch_conflicts: u64,
}

/// Six contested-switch writers plus one recurring crasher, driven
/// through three rounds of bursts with a crash trigger in the middle of
/// each burst.
fn run(oracle: bool, depth: usize, workers: usize) -> Residue {
    run_lookahead(oracle, depth, workers, 1)
}

/// [`run`] with an explicit cross-cycle lookahead. `oracle` runs the
/// sequential reference (`LegoSdnRuntime::oracle`) instead of the engine.
fn run_lookahead(oracle: bool, depth: usize, workers: usize, lookahead: usize) -> Residue {
    let topo = Topology::linear(2, 2);
    let mut net = Network::new(&topo);
    let poison = topo.hosts[topo.hosts.len() - 1].mac;
    let obs = Obs::new();
    let config = LegoSdnConfig {
        isolation: IsolationMode::Channel,
        dispatch: DispatchConfig::default()
            .window(depth)
            .workers(workers)
            .lookahead(lookahead),
        obs: ObsConfig::instance(obs.clone()),
        crashpad: CrashPadConfig {
            checkpoints: CheckpointPolicy {
                interval: 2,
                history: 8,
                ..CheckpointPolicy::default()
            },
            policies: PolicyTable::with_default(CompromisePolicy::Absolute),
            transform_direction: TransformDirection::Decompose,
        },
        ..LegoSdnConfig::default()
    }
    .build()
    .expect("valid config");
    let mut rt = if oracle {
        LegoSdnRuntime::oracle(config)
    } else {
        LegoSdnRuntime::new(config)
    };

    let mut ids = Vec::new();
    for id in 0..6u64 {
        ids.push(
            rt.attach(Box::new(SharedSwitchWriter { id, count: 0 }))
                .unwrap(),
        );
    }
    // The crasher fires on every poison packet, so recovery (restore +
    // replay under the Absolute policy) interleaves with the writers'
    // contested commits in every round.
    rt.attach(Box::new(FaultyApp::new(
        Box::new(Hub::new()),
        BugTrigger::OnPacketToMac(poison),
        BugEffect::Crash,
    )))
    .unwrap();
    let worker_spread = ids
        .iter()
        .filter_map(|&id| rt.worker_of(id))
        .collect::<std::collections::BTreeSet<_>>()
        .len();

    rt.run_cycle(&mut net); // handshake + discovery
    let a = topo.hosts[0].mac;
    let mut recoveries = 0;
    for round in 0..3u64 {
        // A 5-packet burst with the crash trigger mid-burst: slots after
        // the crash are cancelled and re-sent from the restored state
        // while the writers keep committing against the contested switch.
        for slot in 0..5u64 {
            let dst = if slot == 2 {
                poison
            } else {
                MacAddr::from_index(600 + round * 8 + slot)
            };
            let _ = net.inject(a, Packet::ethernet(a, dst));
        }
        let report = rt.run_cycle(&mut net);
        recoveries += report.recoveries;
    }
    assert!(!rt.is_crashed());

    let mut flow_tables: Vec<(DatapathId, Vec<FlowEntry>)> = net
        .switches()
        .map(|sw| (sw.dpid(), sw.table().iter().cloned().collect()))
        .collect();
    flow_tables.sort_by_key(|(dpid, _)| *dpid);
    let txlog = rt.netlog().log().iter().cloned().collect();
    let stats = rt.stats();
    let shared_switch_conflicts = obs
        .counter("netlog", "barrier_shared_switch_conflicts", "")
        .get();
    rt.shutdown();
    Residue {
        flow_tables,
        txlog,
        stats,
        recoveries,
        worker_spread,
        shared_switch_conflicts,
    }
}

#[test]
fn cross_shard_writes_to_one_switch_commit_in_sequential_order() {
    let reference = run(true, 1, 1);
    assert!(
        reference.recoveries > 0,
        "campaign produced no crash recovery"
    );
    assert!(!reference.txlog.is_empty(), "campaign produced no txlog");
    for workers in [2usize, 4] {
        let sharded = run(false, 4, workers);
        assert!(
            sharded.worker_spread > 1,
            "workers {workers}: all writers landed on one shard"
        );
        assert!(
            sharded.shared_switch_conflicts > 0,
            "workers {workers}: no shared-switch conflict ever reached the barrier"
        );
        assert!(
            sharded.recoveries > 0,
            "workers {workers}: the crasher never fired"
        );
        assert_eq!(
            reference.flow_tables, sharded.flow_tables,
            "workers {workers}: contested flow tables diverge from sequential"
        );
        assert_eq!(
            reference.txlog, sharded.txlog,
            "workers {workers}: NetLog transaction order diverges from sequential"
        );
        assert_eq!(
            reference.stats, sharded.stats,
            "workers {workers}: runtime counters diverge from sequential"
        );
    }
}

#[test]
fn crash_during_lookahead_replays_contested_commits_in_order() {
    // At lookahead 2 the per-stub send cursor runs ahead into raws this
    // cycle's own commits enqueue (flood replies arriving as fresh
    // packet-ins on the contested switch). The mid-burst crash must
    // cancel those cross-cycle in-flight tags and re-send them from the
    // restored state without perturbing the contested commit order.
    let reference = run_lookahead(true, 1, 1, 2);
    assert!(
        reference.recoveries > 0,
        "lookahead campaign produced no crash recovery"
    );
    assert!(!reference.txlog.is_empty(), "campaign produced no txlog");
    for workers in [2usize, 4] {
        let sharded = run_lookahead(false, 4, workers, 2);
        assert!(
            sharded.worker_spread > 1,
            "workers {workers}: all writers landed on one shard"
        );
        assert!(
            sharded.recoveries > 0,
            "workers {workers}: the crasher never fired under lookahead"
        );
        assert_eq!(
            reference.flow_tables, sharded.flow_tables,
            "workers {workers}: lookahead flow tables diverge from sequential"
        );
        assert_eq!(
            reference.txlog, sharded.txlog,
            "workers {workers}: lookahead NetLog order diverges from sequential"
        );
        assert_eq!(
            reference.stats, sharded.stats,
            "workers {workers}: lookahead counters diverge from sequential"
        );
    }
}

#[test]
fn contested_commit_order_is_stable_across_repeated_sharded_runs() {
    let first = run(false, 4, 4);
    for _ in 0..2 {
        let again = run(false, 4, 4);
        assert_eq!(first.flow_tables, again.flow_tables);
        assert_eq!(first.txlog, again.txlog);
        assert_eq!(first.stats, again.stats);
    }
}

#[test]
fn shards_without_apps_sit_the_window_out() {
    // One app on four shards: the barrier cursor (and the slot release
    // behind it) is driven by the one busy shard alone, so an idle shard
    // walking the window at its own pace would fall behind the slots
    // being released.
    let topo = Topology::linear(2, 1);
    let mut net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
        dispatch: DispatchConfig::default().window(2).workers(4),
        obs: ObsConfig::instance(Obs::new()),
        ..LegoSdnConfig::default()
    });
    rt.attach(Box::new(LearningSwitch::new())).unwrap();
    rt.run_cycle(&mut net);
    let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
    for _ in 0..4 {
        net.inject(a, Packet::ethernet(a, b)).unwrap();
    }
    let report = rt.run_cycle(&mut net);
    assert!(report.events >= 4, "{report:?}");
    assert!(rt.stats().dispatches >= 4, "{:?}", rt.stats());

    // And with no app anywhere the events are still translated.
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
        dispatch: DispatchConfig::default().workers(2),
        obs: ObsConfig::instance(Obs::new()),
        ..LegoSdnConfig::default()
    });
    net.inject(a, Packet::ethernet(a, b)).unwrap();
    assert!(rt.run_cycle(&mut net).events > 0);
}
