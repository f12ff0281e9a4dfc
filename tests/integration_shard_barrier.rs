//! Cross-shard commit synchronization: when apps on *different* worker
//! shards write the same switch, the commit barrier must serialize their
//! transactions into exactly the order sequential dispatch would have
//! produced — including while a neighboring app is crashing and being
//! replay-recovered mid-window (DESIGN.md §9).

use legosdn::controller::app::{Ctx, RestoreError, SdnApp, Snapshot};
use legosdn::crashpad::{CheckpointPolicy, CrashPadConfig, PolicyTable, TransformDirection};
use legosdn::netlog::TxRecord;
use legosdn::netsim::FlowEntry;
use legosdn::prelude::*;

/// Installs one uniquely-tagged flow on a FIXED switch per packet-in, no
/// matter where the packet arrived. Every instance targets the same
/// switch, so any two instances on different shards write it in an order
/// only the barrier keeps.
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

    fn snapshot(&self) -> Snapshot {
        self.count.to_le_bytes().to_vec().into()
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
}

/// Six contested-switch writers plus one recurring crasher, driven
/// through three rounds of bursts with a crash trigger in the middle of
/// each burst. `oracle` runs the sequential reference
/// (`LegoSdnRuntime::oracle`) instead of the engine.
fn run(oracle: bool, depth: usize, workers: usize) -> Residue {
    let topo = Topology::linear(2, 2);
    let mut net = Network::new(&topo);
    let poison = topo.hosts[topo.hosts.len() - 1].mac;
    let config = LegoSdnConfig {
        isolation: IsolationMode::Channel,
        dispatch: DispatchConfig::default().window(depth).workers(workers),
        obs: ObsConfig::instance(Obs::new()),
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
    rt.shutdown();
    Residue {
        flow_tables,
        txlog,
        stats,
        recoveries,
        worker_spread,
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

/// Threads of this process named `lego-worker-*`.
fn worker_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("linux procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("lego-worker-"))
        .count()
}

/// [`worker_threads`], once it reads `n` or five seconds have passed: a
/// new thread names itself a moment after its spawn returns, and a joined
/// one can outlive its join by a moment in procfs.
fn worker_threads_settled_at(n: usize) -> usize {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let seen = worker_threads();
        if seen == n || std::time::Instant::now() > deadline {
            return seen;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

const THREADS_TEST: &str = "shard_threads_start_with_the_runtime_and_end_with_it";

#[test]
fn shard_threads_start_with_the_runtime_and_end_with_it() {
    // Every other test here runs shards too, in parallel, so the count is
    // taken in a process that runs this test alone.
    let args: Vec<String> = std::env::args().collect();
    if !(args.iter().any(|a| a == THREADS_TEST) && args.iter().any(|a| a == "--exact")) {
        let alone = std::process::Command::new(&args[0])
            .args([THREADS_TEST, "--exact", "--test-threads=1"])
            .output()
            .expect("run this test in a process of its own");
        assert!(
            alone.status.success(),
            "{THREADS_TEST} failed alone:\n{}{}",
            String::from_utf8_lossy(&alone.stdout),
            String::from_utf8_lossy(&alone.stderr)
        );
        return;
    }
    let topo = Topology::linear(2, 1);
    let mut net = Network::new(&topo);
    let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
    let runtime = |workers| {
        LegoSdnRuntime::new(LegoSdnConfig {
            dispatch: DispatchConfig::default().window(2).workers(workers),
            obs: ObsConfig::instance(Obs::new()),
            ..LegoSdnConfig::default()
        })
    };
    let lone = runtime(1);
    std::thread::sleep(std::time::Duration::from_millis(20));
    assert_eq!(worker_threads(), 0, "a single-worker runtime started one");
    drop(lone);
    for shutdown in [false, true] {
        let mut rt = runtime(4);
        for _ in 0..4 {
            rt.attach(Box::new(Hub::new())).unwrap();
        }
        assert_eq!(worker_threads_settled_at(3), 3, "after attach");
        rt.run_cycle(&mut net);
        for _ in 0..50 {
            net.inject(a, Packet::ethernet(a, b)).unwrap();
            rt.run_cycle(&mut net);
        }
        rt.tick_apps(&mut net);
        assert!(rt.stats().dispatches >= 4 * 50, "{:?}", rt.stats());
        assert_eq!(worker_threads(), 3, "after 50 cycles and a tick");
        if shutdown {
            rt.shutdown();
        } else {
            drop(rt);
        }
        assert_eq!(
            worker_threads_settled_at(0),
            0,
            "shard threads outlived their runtime (shutdown: {shutdown})"
        );
    }
}

/// Installs one uniquely-tagged flow per packet-in on a switch of its
/// own, so writers on different shards never write the same switch. A
/// packet-in for [`NOTIFY_INDEX`] makes the flow ask for flow-removed
/// notifications.
struct OwnSwitchWriter {
    own: DatapathId,
    count: u64,
}

const NOTIFY_INDEX: u64 = 90_000;

impl SdnApp for OwnSwitchWriter {
    fn name(&self) -> &str {
        "own-switch-writer"
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        vec![EventKind::PacketIn]
    }

    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        if let Event::PacketIn(_, pi) = event {
            let mut mat = Match::from_packet(&pi.packet, pi.in_port);
            mat.eth_src = Some(MacAddr::from_index(
                TAG_BASE + self.own.0 * 10_000 + self.count,
            ));
            self.count += 1;
            let mut fm = FlowMod::add(mat);
            fm.send_flow_removed = pi.packet.eth_dst == MacAddr::from_index(NOTIFY_INDEX);
            ctx.send(self.own, Message::FlowMod(fm));
        }
    }

    fn snapshot(&self) -> Snapshot {
        self.count.to_le_bytes().to_vec().into()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| RestoreError("bad snapshot".into()))?;
        self.count = u64::from_le_bytes(arr);
        Ok(())
    }
}

/// What a checker-less run leaves behind.
struct Uncontested {
    flow_tables: Vec<(DatapathId, Vec<FlowEntry>)>,
    txlog: Vec<TxRecord>,
    stats: RuntimeStats,
}

/// Four own-switch writers on two shards with no invariant checker,
/// driven through six 8-packet bursts, one cycle each. Burst 2 carries a
/// packet for [`NOTIFY_INDEX`], so later bursts' Adds can displace a
/// notify-flagged flow.
fn run_uncontested(oracle: bool) -> Uncontested {
    let topo = Topology::linear(4, 1);
    let mut net = Network::new(&topo);
    let config = LegoSdnConfig {
        dispatch: DispatchConfig::default().window(4).workers(2),
        obs: ObsConfig::instance(Obs::new()),
        checker: None,
        ..LegoSdnConfig::default()
    }
    .build()
    .expect("valid config");
    let mut rt = if oracle {
        LegoSdnRuntime::oracle(config)
    } else {
        LegoSdnRuntime::new(config)
    };
    for sw in 1..=4 {
        rt.attach(Box::new(OwnSwitchWriter {
            own: DatapathId(sw),
            count: 0,
        }))
        .unwrap();
    }
    rt.run_cycle(&mut net); // handshake + discovery
    let a = topo.hosts[0].mac;
    for round in 0..6u64 {
        for slot in 0..8u64 {
            let dst = if round == 2 && slot == 3 {
                NOTIFY_INDEX
            } else {
                700 + round * 16 + slot
            };
            let _ = net.inject(a, Packet::ethernet(a, MacAddr::from_index(dst)));
        }
        rt.run_cycle(&mut net);
    }

    let mut flow_tables: Vec<(DatapathId, Vec<FlowEntry>)> = net
        .switches()
        .map(|sw| (sw.dpid(), sw.table().iter().cloned().collect()))
        .collect();
    flow_tables.sort_by_key(|(dpid, _)| *dpid);
    let txlog = rt.netlog().log().iter().cloned().collect();
    let stats = rt.stats();
    rt.shutdown();
    Uncontested {
        flow_tables,
        txlog,
        stats,
    }
}

#[test]
fn disjoint_writers_without_a_checker_match_the_oracle() {
    let oracle = run_uncontested(true);
    assert!(
        oracle.stats.commands_executed >= 6 * 8 * 4,
        "{:?}",
        oracle.stats
    );
    let run = run_uncontested(false);
    assert!(
        run.flow_tables
            .iter()
            .any(|(_, table)| table.iter().any(|e| e.send_flow_removed)),
        "no notify-flagged flow was installed"
    );
    assert_eq!(oracle.flow_tables, run.flow_tables, "flow tables diverge");
    assert_eq!(oracle.txlog, run.txlog, "NetLog transaction order diverges");
    assert_eq!(oracle.stats, run.stats, "runtime counters diverge");
}
