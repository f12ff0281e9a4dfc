//! A lost engine is a set of failed apps (DESIGN.md §5). A panic in the
//! engine's own code — filling the window, harvesting it, or on the
//! commit lane with a transaction open — kills every running app through
//! Crash-Pad and nothing else: the cycle returns, and the network and the
//! txlog are what the sequential reference leaves when every app dies at
//! the first position the panic kept it from committing.

use super::*;
use crate::config::ObsConfig;
use crate::engine::FaultPoint;
use legosdn_controller::app::{Ctx, RestoreError};
use legosdn_controller::event::EventKind;
use legosdn_crashpad::{CompromisePolicy, FailureKind, ProblemTicket};
use legosdn_netlog::{TxId, TxRecord, TxState};
use legosdn_netsim::Topology;
use legosdn_openflow::prelude::*;
use legosdn_testkit::within;
use std::time::{Duration, Instant};

const APPS: usize = 4;
/// Packet-ins per burst: the burst's slots. More than [`STUB_WINDOW`], so
/// the window slides: a fill past the first queues a slot while the
/// commit cursor is beyond slot 0 and later slots are in flight.
const SLOTS: u64 = STUB_WINDOW as u64 + 4;
const CONTESTED: DatapathId = DatapathId(1);
const TAG_BASE: u64 = 70_000;

/// The destination of slot `slot`'s packet in burst `burst`.
fn dst(burst: u64, slot: u64) -> MacAddr {
    MacAddr::from_index(900 + burst * 100 + slot)
}

/// Installs two uniquely tagged flows on one contested switch per
/// packet-in, so each commit is a two-command transaction whose order
/// shows in the switch's table. Panics on the packet to `dies_on`, if set: how
/// the oracle's app dies at a position.
struct Writer {
    name: String,
    id: u64,
    count: u64,
    dies_on: Option<MacAddr>,
}

impl SdnApp for Writer {
    fn name(&self) -> &str {
        &self.name
    }
    fn subscriptions(&self) -> Vec<EventKind> {
        vec![EventKind::PacketIn]
    }
    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        let Event::PacketIn(_, pi) = event else {
            return;
        };
        assert_ne!(Some(pi.packet.eth_dst), self.dies_on, "dies here");
        for _ in 0..2 {
            let mut mat = Match::from_packet(&pi.packet, pi.in_port);
            mat.eth_src = Some(MacAddr::from_index(
                TAG_BASE + self.id * 10_000 + self.count,
            ));
            self.count += 1;
            ctx.send(CONTESTED, Message::FlowMod(FlowMod::add(mat)));
        }
    }
    fn snapshot(&self) -> legosdn_codec::Snapshot {
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

/// The network as its switches would report it, and the txlog. A flow
/// table is read in table order, as snapshots: an install that is rolled
/// back still took an insertion number, which only orders the entries.
#[derive(Debug, PartialEq)]
struct Residue {
    flow_tables: Vec<(DatapathId, Vec<FlowEntrySnapshot>)>,
    txlog: Vec<TxRecord>,
}

/// What a run leaves, and the runtime, still up.
struct Run {
    rt: LegoSdnRuntime,
    residue: Residue,
    /// Transaction ids begin here in the first burst's cycle.
    tx_base: u64,
}

/// Four writers isolated by `isolation`, a handshake cycle, then two
/// bursts of [`SLOTS`] packet-ins. In the engine run, `arm` names the points at
/// which the engine panics in the first burst, given that burst's first
/// transaction id; in the oracle run, writer *g* dies on the first
/// burst's slot `dies[g]`.
fn run(
    isolation: IsolationMode,
    oracle: bool,
    arm: impl FnOnce(u64) -> Vec<FaultPoint>,
    dies: [Option<u64>; APPS],
) -> Run {
    let topo = Topology::linear(2, 2);
    let mut net = Network::new(&topo);
    let mut config = LegoSdnConfig {
        isolation,
        obs: ObsConfig::instance(Obs::new()),
        ..LegoSdnConfig::default()
    };
    for (g, slot) in dies.iter().enumerate() {
        if slot.is_some() {
            let name = format!("writer-{g}");
            let policies = &mut config.crashpad.policies;
            policies.set_app(&name, CompromisePolicy::NoCompromise);
        }
    }
    let config = config.build().expect("valid config");
    let mut rt = if oracle {
        LegoSdnRuntime::oracle(config)
    } else {
        LegoSdnRuntime::new(config)
    };
    for (g, slot) in dies.iter().enumerate() {
        rt.attach(Box::new(Writer {
            name: format!("writer-{g}"),
            id: g as u64,
            count: 0,
            dies_on: slot.map(|s| dst(0, s)),
        }))
        .unwrap();
    }
    rt.run_cycle(&mut net); // handshake + discovery
    let tx_base = rt.txid_cursor;
    if !oracle {
        rt.roster.faults = arm(tx_base);
    }
    let a = topo.hosts[0].mac;
    for burst in 0..2 {
        for slot in 0..SLOTS {
            net.inject(a, Packet::ethernet(a, dst(burst, slot)))
                .unwrap();
        }
        let report = rt.run_cycle(&mut net);
        assert_eq!(report.events, SLOTS as usize, "one slot per packet-in");
        // Every writer dies in the first burst, after its first slots.
        let committed = report.commands > 0;
        assert_eq!(committed, burst == 0, "burst {burst}: {report:?}");
    }
    let now = net.now();
    let mut flow_tables: Vec<(DatapathId, Vec<FlowEntrySnapshot>)> = net
        .switches()
        .map(|sw| {
            (
                sw.dpid(),
                sw.table().iter().map(|e| e.snapshot(now)).collect(),
            )
        })
        .collect();
    flow_tables.sort_by_key(|(dpid, _)| *dpid);
    let txlog = rt.netlog().log().iter().cloned().collect();
    Run {
        rt,
        residue: Residue { flow_tables, txlog },
        tx_base,
    }
}

/// The first transaction id of app `app`'s position in slot `slot`.
fn tx_of(tx_base: u64, slot: usize, app: usize) -> u64 {
    tx_base + ((slot * APPS + app) as u64) * TXS_PER_POS
}

/// Lose the engine at `fault`, and hold the run to the oracle's in which
/// writer *g* dies on slot `dies[g]`. A panic on the lane leaves its
/// transaction open: the drain rolls it back, and that rollback is the
/// one record the oracle's txlog lacks.
fn loses_the_engine_as_the_oracle_loses_its_apps(
    isolation: IsolationMode,
    fault: fn(u64) -> FaultPoint,
    dies: [u64; APPS],
) {
    within(Duration::from_secs(10), move || {
        let Run {
            rt,
            mut residue,
            tx_base,
        } = run(isolation, false, |base| vec![fault(base)], [None; APPS]);
        assert!(rt.roster.faults.is_empty(), "the fault never fired");
        let first = dies.iter().min().copied().unwrap();
        for (g, &slot) in dies.iter().enumerate() {
            let name = format!("writer-{g}");
            let tickets: Vec<&ProblemTicket> = (rt.crashpad().tickets.iter())
                .filter(|t| t.app == name)
                .collect();
            let status = rt.app_status(AppId(g));
            assert_eq!(status, Some(&AppStatus::Dead), "writer-{g}");
            let [ticket] = tickets[..] else {
                panic!("writer-{g}: one ticket, not {tickets:?}");
            };
            let FailureKind::WorkerLost { panic_message } = &ticket.failure else {
                panic!("writer-{g}: {:?}", ticket.failure);
            };
            assert!(
                panic_message.starts_with("dispatch engine on thread ")
                    && panic_message.contains(": injected fault at"),
                "{panic_message}"
            );
            // The event in hand is the slot at the commit cursor, the
            // first that not every app commits.
            let offending = match &ticket.offending_event {
                Event::PacketIn(_, pi) => pi.packet.eth_dst,
                other => panic!("writer-{g}: {other:?}"),
            };
            assert!(
                offending == dst(0, first) && (slot == first || slot == first + 1),
                "writer-{g} died at slot {slot}, the engine at {offending:?}"
            );
        }
        assert_eq!(rt.stats().apps_dead, APPS as u64);
        if let FaultPoint::Lane { tx } = fault(tx_base) {
            let tx = TxId(tx);
            let lost: Vec<TxRecord> = residue
                .txlog
                .iter()
                .filter(|r| r.id == tx)
                .cloned()
                .collect();
            assert_eq!(
                lost,
                [TxRecord {
                    id: tx,
                    state: TxState::Aborted,
                    ops: 1,
                }],
                "the open transaction is rolled back"
            );
            residue.txlog.retain(|r| r.id != tx);
        }
        rt.shutdown();
        let oracle = run(isolation, true, |_| Vec::new(), dies.map(Some));
        assert_eq!(
            residue, oracle.residue,
            "the residue differs from the oracle's"
        );
        oracle.rt.shutdown();
    });
}

/// `Fill` fires only while queueing to a stub, so this case has no
/// in-process twin.
#[test]
fn a_panic_filling_the_window_loses_the_engine_at_its_commit_cursor() {
    // Slot 10 is queued while the commit cursor is at slot 3, with slots
    // 4 to 9 in flight.
    const SLOT: usize = 10;
    const CURSOR: usize = SLOT + 1 - STUB_WINDOW;
    loses_the_engine_as_the_oracle_loses_its_apps(
        IsolationMode::Channel,
        |_| FaultPoint::Fill {
            slot: SLOT,
            local: 0,
        },
        [CURSOR as u64; APPS],
    );
}

/// App 0 commits slot 3 before app 1's position is harvested.
fn a_panic_harvesting_loses_the_engine(isolation: IsolationMode) {
    loses_the_engine_as_the_oracle_loses_its_apps(
        isolation,
        |_| FaultPoint::Harvest {
            commit_pos: 3,
            local: 1,
        },
        [4, 3, 3, 3],
    );
}

#[test]
fn a_panic_harvesting_the_window_loses_the_engine_at_the_slot_harvested() {
    a_panic_harvesting_loses_the_engine(IsolationMode::Channel);
}

#[test]
fn a_panic_harvesting_in_process_loses_the_engine_at_the_slot_harvested() {
    a_panic_harvesting_loses_the_engine(IsolationMode::Local);
}

/// App 0 commits slot 4 before app 1's transaction opens.
fn a_panic_on_the_lane_loses_the_engine(isolation: IsolationMode) {
    loses_the_engine_as_the_oracle_loses_its_apps(
        isolation,
        |base| FaultPoint::Lane {
            tx: tx_of(base, 4, 1),
        },
        [5, 4, 4, 4],
    );
}

#[test]
fn a_panic_on_the_lane_rolls_back_the_open_transaction_and_loses_the_engine() {
    a_panic_on_the_lane_loses_the_engine(IsolationMode::Channel);
}

#[test]
fn a_panic_on_the_lane_in_process_rolls_back_the_open_transaction_and_loses_the_engine() {
    a_panic_on_the_lane_loses_the_engine(IsolationMode::Local);
}

const DOUBLE_FAULT_TEST: &str = "a_panic_in_a_lost_engines_drain_aborts_the_process";
const DOUBLE_FAULT_CHILD: &str = "LEGOSDN_DOUBLE_FAULT_CHILD";

#[test]
fn a_panic_in_a_lost_engines_drain_aborts_the_process() {
    if std::env::var_os(DOUBLE_FAULT_CHILD).is_some() {
        run(
            IsolationMode::Channel,
            false,
            |_| {
                vec![
                    FaultPoint::Harvest {
                        commit_pos: 3,
                        local: 1,
                    },
                    FaultPoint::Drain,
                ]
            },
            [None; APPS],
        );
        unreachable!("the drain's panic returned");
    }
    // The abort takes the process with it, so it runs in one of its own.
    let (_, module) = module_path!().split_once("::").expect("a crate path");
    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            &format!("{module}::{DOUBLE_FAULT_TEST}"),
            "--exact",
            "--nocapture",
        ])
        .env(DOUBLE_FAULT_CHILD, "1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run this test in a process of its own");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("the double fault hung instead of aborting");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    assert!(stderr.contains("injected fault at Drain"), "{stderr}");
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(
            status.signal(),
            Some(6),
            "not an abort: {status:?}\n{stderr}"
        );
    }
    assert!(!status.success());
}
