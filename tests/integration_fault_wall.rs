//! One fault wall: whatever app method panics — `on_event`, `snapshot`,
//! `restore`, or the `name()`/`subscriptions()` read at attach — the
//! controller survives, in-process and behind a stub, on the engine and on the sequential oracle alike. What survives
//! is exactly what the paper's recovery promises: each fault leaves the
//! network and the NetLog as a fault the runtime already knew how to
//! handle would have.

use legosdn::controller::app::{Ctx, RestoreError, SdnApp, Snapshot};
use legosdn::crashpad::{FailureKind, ProblemTicket};
use legosdn::netlog::TxRecord;
use legosdn::netsim::FlowEntry;
use legosdn::prelude::*;
use legosdn_testkit::within;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The packet-in count at which a one-shot fault fires.
const AT: u64 = 3;
const TAG_BASE: u64 = 50_000;

/// Installs one uniquely tagged (never matched) flow per packet-in it
/// handles, and panics in each method it names: `on_event` and `snapshot`
/// once, when it has handled [`AT`] packet-ins — so either one faults the
/// same event — and the others whenever they are called.
struct Hostile {
    panics_in: &'static [&'static str],
    handled: u64,
    armed: AtomicBool,
}

impl Hostile {
    fn boxed(panics_in: &'static [&'static str]) -> Box<Hostile> {
        Box::new(Hostile {
            panics_in,
            handled: 0,
            armed: AtomicBool::new(true),
        })
    }

    fn maybe_panic(&self, method: &str) {
        let one_shot = matches!(method, "on_event" | "snapshot");
        if self.panics_in.contains(&method)
            && (!one_shot || (self.handled == AT && self.armed.swap(false, Ordering::SeqCst)))
        {
            panic!("hostile app panics in {method}");
        }
    }
}

impl SdnApp for Hostile {
    fn name(&self) -> &str {
        self.maybe_panic("name");
        "hostile"
    }
    fn subscriptions(&self) -> Vec<EventKind> {
        self.maybe_panic("subscriptions");
        vec![EventKind::PacketIn]
    }
    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        self.maybe_panic("on_event");
        if let Event::PacketIn(dpid, pi) = event {
            let mut mat = Match::from_packet(&pi.packet, pi.in_port);
            mat.eth_src = Some(MacAddr::from_index(TAG_BASE + self.handled));
            ctx.send(*dpid, Message::FlowMod(FlowMod::add(mat)));
        }
        self.handled += 1;
    }
    fn snapshot(&self) -> Snapshot {
        self.maybe_panic("snapshot");
        self.handled.to_le_bytes().to_vec().into()
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        self.maybe_panic("restore");
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| RestoreError("bad snapshot".into()))?;
        self.handled = u64::from_le_bytes(arr);
        Ok(())
    }
}

/// Where the apps run.
#[derive(Clone, Copy, Debug)]
enum Setup {
    Local,
    Channel,
}

const SETUPS: [Setup; 2] = [Setup::Local, Setup::Channel];

#[derive(Debug, PartialEq)]
struct Residue {
    flow_tables: Vec<(DatapathId, Vec<FlowEntry>)>,
    txlog: Vec<TxRecord>,
}

/// What one run leaves: the residue, the attach errors, and the
/// Crash-Pad's tickets.
struct Run {
    residue: Residue,
    attach_errors: Vec<String>,
    tickets: Vec<ProblemTicket>,
}

/// A learning switch and `hostile` (when given) attached in that order,
/// then three bursts of packets to fresh destinations.
fn run(setup: Setup, oracle: bool, hostile: Option<Box<Hostile>>, no_compromise: bool) -> Run {
    let topo = Topology::linear(2, 2);
    let mut net = Network::new(&topo);
    let mut config = LegoSdnConfig {
        obs: ObsConfig::instance(Obs::new()),
        ..LegoSdnConfig::default()
    };
    if let Setup::Channel = setup {
        config.isolation = IsolationMode::Channel;
    }
    if no_compromise {
        config
            .crashpad
            .policies
            .set_app("hostile", CompromisePolicy::NoCompromise);
    }
    let config = config.build().expect("valid config");
    let mut rt = if oracle {
        LegoSdnRuntime::oracle(config)
    } else {
        LegoSdnRuntime::new(config)
    };
    rt.attach(Box::new(LearningSwitch::new())).unwrap();
    let mut attach_errors = Vec::new();
    let mut hostile_id = None;
    if let Some(hostile) = hostile {
        match rt.attach(hostile) {
            Ok(id) => hostile_id = Some(id),
            Err(e) => attach_errors.push(e.to_string()),
        }
    }

    rt.run_cycle(&mut net); // handshake + discovery
    let a = topo.hosts[0].mac;
    for round in 0..3u64 {
        for slot in 0..3u64 {
            let dst = MacAddr::from_index(700 + round * 8 + slot);
            net.inject(a, Packet::ethernet(a, dst)).unwrap();
        }
        rt.run_cycle(&mut net);
    }
    assert!(!rt.is_crashed());

    let mut flow_tables: Vec<(DatapathId, Vec<FlowEntry>)> = net
        .switches()
        .map(|sw| (sw.dpid(), sw.table().iter().cloned().collect()))
        .collect();
    flow_tables.sort_by_key(|(dpid, _)| *dpid);
    let txlog = rt.netlog().log().iter().cloned().collect();
    let tickets = hostile_id.map_or_else(Vec::new, |_| {
        rt.crashpad().tickets.iter().cloned().collect()
    });
    rt.shutdown();
    Run {
        residue: Residue { flow_tables, txlog },
        attach_errors,
        tickets,
    }
}

/// Each setup, engine and oracle: the faulty roster's residue equals its
/// twin's, and `check` approves the faulty run.
fn holds_against_twin(
    faulty: fn() -> Box<Hostile>,
    twin: fn() -> Option<Box<Hostile>>,
    twin_no_compromise: bool,
    check: impl Fn(Setup, &Run),
) {
    for setup in SETUPS {
        for oracle in [false, true] {
            let got = run(setup, oracle, Some(faulty()), false);
            check(setup, &got);
            let want = run(setup, oracle, twin(), twin_no_compromise);
            assert!(!want.residue.txlog.is_empty());
            assert_eq!(
                got.residue, want.residue,
                "{setup:?}, oracle {oracle}: the residue differs from the twin's"
            );
        }
    }
}

fn fail_stop_text(ticket: &ProblemTicket) -> Option<&str> {
    match &ticket.failure {
        FailureKind::FailStop { panic_message } => Some(panic_message),
        _ => None,
    }
}

#[test]
fn a_snapshot_panic_is_the_crash_of_the_event_it_precedes() {
    holds_against_twin(
        || Hostile::boxed(&["snapshot"]),
        || Some(Hostile::boxed(&["on_event"])),
        false,
        |setup, run| {
            assert_eq!(run.tickets.len(), 1, "{setup:?}");
            // In-process, the ticket names the panic that killed the app;
            // a stub that dies checkpointing goes silent, which is a comm
            // failure.
            if let Setup::Local = setup {
                assert_eq!(
                    fail_stop_text(&run.tickets[0]),
                    Some("hostile app panics in snapshot"),
                    "{setup:?}"
                );
            }
        },
    );
}

#[test]
fn a_restore_panic_during_recovery_is_a_crash_under_no_compromise() {
    holds_against_twin(
        || Hostile::boxed(&["on_event", "restore"]),
        || Some(Hostile::boxed(&["on_event"])),
        true,
        |setup, run| {
            assert_eq!(run.tickets.len(), 1, "{setup:?}");
            assert_eq!(
                fail_stop_text(&run.tickets[0]),
                Some("hostile app panics in on_event"),
                "{setup:?}"
            );
        },
    );
}

#[test]
fn a_panic_naming_the_app_fails_its_attach_and_nothing_else() {
    for method in ["name", "subscriptions"] {
        let faulty = match method {
            "name" => || Hostile::boxed(&["name"]),
            _ => || Hostile::boxed(&["subscriptions"]),
        };
        holds_against_twin(
            faulty,
            || None,
            false,
            |setup, run| {
                assert_eq!(run.attach_errors.len(), 1, "{setup:?}");
                let why = &run.attach_errors[0];
                assert!(
                    why.contains(&format!("hostile app panics in {method}")),
                    "{setup:?}: {why}"
                );
                assert!(run.tickets.is_empty(), "{setup:?}");
            },
        );
    }
}

/// A panic payload whose own drop panics.
struct Bomb;

impl Drop for Bomb {
    fn drop(&mut self) {
        panic!("the payload's drop panics too");
    }
}

/// Counts the packet-ins it handles and emits nothing; on the [`AT`]th,
/// once, it panics with a [`Bomb`].
struct Bomber {
    handled: u64,
    armed: AtomicBool,
}

impl SdnApp for Bomber {
    fn name(&self) -> &str {
        "bomber"
    }
    fn subscriptions(&self) -> Vec<EventKind> {
        vec![EventKind::PacketIn]
    }
    fn on_event(&mut self, _event: &Event, _ctx: &mut Ctx<'_>) {
        if self.handled == AT && self.armed.swap(false, Ordering::SeqCst) {
            std::panic::panic_any(Bomb);
        }
        self.handled += 1;
    }
    fn snapshot(&self) -> Snapshot {
        self.handled.to_le_bytes().to_vec().into()
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| RestoreError("bad snapshot".into()))?;
        self.handled = u64::from_le_bytes(arr);
        Ok(())
    }
}

#[test]
fn a_panic_whose_payload_panics_when_dropped_is_one_crash_of_one_app() {
    for setup in SETUPS {
        within(Duration::from_secs(10), move || {
            let topo = Topology::linear(2, 2);
            let mut net = Network::new(&topo);
            let mut config = LegoSdnConfig {
                obs: ObsConfig::instance(Obs::new()),
                ..LegoSdnConfig::default()
            };
            if let Setup::Channel = setup {
                // Both stubs on one host thread.
                config.isolation = IsolationMode::Channel;
                config.io.mode.io_threads = 1;
            }
            config
                .crashpad
                .policies
                .set_app("bomber", CompromisePolicy::Absolute);
            let mut rt = LegoSdnRuntime::new(config.build().expect("valid config"));
            let switch = rt.attach(Box::new(LearningSwitch::new())).unwrap();
            let bomber = rt
                .attach(Box::new(Bomber {
                    handled: 0,
                    armed: AtomicBool::new(true),
                }))
                .unwrap();
            rt.run_cycle(&mut net); // handshake + discovery
            let a = topo.hosts[0].mac;
            let mut recoveries = 0;
            for round in 0..3u64 {
                for slot in 0..3u64 {
                    let dst = MacAddr::from_index(800 + round * 8 + slot);
                    net.inject(a, Packet::ethernet(a, dst)).unwrap();
                }
                let report = rt.run_cycle(&mut net);
                recoveries += report.recoveries;
                // The bomber emits nothing: these are the neighbour's.
                assert!(report.commands > 0, "{setup:?}: round {round}");
            }
            assert_eq!(recoveries, 1, "{setup:?}");
            assert_eq!(rt.app_status(bomber), Some(&AppStatus::Running));
            assert_eq!(rt.app_status(switch), Some(&AppStatus::Running));
            assert_eq!(rt.stats().apps_dead, 0, "{setup:?}");
            let tickets = &rt.crashpad().tickets;
            let ticket = tickets.iter().find(|t| t.app == "bomber").unwrap();
            assert_eq!(
                fail_stop_text(ticket),
                Some("<non-string panic payload>"),
                "{setup:?}"
            );
            drop(rt);
        });
    }
}
