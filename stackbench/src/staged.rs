//! Staged replay: the event path rebuilt in the benchmark, one public
//! layer function after the other on one thread, each under a span. It is
//! what the stack costs with no orchestration at all, so
//! `end-to-end − staged` is what `core` adds, and the spans say where the
//! rest goes. Its residue must equal the oracle's.

use crate::driver::Stack;
use crate::spans;
use crate::workloads::{roster, Workload};
use legosdn::controller::services::{DeviceView, TopologyView};
use legosdn::controller::translate::EventTranslator;
use legosdn::crashpad::{CrashPad, DeliveryResult, DispatchResult, LocalSandbox, RecoverableApp};
use legosdn::netlog::NetLog;
use legosdn::netsim::{Network, SimTime, Topology};
use legosdn::obs::Obs;
use legosdn::prelude::*;
use std::time::Instant;

/// How much of the event and command streams the replay probes get.
const EVENT_SAMPLE: usize = 512;
const COMMAND_SAMPLE: usize = 4096;

/// Puts the app's own work under spans, so Crash-Pad's self time is its
/// bookkeeping alone.
struct SpannedApp(LocalSandbox);

impl RecoverableApp for SpannedApp {
    fn deliver(
        &mut self,
        event: &Event,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> DeliveryResult {
        let _span = spans::enter("apps.on_event");
        self.0.deliver(event, topology, devices, now)
    }

    fn snapshot(&mut self) -> Result<Vec<u8>, String> {
        let _span = spans::enter("apps.snapshot");
        self.0.snapshot()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        let _span = spans::enter("apps.restore");
        self.0.restore(bytes)
    }
}

struct StagedApp {
    name: String,
    subscriptions: Vec<EventKind>,
    sandbox: SpannedApp,
    dead: bool,
}

#[derive(Clone, Debug, Default)]
pub struct StagedCounts {
    pub deliveries: u64,
    pub txs: u64,
    pub commands: u64,
    pub checks: u64,
    /// Transactions the checker refused. The workloads are chosen so
    /// there are none; one fails the run.
    pub violations: u64,
    pub recoveries: u64,
    pub apps_dead: u64,
    /// Wall time of every dispatch that ended in a recovery.
    pub recover_ns: Vec<u64>,
}

pub struct Staged {
    pub translator: EventTranslator,
    apps: Vec<StagedApp>,
    pub crashpad: CrashPad,
    netlog: NetLog,
    checker: Option<Checker>,
    pub counts: StagedCounts,
    /// The first translated events and executed commands, for the probes.
    pub events: Vec<Event>,
    pub commands: Vec<Command>,
}

impl Staged {
    /// The same roster under the workload's Crash-Pad and checker
    /// settings; layers report to a private `Obs` as a runtime's would.
    pub fn new(w: &Workload, topo: &Topology) -> Self {
        let cfg = (w.config)();
        let obs = Obs::new();
        let mut crashpad = CrashPad::new(cfg.crashpad);
        crashpad.set_obs(obs.clone());
        let mut netlog = NetLog::new(cfg.netlog_mode);
        netlog.set_obs(obs);
        let apps = roster(w, topo)
            .into_iter()
            .map(|app| StagedApp {
                name: app.name().to_string(),
                subscriptions: app.subscriptions(),
                sandbox: SpannedApp(LocalSandbox::new(app)),
                dead: false,
            })
            .collect();
        Staged {
            translator: EventTranslator::new(),
            apps,
            crashpad,
            netlog,
            checker: cfg.checker,
            counts: StagedCounts::default(),
            events: Vec::with_capacity(EVENT_SAMPLE),
            commands: Vec::with_capacity(COMMAND_SAMPLE),
        }
    }

    /// Serialized size of every live app's state.
    pub fn snapshot_bytes(&mut self) -> usize {
        self.apps
            .iter_mut()
            .filter_map(|a| a.sandbox.0.snapshot().ok())
            .map(|bytes| bytes.len())
            .sum()
    }

    pub fn healthy(&self) -> bool {
        self.counts.violations == 0 && self.counts.apps_dead == 0
    }

    fn dispatch(&mut self, net: &mut Network, event: &Event) {
        let kind = event.kind();
        let now = net.now();
        if self.events.len() < EVENT_SAMPLE {
            self.events.push(event.clone());
        }
        for app in &mut self.apps {
            if app.dead || !app.subscriptions.contains(&kind) {
                continue;
            }
            self.counts.deliveries += 1;
            let started = Instant::now();
            let result = {
                let _span = spans::enter("crashpad.dispatch");
                self.crashpad.dispatch(
                    &mut app.sandbox,
                    &app.name,
                    event,
                    &self.translator.topology,
                    &self.translator.devices,
                    now,
                )
            };
            let commands = match result {
                DispatchResult::Delivered(commands) => commands,
                DispatchResult::Recovered { commands, .. } => {
                    self.counts.recoveries += 1;
                    self.counts
                        .recover_ns
                        .push(started.elapsed().as_nanos() as u64);
                    commands
                }
                DispatchResult::AppDead { .. } => {
                    app.dead = true;
                    self.counts.apps_dead += 1;
                    continue;
                }
            };
            if commands.is_empty() {
                continue;
            }
            let room = COMMAND_SAMPLE - self.commands.len();
            self.commands.extend(commands.iter().take(room).cloned());

            // One NetLog transaction per app per event, with the checker
            // between execute and commit, as the runtime's commit does.
            let _span = spans::enter("netlog.tx");
            self.counts.txs += 1;
            let mut tx = self.netlog.begin_for(&app.name);
            for c in &commands {
                if let Ok(replies) = self.netlog.execute(&mut tx, net, c.dpid, &c.msg) {
                    for mut reply in replies {
                        if let Message::StatsReply(ref mut sr) = reply {
                            self.netlog.adjust_stats(c.dpid, sr);
                        }
                    }
                }
            }
            let clean = match &self.checker {
                Some(checker) if commands.iter().any(|c| c.msg.alters_network_state()) => {
                    let _span = spans::enter("invariants.check");
                    self.counts.checks += 1;
                    checker.check(net).is_clean()
                }
                _ => true,
            };
            if clean {
                if let Ok(report) = self.netlog.commit(tx, net) {
                    self.counts.commands += report.ops_applied as u64;
                }
            } else {
                self.counts.violations += 1;
                let _ = self.netlog.abort(tx, net);
            }
        }
    }
}

impl Stack for Staged {
    const CYCLE_SPAN: &'static str = "staged.cycle";

    fn cycle(&mut self, net: &mut Network) -> usize {
        let mut n = 0;
        for raw in net.poll_events() {
            let events = {
                let _span = spans::enter("controller.translate");
                self.translator.process(net, raw)
            };
            for event in &events {
                n += 1;
                self.dispatch(net, event);
            }
        }
        n
    }
}
