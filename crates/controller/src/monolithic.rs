//! The monolithic controller baseline — FloodLight's architecture, and the
//! paper's villain.
//!
//! All apps run in the controller's fault domain. An unhandled panic in any
//! app's event handler crashes the whole stack: the controller stops
//! processing events, every other app stops receiving them, and the network
//! is left with whatever (possibly partial) state the crashed app installed
//! (paper §2.1, Table 1). Recovery requires a full [`reboot`], which loses
//! all application state — exactly the behaviour LegoSDN eliminates.
//!
//! [`reboot`]: MonolithicController::reboot

use crate::app::{Command, Ctx, SdnApp};
use crate::event::Event;
use crate::sandbox::panic_text;
use crate::translate::EventTranslator;
use legosdn_netsim::Network;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Details of an application crash.
#[derive(Clone, Debug, PartialEq)]
pub struct CrashInfo {
    /// The app that crashed.
    pub app: String,
    /// The event being processed when it crashed (the paper's assumed
    /// trigger: "the cause of an SDN-App's failure is simply the last event
    /// processed").
    pub event: Event,
    /// The captured panic payload.
    pub panic_message: String,
}

/// Counters describing a controller's life so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// App-facing events produced by translation.
    pub events_translated: u64,
    /// (app, event) deliveries attempted.
    pub dispatches: u64,
    /// Commands executed against the network.
    pub commands_executed: u64,
    /// Fatal crashes (monolithic: at most 1 per boot).
    pub crashes: u64,
    /// Events that arrived while the controller was dead.
    pub events_lost_while_down: u64,
    /// Controller reboots.
    pub reboots: u64,
}

/// Report of one [`MonolithicController::run_cycle`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CycleReport {
    /// App events dispatched this cycle.
    pub events: usize,
    /// Commands executed this cycle.
    pub commands: usize,
    /// The crash that ended the cycle, if any.
    pub crash: Option<CrashInfo>,
}

struct AppSlot {
    app: Box<dyn SdnApp>,
    /// State at attach time; a reboot restores this (apps lose everything).
    initial_snapshot: Vec<u8>,
}

/// The monolithic (fate-sharing) controller.
pub struct MonolithicController {
    translator: EventTranslator,
    apps: Vec<AppSlot>,
    crashed: Option<CrashInfo>,
    stats: ControllerStats,
}

impl Default for MonolithicController {
    fn default() -> Self {
        Self::new()
    }
}

impl MonolithicController {
    /// An empty controller.
    #[must_use]
    pub fn new() -> Self {
        MonolithicController {
            translator: EventTranslator::new(),
            apps: Vec::new(),
            crashed: None,
            stats: ControllerStats::default(),
        }
    }

    /// Attach an application. Its current state is recorded as the
    /// post-reboot state.
    pub fn attach(&mut self, app: Box<dyn SdnApp>) {
        let initial_snapshot = app.snapshot();
        self.apps.push(AppSlot {
            app,
            initial_snapshot,
        });
    }

    /// Names of attached apps.
    #[must_use]
    pub fn app_names(&self) -> Vec<String> {
        self.apps.iter().map(|s| s.app.name().to_string()).collect()
    }

    /// Is the stack dead?
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.crashed.is_some()
    }

    /// The crash that killed the stack, if any.
    #[must_use]
    pub fn crash_info(&self) -> Option<&CrashInfo> {
        self.crashed.as_ref()
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// The controller core's topology/device views.
    #[must_use]
    pub fn translator(&self) -> &EventTranslator {
        &self.translator
    }

    /// Drain network events, translate, and dispatch to apps.
    ///
    /// If any app panics, the cycle aborts immediately: remaining events are
    /// lost, the controller is dead until [`Self::reboot`] — the fate-sharing
    /// relationship under study.
    pub fn run_cycle(&mut self, net: &mut Network) -> CycleReport {
        let mut report = CycleReport::default();
        let raw = net.poll_events();
        if self.crashed.is_some() {
            self.stats.events_lost_while_down += raw.len() as u64;
            return report;
        }
        for r in raw {
            if self.crashed.is_some() {
                self.stats.events_lost_while_down += 1;
                continue;
            }
            let events = self.translator.process(net, r);
            self.stats.events_translated += events.len() as u64;
            for ev in events {
                if self.crashed.is_some() {
                    self.stats.events_lost_while_down += 1;
                    continue;
                }
                report.events += 1;
                if let Err(crash) = self.dispatch(net, &ev, &mut report) {
                    self.stats.crashes += 1;
                    self.crashed = Some(*crash.clone());
                    report.crash = Some(*crash);
                }
            }
        }
        report
    }

    /// Deliver a Tick to subscribed apps (periodic app timers).
    pub fn tick_apps(&mut self, net: &mut Network) -> CycleReport {
        let mut report = CycleReport::default();
        if self.crashed.is_some() {
            return report;
        }
        let ev = Event::Tick(net.now());
        report.events += 1;
        if let Err(crash) = self.dispatch(net, &ev, &mut report) {
            self.stats.crashes += 1;
            self.crashed = Some(*crash.clone());
            report.crash = Some(*crash);
        }
        report
    }

    fn dispatch(
        &mut self,
        net: &mut Network,
        event: &Event,
        report: &mut CycleReport,
    ) -> Result<(), Box<CrashInfo>> {
        let kind = event.kind();
        for slot in &mut self.apps {
            if !slot.app.subscriptions().contains(&kind) {
                continue;
            }
            self.stats.dispatches += 1;
            let mut ctx = Ctx::new(
                net.now(),
                &self.translator.topology,
                &self.translator.devices,
            );
            let result = catch_unwind(AssertUnwindSafe(|| {
                slot.app.on_event(event, &mut ctx);
            }));
            match result {
                Ok(()) => {
                    let commands = ctx.into_commands();
                    report.commands += commands.len();
                    execute(net, &commands, &mut self.stats);
                }
                Err(payload) => {
                    // Fate-sharing: the panic unwinds the shared process.
                    // Commands from the partially-executed handler are
                    // *already sent* in FloodLight (no buffering); our Ctx
                    // buffers them, and the monolithic baseline mimics
                    // FloodLight by sending what was queued before the
                    // crash point.
                    let commands = ctx.into_commands();
                    report.commands += commands.len();
                    execute(net, &commands, &mut self.stats);
                    return Err(Box::new(CrashInfo {
                        app: slot.app.name().to_string(),
                        event: event.clone(),
                        panic_message: panic_text(&*payload),
                    }));
                }
            }
        }
        Ok(())
    }

    /// Reboot the stack: apps revert to attach-time state, the controller
    /// core forgets everything, and the crash flag clears. Models the
    /// "controller upgrade / restart" cost of the monolithic design.
    pub fn reboot(&mut self) {
        for slot in &mut self.apps {
            // Restore is best-effort: an app whose snapshot no longer
            // restores stays at whatever state it had (it will be
            // re-driven by fresh events).
            let _ = slot.app.restore(&slot.initial_snapshot);
        }
        self.translator = EventTranslator::new();
        self.crashed = None;
        self.stats.reboots += 1;
    }
}

fn execute(net: &mut Network, commands: &[Command], stats: &mut ControllerStats) {
    for c in commands {
        stats.commands_executed += 1;
        let _ = net.apply(c.dpid, &c.msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::RestoreError;
    use crate::event::EventKind;
    use legosdn_netsim::Topology;
    use legosdn_openflow::prelude::*;

    /// Floods every packet-in; crashes when it sees a packet to a poisoned
    /// destination.
    struct CrashyFlooder {
        poison: Option<MacAddr>,
        handled: u32,
    }

    impl SdnApp for CrashyFlooder {
        fn name(&self) -> &str {
            "crashy-flooder"
        }
        fn subscriptions(&self) -> Vec<EventKind> {
            vec![EventKind::PacketIn]
        }
        fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
            let Event::PacketIn(dpid, pi) = event else {
                return;
            };
            if Some(pi.packet.eth_dst) == self.poison {
                panic!("poisoned destination");
            }
            self.handled += 1;
            let packet = if pi.buffer_id.is_some() {
                None
            } else {
                Some(pi.packet.clone())
            };
            ctx.send(
                *dpid,
                Message::PacketOut(PacketOut {
                    buffer_id: pi.buffer_id,
                    in_port: pi.in_port,
                    actions: vec![Action::Output(PortNo::Flood)],
                    packet,
                }),
            );
        }
        fn snapshot(&self) -> Vec<u8> {
            self.handled.to_be_bytes().to_vec()
        }
        fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
            self.handled =
                u32::from_be_bytes(bytes.try_into().map_err(|_| RestoreError("len".into()))?);
            Ok(())
        }
    }

    /// Counts every event it sees; never crashes.
    struct Counter {
        count: u32,
    }

    impl SdnApp for Counter {
        fn name(&self) -> &str {
            "counter"
        }
        fn subscriptions(&self) -> Vec<EventKind> {
            EventKind::ALL.to_vec()
        }
        fn on_event(&mut self, _event: &Event, _ctx: &mut Ctx<'_>) {
            self.count += 1;
        }
        fn snapshot(&self) -> Vec<u8> {
            self.count.to_be_bytes().to_vec()
        }
        fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
            self.count =
                u32::from_be_bytes(bytes.try_into().map_err(|_| RestoreError("len".into()))?);
            Ok(())
        }
    }

    fn setup(poison: Option<MacAddr>) -> (Network, MonolithicController, Topology) {
        let topo = Topology::linear(2, 1);
        let net = Network::new(&topo);
        let mut ctl = MonolithicController::new();
        ctl.attach(Box::new(CrashyFlooder { poison, handled: 0 }));
        ctl.attach(Box::new(Counter { count: 0 }));
        (net, ctl, topo)
    }

    #[test]
    fn healthy_cycle_floods_packets() {
        let (mut net, mut ctl, topo) = setup(None);
        ctl.run_cycle(&mut net); // handshake
        let a = topo.hosts[0].mac;
        let b = topo.hosts[1].mac;
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        let report = ctl.run_cycle(&mut net);
        assert!(report.crash.is_none());
        assert!(report.commands >= 1);
        assert!(!ctl.is_crashed());
    }

    #[test]
    fn app_panic_kills_the_whole_stack() {
        let (mut net, mut ctl, topo) = setup(Some(topo_host(1)));
        fn topo_host(_i: usize) -> MacAddr {
            MacAddr::from_index(2)
        }
        ctl.run_cycle(&mut net);
        let a = topo.hosts[0].mac;
        let b = topo.hosts[1].mac; // MacAddr::from_index(2) == poison
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        let report = ctl.run_cycle(&mut net);
        let crash = report.crash.expect("must crash");
        assert_eq!(crash.app, "crashy-flooder");
        assert!(
            crash.panic_message.contains("poisoned"),
            "got: {:?}",
            crash.panic_message
        );
        assert!(ctl.is_crashed());
        // Subsequent events are lost — the fate-sharing cost.
        net.inject(a, Packet::ethernet(a, MacAddr::from_index(9)))
            .unwrap();
        let report = ctl.run_cycle(&mut net);
        assert_eq!(report.events, 0);
        assert!(ctl.stats().events_lost_while_down > 0);
    }

    #[test]
    fn crash_starves_innocent_apps() {
        let (mut net, mut ctl, topo) = setup(Some(MacAddr::from_index(2)));
        ctl.run_cycle(&mut net);
        let baseline = ctl.stats().dispatches;
        let a = topo.hosts[0].mac;
        net.inject(a, Packet::ethernet(a, MacAddr::from_index(2)))
            .unwrap();
        ctl.run_cycle(&mut net);
        let after_crash = ctl.stats().dispatches;
        // The crashing app was dispatched; the counter app (attached after)
        // never saw the event.
        assert_eq!(after_crash - baseline, 1);
    }

    #[test]
    fn reboot_revives_but_amnesiac() {
        let (mut net, mut ctl, topo) = setup(Some(MacAddr::from_index(2)));
        ctl.run_cycle(&mut net);
        assert!(ctl.translator().topology.n_links() > 0);
        let a = topo.hosts[0].mac;
        net.inject(a, Packet::ethernet(a, MacAddr::from_index(2)))
            .unwrap();
        ctl.run_cycle(&mut net);
        assert!(ctl.is_crashed());
        ctl.reboot();
        assert!(!ctl.is_crashed());
        assert_eq!(ctl.stats().reboots, 1);
        // Controller core forgot the topology — must rediscover.
        assert_eq!(ctl.translator().topology.n_links(), 0);
        // And it still works for non-poisoned traffic.
        net.inject(a, Packet::ethernet(a, MacAddr::from_index(9)))
            .unwrap();
        let report = ctl.run_cycle(&mut net);
        assert!(report.crash.is_none());
        assert!(report.events > 0);
    }

    #[test]
    fn tick_reaches_subscribers() {
        let (mut net, mut ctl, _) = setup(None);
        ctl.run_cycle(&mut net);
        let before = ctl.stats().dispatches;
        let report = ctl.tick_apps(&mut net);
        assert_eq!(report.events, 1);
        // Only the counter subscribes to Tick.
        assert_eq!(ctl.stats().dispatches - before, 1);
    }

    #[test]
    fn stats_track_commands() {
        let (mut net, mut ctl, topo) = setup(None);
        ctl.run_cycle(&mut net);
        let a = topo.hosts[0].mac;
        net.inject(a, Packet::ethernet(a, topo.hosts[1].mac))
            .unwrap();
        ctl.run_cycle(&mut net);
        assert!(ctl.stats().commands_executed >= 1);
        assert!(ctl.stats().events_translated >= 1);
    }

    #[test]
    fn app_names_are_listed() {
        let (_, ctl, _) = setup(None);
        assert_eq!(
            ctl.app_names(),
            vec!["crashy-flooder".to_string(), "counter".to_string()]
        );
    }
}
