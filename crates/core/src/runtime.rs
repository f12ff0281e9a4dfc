//! The LegoSDN runtime: the re-designed controller of paper §3.
//!
//! Composition (Figure 1, right side):
//!
//! ```text
//!   Network ⇄ EventTranslator (controller core)
//!                 │ events                    ▲ commands
//!                 ▼                           │
//!            Crash-Pad dispatch ──► NetLog transaction, checked at commit
//!                 │                                   │ blocked: rolled back
//!            AppVisor proxy ⇄ stubs (isolated apps)   byzantine recovery
//! ```
//!
//! Per app-event dispatch: checkpoint if due → deliver through the app's
//! fault domain → on fail-stop, Crash-Pad recovers (restore + ignore/
//! transform per policy) → the app's commands run inside a NetLog
//! transaction → its commit checks the network against the invariants and
//! rolls byzantine output back (NetLog owns the check), after which
//! Crash-Pad recovers the app's internal state too.
//!
//! Crashes never propagate: the controller core and every other app keep
//! running — the paper's two fate-sharing relationships are gone.
//!
//! One engine runs that story (DESIGN.md §9), on the thread that calls
//! [`LegoSdnRuntime::run_cycle`]: the cycle's `Feed` hands out raw events
//! one at a time, each translated event becomes a slot of the dispatch
//! window, and an `Engine` fills the window and commits it over every
//! app in attach order, so the output stays bit-identical to the
//! sequential reference in `reference.rs`. The window is one slot deep
//! in process and `STUB_WINDOW` deep behind stubs: the isolation mode
//! sets it, not an option.

use crate::config::{IsolationMode, LegoSdnConfig, ResourceLimits};
use crate::engine::{
    AppCtx, AppRecord, CommitLane, CoreMetrics, Engine, Roster, Window, WindowSlot, STUB_WINDOW,
    TXS_PER_POS,
};
use crate::host::Host;
use legosdn_appvisor::{AppVisorProxy, TransportKind};
use legosdn_controller::app::SdnApp;
use legosdn_controller::event::Event;
use legosdn_controller::sandbox::Sandbox;
use legosdn_controller::translate::EventTranslator;
use legosdn_crashpad::CrashPad;
use legosdn_netlog::NetLog;
use legosdn_netsim::{NetEvent, Network};
use legosdn_obs::{Counter, Obs, TraceId};
use legosdn_openflow::prelude::Message;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

#[path = "reference.rs"]
mod reference;

#[cfg(test)]
#[path = "lost_engine_tests.rs"]
mod lost_engine_tests;

/// Identifier of an attached app.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AppId(pub usize);

/// Runtime-level counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// App-facing events produced by translation.
    pub events_translated: u64,
    /// (app, event) deliveries attempted.
    pub dispatches: u64,
    /// Commands executed against the network.
    pub commands_executed: u64,
    /// Commands suppressed by resource limits.
    pub commands_suppressed: u64,
    /// Fail-stop failures recovered.
    pub failstop_recoveries: u64,
    /// Byzantine outputs blocked (transaction rolled back at commit).
    pub byzantine_blocked: u64,
    /// Apps currently dead (No-Compromise).
    pub apps_dead: u64,
    /// Events skipped because an app was dead or suspended.
    pub events_skipped: u64,
    /// Apps suspended by resource limits.
    pub apps_suspended: u64,
    /// Controller upgrades performed.
    pub upgrades: u64,
    /// `run_cycle`/`tick_apps` invocations.
    pub cycles: u64,
}

impl RuntimeStats {
    /// The report of a cycle that fed `events` and began at `started`,
    /// when these stats stood at `before`: its counts are what it moved.
    fn report_since(
        &self,
        before: &RuntimeStats,
        events: usize,
        started: Instant,
    ) -> LegoCycleReport {
        let moved = |now: u64, then: u64| usize::try_from(now - then).unwrap_or(usize::MAX);
        LegoCycleReport {
            events,
            commands: moved(self.commands_executed, before.commands_executed),
            recoveries: moved(self.failstop_recoveries, before.failstop_recoveries),
            byzantine_blocked: moved(self.byzantine_blocked, before.byzantine_blocked),
            elapsed_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        }
    }
}

/// Report of one run cycle.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LegoCycleReport {
    pub events: usize,
    pub commands: usize,
    pub recoveries: usize,
    pub byzantine_blocked: usize,
    /// Wall-clock duration of the cycle in nanoseconds.
    pub elapsed_ns: u64,
}

/// Per-app resource usage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    pub events_consumed: u64,
    pub commands_emitted: u64,
}

/// Why an app is not being scheduled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AppStatus {
    Running,
    /// Dead under a No-Compromise policy.
    Dead,
    /// Suspended by a resource limit.
    Suspended(&'static str),
}

/// Attach failure.
#[derive(Clone, Debug, PartialEq)]
pub struct AttachError(pub String);

impl fmt::Display for AttachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "attach failed: {}", self.0)
    }
}

impl std::error::Error for AttachError {}

/// The LegoSDN runtime.
pub struct LegoSdnRuntime {
    config: LegoSdnConfig,
    /// The controller core's translator and the cycle's raw-event feed.
    feed: Feed,
    /// Commits to the network, under the byzantine guard when the config
    /// names a checker.
    netlog: NetLog,
    /// The attached apps: [`AppId`]`(g)` is `roster.apps[g]`.
    roster: Roster,
    /// The engine's buffers, kept across cycles.
    window: Window,
    stats: RuntimeStats,
    obs: Obs,
    metrics: CoreMetrics,
    /// First transaction id of the next cycle. The engine and the
    /// reference advance it identically (`events × apps × TXS_PER_POS`
    /// per cycle), so transaction ids are a pure function of the
    /// event/app position and the engine's match the reference's.
    txid_cursor: u64,
    /// Dispatch through the sequential reference in `reference.rs`
    /// instead of the engine; only [`LegoSdnRuntime::oracle`] sets it.
    oracle: bool,
}

impl LegoSdnRuntime {
    /// A runtime with the given configuration. Observability is wired
    /// here, once, for every layer, from the `obs` section: its
    /// `instance` if set ([`crate::config::ObsConfig::disabled`] sets one
    /// that records nothing), else [`Obs::global`].
    ///
    /// Call [`LegoSdnConfig::build`] first to validate; this constructor
    /// tolerates unvalidated configs by clamping (the stub host runs at
    /// least one thread) rather than panicking.
    #[must_use]
    pub fn new(config: LegoSdnConfig) -> Self {
        Self::build(config, false)
    }

    /// A runtime that dispatches through the sequential reference
    /// (`reference.rs`: one blocking Crash-Pad round trip per (event,
    /// app), whatever the isolation mode) — the oracle the determinism
    /// suites hold the engine to. Not a configuration: nothing but a test
    /// should want it.
    #[doc(hidden)]
    #[must_use]
    pub fn oracle(config: LegoSdnConfig) -> Self {
        Self::build(config, true)
    }

    fn build(config: LegoSdnConfig, oracle: bool) -> Self {
        let obs = config.obs.instance.clone().unwrap_or_else(Obs::global);
        let mut netlog = NetLog::with_checker(config.checker.clone());
        netlog.set_obs(obs.clone());
        let mut crashpad = CrashPad::new(config.crashpad.clone());
        crashpad.set_obs(obs.clone());
        let mut proxy_config = config.io.proxy.clone();
        proxy_config.io = config.io.mode;
        let mut proxy = AppVisorProxy::new(proxy_config);
        proxy.set_obs(obs.clone());
        let metrics = CoreMetrics::resolve(&obs);
        LegoSdnRuntime {
            feed: Feed::new(
                obs.clone(),
                Arc::clone(&metrics.events_translated),
                config.obs.trace_sample,
            ),
            netlog,
            roster: Roster {
                proxy,
                crashpad,
                apps: Vec::new(),
                #[cfg(test)]
                faults: Vec::new(),
            },
            window: Window::default(),
            stats: RuntimeStats::default(),
            obs,
            metrics,
            txid_cursor: 1,
            oracle,
            config,
        }
    }

    /// Attach an app in the configured isolation mode.
    pub fn attach(&mut self, app: Box<dyn SdnApp>) -> Result<AppId, AttachError> {
        self.attach_with_limits(app, self.config.resource_limits)
    }

    /// Attach an app with specific resource limits (paper §3.4).
    pub fn attach_with_limits(
        &mut self,
        app: Box<dyn SdnApp>,
        limits: ResourceLimits,
    ) -> Result<AppId, AttachError> {
        let global = self.roster.apps.len();
        let transport = match self.config.isolation {
            IsolationMode::Local => None,
            IsolationMode::Channel => Some(TransportKind::Channel),
            IsolationMode::Udp => Some(TransportKind::Udp),
        };
        // The app says who it is from behind its fault wall: in-process,
        // its sandbox; isolated, its stub's `Register` frame.
        let (name, subscriptions, host) = match transport {
            None => {
                let sandbox = Sandbox::new(app);
                let (name, subs) = sandbox.identity().map_err(|f| AttachError(f.into()))?;
                (name, subs, Host::Local(sandbox))
            }
            Some(kind) => {
                let proxy = &mut self.roster.proxy;
                let registered = proxy.launch_app(app, kind).and_then(|h| {
                    let name = proxy.app_name(h)?.to_string();
                    Ok((name, proxy.subscriptions(h)?.to_vec(), Host::Isolated(h)))
                });
                registered.map_err(|e| AttachError(e.to_string()))?
            }
        };
        self.roster.apps.push(AppRecord {
            subscriptions,
            host,
            status: AppStatus::Running,
            limits,
            usage: ResourceUsage::default(),
            failstop_recoveries: self.obs.counter("core", "failstop_recoveries", &name),
            byzantine_blocked: self.obs.counter("core", "byzantine_blocked", &name),
            id: self.obs.attach_app(&name),
            name,
        });
        Ok(AppId(global))
    }

    /// Names of attached apps, in attach order.
    #[must_use]
    pub fn app_names(&self) -> Vec<String> {
        self.roster.apps.iter().map(|a| a.name.clone()).collect()
    }

    /// An app's scheduling status.
    pub fn app_status(&self, id: AppId) -> Option<&AppStatus> {
        self.roster.apps.get(id.0).map(|a| &a.status)
    }

    /// An app's resource usage.
    pub fn app_usage(&self, id: AppId) -> Option<ResourceUsage> {
        self.roster.apps.get(id.0).map(|a| a.usage)
    }

    /// Runtime counters.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// The observability handle this runtime (and its Crash-Pad, NetLog,
    /// and AppVisor layers) reports into. Cloning is an `Arc` bump, so a
    /// long-running driver can hand it to an ops endpoint
    /// (`legosdn_obs::ObsServer`) without touching the hot path.
    #[must_use]
    pub fn obs(&self) -> Obs {
        self.obs.clone()
    }

    /// The Crash-Pad engine (tickets, checkpoints, policies).
    #[must_use]
    pub fn crashpad(&self) -> &CrashPad {
        &self.roster.crashpad
    }

    /// The NetLog engine (transaction log, counter cache).
    #[must_use]
    pub fn netlog(&self) -> &NetLog {
        &self.netlog
    }

    /// The controller core's views.
    #[must_use]
    pub fn translator(&self) -> &EventTranslator {
        &self.feed.translator
    }

    /// The controller is never crashed by app failures; this exists for
    /// symmetry with the monolithic baseline in experiments.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        false
    }

    /// Drain network events, translate, and dispatch under full protection.
    ///
    /// A cycle is the burst it polled: those raws, and nothing its own
    /// commits enqueue, reach the apps through the cycle's `Feed` and the
    /// dispatch window. Follow-on events wait for the next cycle.
    pub fn run_cycle(&mut self, net: &mut Network) -> LegoCycleReport {
        let _span = self.metrics.run_cycle.start();
        let started = Instant::now();
        self.stats.cycles += 1;
        let before = self.stats;
        let burst = net.poll_events();
        let mut events = 0;
        if !burst.is_empty() {
            self.feed.begin(burst, self.stats.cycles);
            events = self.dispatch_feed(net);
            self.stats.events_translated += events as u64;
        }
        self.stats.report_since(&before, events, started)
    }

    /// Deliver a Tick to subscribed apps: a cycle whose feed is the one
    /// Tick.
    pub fn tick_apps(&mut self, net: &mut Network) -> LegoCycleReport {
        let _span = self.metrics.tick_apps.start();
        let started = Instant::now();
        self.stats.cycles += 1;
        let before = self.stats;
        self.feed
            .begin_tick(Event::Tick(net.now()), self.stats.cycles);
        let events = self.dispatch_feed(net);
        self.stats.report_since(&before, events, started)
    }

    /// Dispatch everything the feed yields this cycle, and advance the
    /// transaction-id cursor past the cycle's positions. Returns the
    /// number of events fed.
    fn dispatch_feed(&mut self, net: &mut Network) -> usize {
        if self.oracle {
            self.run_reference(net);
        } else {
            self.run_window(net);
        }
        let events = self.feed.events;
        self.txid_cursor += (events * self.roster.apps.len()) as u64 * TXS_PER_POS;
        events
    }

    /// The dispatch engine (DESIGN.md §9), on this thread: in process
    /// one slot at a time, behind stubs up to [`STUB_WINDOW`] slots in
    /// flight at once, and commits land in (event, attach) position
    /// order, so network state, the txlog, and runtime counters stay
    /// bit-identical to the sequential reference. A panic in the
    /// engine's own code loses the engine, not the cycle: every running
    /// app dies through Crash-Pad as `WorkerLost`, the open transaction
    /// is aborted and the rest of the feed is drained with no app
    /// selected (DESIGN.md §5).
    fn run_window(&mut self, net: &mut Network) {
        let depth = match self.config.isolation {
            IsolationMode::Local => 1,
            IsolationMode::Channel | IsolationMode::Udp => STUB_WINDOW,
        };
        let cx = AppCtx {
            roster: &mut self.roster,
            stats: &mut self.stats,
            obs: &self.obs,
            metrics: &self.metrics,
            shutdown_on_no_compromise: self.config.shutdown_network_on_no_compromise,
        };
        let lane = CommitLane {
            net,
            netlog: &mut self.netlog,
            open: None,
        };
        Engine::new(
            cx,
            lane,
            &mut self.feed,
            &mut self.window,
            depth,
            self.txid_cursor,
        )
        .run();
    }

    /// §5 STS-guided diagnosis: find the checkpoint and minimal causal
    /// event sequence that reproduce a crash of the given app on
    /// `offending`. The app's current state is preserved around the
    /// search. Typical input for `offending` is the `offending_event` of
    /// the app's latest problem ticket.
    pub fn diagnose(
        &mut self,
        id: AppId,
        offending: &Event,
        now: legosdn_netsim::SimTime,
    ) -> Result<legosdn_crashpad::Diagnosis, legosdn_crashpad::DiagnoseError> {
        if id.0 >= self.roster.apps.len() {
            return Err(legosdn_crashpad::DiagnoseError::NoHistory);
        }
        let translator = &self.feed.translator;
        self.roster.with_app(id.0, |crashpad, app, _, name| {
            crashpad.diagnose(
                app,
                name,
                offending,
                &translator.topology,
                &translator.devices,
                now,
            )
        })
    }

    /// §3.4 controller upgrade: restart the controller core without
    /// touching the apps. The topology/device views are rebuilt by
    /// re-handshaking every switch; apps keep their state and their fault
    /// domains — the outage the monolithic reboot causes does not happen.
    pub fn upgrade_controller(&mut self, net: &mut Network) {
        self.feed.translator = EventTranslator::new();
        self.stats.upgrades += 1;
        let dpids: Vec<_> = net.switches().map(|s| s.dpid()).collect();
        for dpid in dpids {
            if net.switch(dpid).map(|s| s.is_up()).unwrap_or(false) {
                let _ = self
                    .feed
                    .translator
                    .process(net, NetEvent::SwitchConnected(dpid));
            }
        }
    }

    /// Resume a suspended app (operator action after a resource review).
    pub fn resume(&mut self, id: AppId, extra_budget: ResourceLimits) -> bool {
        match self.roster.apps.get_mut(id.0) {
            Some(rec) if matches!(rec.status, AppStatus::Suspended(_)) => {
                rec.status = AppStatus::Running;
                rec.limits = extra_budget;
                true
            }
            _ => false,
        }
    }

    /// Shut down all isolated stubs.
    pub fn shutdown(self) {
        let _ = self.roster.proxy.shutdown();
    }
}

/// Whether a raw event's translation is *pure* — reads nothing but the
/// translator's own views, so translating it mid-window is identical to
/// translating it after the window drains. `PortStatus` probes ports
/// and drains the net queue; `SwitchConnected` handshakes (feature
/// replies, port probes).
fn extendable(raw: &NetEvent) -> bool {
    match raw {
        NetEvent::FromSwitch(_, msg) => !matches!(msg, Message::PortStatus(_)),
        NetEvent::SwitchDisconnected(_) => true,
        NetEvent::SwitchConnected(_) => false,
    }
}

/// What one [`Feed::pull`] came to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Pull {
    /// One raw was translated; its events (possibly none) were pushed.
    Fed,
    /// The next raw must wait until every slot fed so far has committed.
    Drain,
    /// Nothing more will be fed this cycle.
    End,
}

/// The cycle's raw-event feed, and the one place raws become app events
/// (DESIGN.md §9). It hands out the burst polled at cycle start, one raw
/// at a time and strictly in order, under two rules:
///
/// - a pure raw ([`extendable`]) is translated whenever the window wants
///   a slot;
/// - an impure raw only once every slot fed before it has committed: its
///   translation probes the network and swallows whatever those commits
///   enqueued, so it must see exactly the network sequential dispatch
///   would show it.
///
/// Once the burst is fed the feed ends; what the cycle's commits enqueued
/// is the next cycle's burst. The reference dispatcher and the window
/// engine pull from the same feed, so they translate and sample traces
/// identically.
pub(crate) struct Feed {
    translator: EventTranslator,
    obs: Obs,
    events_translated: Arc<Counter>,
    /// Flight-recorder sampling period (0: off).
    trace_sample: u64,
    /// Events seen by the trace sampler (monotonic; doubles as the `seq`
    /// half of [`TraceId`], so ids stay unique across cycles).
    trace_seen: u64,
    cycle: u64,
    /// A `tick_apps` cycle's one event, until it is fed.
    tick: Option<Event>,
    /// What is left of the burst polled at cycle start.
    burst: VecDeque<NetEvent>,
    /// Events fed so far this cycle.
    events: usize,
}

impl Feed {
    fn new(obs: Obs, events_translated: Arc<Counter>, trace_sample: u64) -> Self {
        Feed {
            translator: EventTranslator::new(),
            obs,
            events_translated,
            trace_sample,
            trace_seen: 0,
            cycle: 0,
            tick: None,
            burst: VecDeque::new(),
            events: 0,
        }
    }

    /// Start a cycle over its polled burst.
    fn begin(&mut self, burst: Vec<NetEvent>, cycle: u64) {
        self.burst = burst.into();
        self.cycle = cycle;
        self.events = 0;
    }

    /// Start a cycle that feeds one `Tick` and nothing else.
    fn begin_tick(&mut self, tick: Event, cycle: u64) {
        self.begin(Vec::new(), cycle);
        self.tick = Some(tick);
    }

    /// Sampling gate for the flight recorder: begin a trace for this
    /// event if it is the `trace_sample`th since the last traced one.
    /// Returns the id for scope switching (`None`: not sampled).
    fn trace_for_event(&mut self, event: &Event) -> Option<TraceId> {
        if self.trace_sample == 0 {
            return None;
        }
        self.trace_seen += 1;
        if !(self.trace_seen - 1).is_multiple_of(self.trace_sample) {
            return None;
        }
        let id = TraceId {
            cycle: self.cycle,
            seq: self.trace_seen,
        };
        self.obs.trace_begin(id, event.kind().name());
        Some(id)
    }

    /// One event as a window slot: the views it must be delivered
    /// against are the translator's as of its translation. `Network::now`
    /// only advances via an explicit `advance()`, so the captured `now`
    /// is constant across the cycle.
    fn slot(&mut self, net: &Network, event: Event) -> WindowSlot {
        self.events += 1;
        let trace = self.trace_for_event(&event);
        WindowSlot {
            event,
            topology: self.translator.topology.clone(),
            devices: self.translator.devices.clone(),
            now: net.now(),
            trace,
        }
    }

    /// Translate the next raw the rules allow and hand its slots to
    /// `sink`. `drained` says whether every slot fed so far has committed.
    pub(crate) fn pull(
        &mut self,
        net: &mut Network,
        drained: bool,
        mut sink: impl FnMut(WindowSlot),
    ) -> Pull {
        if let Some(tick) = self.tick.take() {
            sink(self.slot(net, tick));
            return Pull::Fed;
        }
        match self.burst.front() {
            None => return Pull::End,
            Some(raw) if !drained && !extendable(raw) => return Pull::Drain,
            Some(_) => {}
        }
        let raw = self.burst.pop_front().expect("the burst has a front");
        let events = self.translator.process(net, raw);
        self.events_translated.add(events.len() as u64);
        for event in events {
            sink(self.slot(net, event));
        }
        Pull::Fed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ObsConfig;
    use legosdn_apps::{BugEffect, BugTrigger, FaultyApp, Hub, LearningSwitch, SpanningTree};
    use legosdn_controller::event::EventKind;
    use legosdn_crashpad::{
        CheckpointPolicy, CompromisePolicy, CrashPadConfig, PolicyTable, TransformDirection,
    };
    use legosdn_invariants::Checker;
    use legosdn_netsim::Topology;
    use legosdn_openflow::prelude::*;

    fn runtime(isolation: IsolationMode) -> LegoSdnRuntime {
        LegoSdnRuntime::new(LegoSdnConfig {
            isolation,
            ..LegoSdnConfig::default()
        })
    }

    fn net2() -> (Network, Topology) {
        let topo = Topology::linear(2, 1);
        (Network::new(&topo), topo)
    }

    #[test]
    fn construction_time_obs_wiring_reaches_every_layer() {
        let obs = Obs::new();
        let (mut net, topo) = net2();
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            obs: ObsConfig::instance(obs.clone()),
            ..LegoSdnConfig::default()
        });
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnEventKind(EventKind::PacketIn),
            BugEffect::Crash,
        )))
        .unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        rt.run_cycle(&mut net);
        // The runtime's own counters and the Crash-Pad journal records
        // both landed in the private instance, with no set_obs call.
        assert!(obs.counter("core", "dispatches", "").get() > 0);
        assert!(obs.records().iter().any(|r| r.kind.is_detection()));
    }

    #[test]
    fn the_runtime_stays_send() {
        fn send<T: Send>() {}
        send::<LegoSdnRuntime>();
    }

    #[test]
    fn journal_capacity_section_bounds_the_private_journal() {
        let rt = LegoSdnRuntime::new(LegoSdnConfig {
            obs: ObsConfig::journal_capacity(4),
            ..LegoSdnConfig::default()
        });
        let obs = rt.obs();
        for _ in 0..5 {
            obs.emit(None, legosdn_obs::RecordKind::CommFailure);
        }
        assert_eq!(obs.records().len(), 4);
    }

    #[test]
    fn feed_holds_an_impure_raw_until_everything_before_it_has_committed() {
        let (mut net, topo) = net2();
        let obs = Obs::new();
        let mut feed = Feed::new(obs.clone(), obs.counter("core", "events_translated", ""), 0);
        let mut slots = Vec::new();
        // Boot: handshakes are impure, so only a drained window gets them.
        feed.begin(net.poll_events(), 1);
        assert_eq!(feed.pull(&mut net, false, |s| slots.push(s)), Pull::Drain);
        assert!(slots.is_empty());
        while feed.pull(&mut net, true, |s| slots.push(s)) == Pull::Fed {}

        // A burst of packet, link flap, packet: the packet-in is handed
        // out at once, the port-status behind it waits for the drain and
        // holds back the pure raws queued after it.
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        net.set_link_up(0, false).unwrap();
        net.inject(b, Packet::ethernet(b, a)).unwrap();
        feed.begin(net.poll_events(), 2);
        slots.clear();
        assert_eq!(feed.pull(&mut net, false, |s| slots.push(s)), Pull::Fed);
        let kinds = |slots: &[WindowSlot]| slots.iter().map(|s| s.event.kind()).collect::<Vec<_>>();
        assert_eq!(kinds(&slots), [EventKind::PacketIn]);
        assert_eq!(feed.pull(&mut net, false, |s| slots.push(s)), Pull::Drain);
        assert_eq!(slots.len(), 1, "a refused pull translates nothing");
        while feed.pull(&mut net, true, |s| slots.push(s)) == Pull::Fed {}
        assert_eq!(kinds(&slots).last(), Some(&EventKind::PacketIn));

        // Past the burst the feed ends, even with a pure raw queued: what
        // the cycle's commits enqueue is the next cycle's burst.
        let fed = slots.len();
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        assert!(net.peek_event().is_some());
        for drained in [false, true] {
            assert_eq!(feed.pull(&mut net, drained, |s| slots.push(s)), Pull::End);
        }
        assert_eq!(slots.len(), fed, "an ended feed translates nothing");
        assert!(
            net.peek_event().is_some(),
            "the queued raw waits for the next cycle"
        );
    }

    #[test]
    fn depth_one_dispatch_contains_crashes_and_counts_phases() {
        let (mut net, topo) = net2();
        let obs = Obs::new();
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            isolation: IsolationMode::Local,
            obs: ObsConfig::instance(obs.clone()),
            ..LegoSdnConfig::default()
        });
        let poison = topo.hosts[1].mac;
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnPacketToMac(poison),
            BugEffect::Crash,
        )))
        .unwrap();
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        rt.run_cycle(&mut net);
        let a = topo.hosts[0].mac;
        net.inject(a, Packet::ethernet(a, poison)).unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.recoveries >= 1, "{report:?}");
        assert!(!rt.is_crashed());
        // Healthy neighbor still produced network output.
        assert!(report.commands > 0, "{report:?}");
        // Per-phase instrumentation landed: the in-process depth-1 window
        // filled and committed once per event.
        for phase in ["window_fill", "window_commit"] {
            assert!(
                obs.histogram("core", phase, "").count() >= report.events as u64,
                "missing span histogram for {phase}"
            );
        }
        rt.shutdown();
    }

    #[test]
    fn windowed_dispatch_contains_crashes_and_records_window_metrics() {
        let (mut net, topo) = net2();
        let obs = Obs::new();
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            isolation: IsolationMode::Channel,
            obs: ObsConfig::instance(obs.clone()),
            ..LegoSdnConfig::default()
        });
        let poison = topo.hosts[1].mac;
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnPacketToMac(poison),
            BugEffect::Crash,
        )))
        .unwrap();
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        rt.run_cycle(&mut net);
        // A burst of four packet-ins in one cycle, with the poison in the
        // middle: slots after the crash must be cancelled, the app
        // restored, and the tail re-sent from the recovered state.
        let a = topo.hosts[0].mac;
        net.inject(a, Packet::ethernet(a, MacAddr::from_index(7)))
            .unwrap();
        net.inject(a, Packet::ethernet(a, poison)).unwrap();
        net.inject(a, Packet::ethernet(a, MacAddr::from_index(8)))
            .unwrap();
        net.inject(a, Packet::ethernet(a, MacAddr::from_index(9)))
            .unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.events >= 4, "{report:?}");
        assert!(report.recoveries >= 1, "{report:?}");
        assert!(!rt.is_crashed());
        // Healthy neighbor still produced network output for the burst.
        assert!(report.commands > 0, "{report:?}");
        // Both apps saw every event exactly once (crashed deliveries are
        // replay-recovered, cancelled ones re-sent): the dispatch count
        // must equal what sequential dispatch would record.
        assert_eq!(rt.stats().dispatches, 2 * report.events as u64);
        // Window instrumentation landed.
        assert!(obs.histogram("core", "window_queue_ns", "").count() >= 4);
        for phase in ["window_fill", "window_commit"] {
            assert!(
                obs.histogram("core", phase, "").count() > 0,
                "missing span histogram for {phase}"
            );
        }
        // The system keeps processing later events after the window drains.
        net.inject(a, Packet::ethernet(a, MacAddr::from_index(10)))
            .unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.events > 0);
        rt.shutdown();
    }

    #[test]
    fn healthy_learning_switch_delivers_traffic() {
        let (mut net, topo) = net2();
        let mut rt = runtime(IsolationMode::Local);
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        rt.run_cycle(&mut net); // handshake + discovery
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        // First packet floods (unknown dst), reply teaches, then direct.
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        rt.run_cycle(&mut net);
        net.inject(b, Packet::ethernet(b, a)).unwrap();
        rt.run_cycle(&mut net);
        let trace = net.inject(a, Packet::ethernet(a, b)).unwrap();
        rt.run_cycle(&mut net);
        assert!(trace.delivered_to(b) || trace.packet_ins > 0);
        assert!(rt.stats().commands_executed > 0);
        assert!(!rt.is_crashed());
    }

    #[test]
    fn app_crash_does_not_kill_controller_or_other_apps() {
        let (mut net, topo) = net2();
        let mut rt = runtime(IsolationMode::Local);
        let poison = topo.hosts[1].mac;
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnPacketToMac(poison),
            BugEffect::Crash,
        )))
        .unwrap();
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        rt.run_cycle(&mut net);
        let a = topo.hosts[0].mac;
        net.inject(a, Packet::ethernet(a, poison)).unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.recoveries >= 1, "{report:?}");
        assert!(!rt.is_crashed());
        // The learning switch still ran and emitted output for the event.
        assert!(rt.stats().dispatches >= 2);
        // And the system keeps processing later events.
        net.inject(a, Packet::ethernet(a, MacAddr::from_index(9)))
            .unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.events > 0);
    }

    #[test]
    fn isolated_channel_app_crash_is_contained() {
        let (mut net, topo) = net2();
        let mut rt = runtime(IsolationMode::Channel);
        let poison = topo.hosts[1].mac;
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnPacketToMac(poison),
            BugEffect::Crash,
        )))
        .unwrap();
        rt.run_cycle(&mut net);
        let a = topo.hosts[0].mac;
        net.inject(a, Packet::ethernet(a, poison)).unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.recoveries >= 1);
        // Recovered: a later clean packet still floods.
        net.inject(a, Packet::ethernet(a, MacAddr::from_index(9)))
            .unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.commands > 0, "{report:?}");
        rt.shutdown();
    }

    #[test]
    fn byzantine_blackhole_is_blocked_and_rolled_back() {
        let (mut net, topo) = net2();
        let mut rt = runtime(IsolationMode::Local);
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnEventKind(EventKind::PacketIn),
            BugEffect::Blackhole,
        )))
        .unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.byzantine_blocked >= 1, "{report:?}");
        // The drop-all rule must NOT be on any switch.
        for sw in net.switches() {
            assert!(
                sw.table().iter().all(|e| e.priority != u16::MAX),
                "black-hole rule survived on {:?}",
                sw.dpid()
            );
        }
    }

    #[test]
    fn commit_path_check_reuses_what_a_transaction_did_not_touch() {
        let obs = Obs::new();
        let topo = Topology::linear(4, 1);
        let mut net = Network::new(&topo);
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            obs: ObsConfig::instance(obs.clone()),
            ..LegoSdnConfig::default()
        });
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        for (src, dst) in [(a, b), (b, a), (a, b)] {
            net.inject(src, Packet::ethernet(src, dst)).unwrap();
            while rt.run_cycle(&mut net).events > 0 {}
        }
        let reprobed = obs.counter("invariants", "pairs_reprobed", "").get();
        let reused = obs.counter("invariants", "pairs_reused", "").get();
        // 4 hosts: every check accounts for all 12 pairs, one way or the
        // other; the first is a full scan, the rest mostly reuse.
        assert!(reprobed >= 12, "{reprobed}");
        assert!(reused > 0, "{reused}");
        assert_eq!((reprobed + reused) % 12, 0, "{reprobed} + {reused}");
        assert!(reprobed + reused >= 24, "more than one check ran");
    }

    #[test]
    fn commit_path_check_reprobes_nothing_for_rules_no_probe_can_match() {
        let obs = Obs::new();
        let topo = Topology::fat_tree(4);
        let mut net = Network::new(&topo);
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            obs: ObsConfig::instance(obs.clone()),
            ..LegoSdnConfig::default()
        });
        // A fat-tree has loops: the spanning tree goes first so a flood
        // ends. Its port-blocking rules match any probe, and are checked
        // in full as they go in.
        rt.attach(Box::new(SpanningTree::new())).unwrap();
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        let poison = topo.hosts[15].mac;
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnPacketToMac(poison),
            BugEffect::Blackhole,
        )))
        .unwrap();
        while rt.run_cycle(&mut net).events > 0 {}

        let pairs = (topo.hosts.len() * (topo.hosts.len() - 1)) as u64;
        let counts = || {
            let reprobed = obs.counter("invariants", "pairs_reprobed", "").get();
            let reused = obs.counter("invariants", "pairs_reused", "").get();
            assert_eq!((reprobed + reused) % pairs, 0);
            (reprobed, (reprobed + reused) / pairs)
        };
        let (booted, checks_at_boot) = counts();
        assert!(booted >= pairs, "the first check is a full scan");

        // TCP between a dozen hosts, both ways: the learning switch
        // installs one exact 12-tuple per hop. Every one of those
        // transactions is checked, and no pair is walked again for it.
        let tcp = |s: usize, d: usize| {
            let (s, d) = (&topo.hosts[s], &topo.hosts[d]);
            Packet::tcp(s.mac, d.mac, s.ip, d.ip, 4000, 80)
        };
        for i in 0..12 {
            for (s, d) in [(i, (i + 5) % 12), ((i + 5) % 12, i), (i, (i + 5) % 12)] {
                net.inject(topo.hosts[s].mac, tcp(s, d)).unwrap();
                while rt.run_cycle(&mut net).events > 0 {}
            }
        }
        let (reprobed, checks) = counts();
        assert!(checks - checks_at_boot >= 50, "{checks} checks");
        assert_eq!(reprobed, booted, "a learned flow re-probed pairs");
        assert_eq!(rt.stats().byzantine_blocked, 0);

        // The same warm state still sees a rule that does hurt: the
        // drop-everything rule is refused and leaves nothing behind.
        let rules = |net: &Network| net.switches().map(|s| s.table().len()).sum::<usize>();
        // (Its neighbour on the edge switch sends, once that switch has
        // learned where the poisoned host is: one packet-in, one firing.)
        assert_eq!(topo.hosts[14].attach.dpid, topo.hosts[15].attach.dpid);
        net.inject(poison, tcp(15, 14)).unwrap();
        while rt.run_cycle(&mut net).events > 0 {}
        let before = rules(&net);
        net.inject(topo.hosts[14].mac, tcp(14, 15)).unwrap();
        while rt.run_cycle(&mut net).events > 0 {}
        assert_eq!(rt.stats().byzantine_blocked, 1);
        assert!(counts().0 > reprobed);
        for sw in net.switches() {
            assert!(sw.table().iter().all(|e| e.priority != u16::MAX));
        }
        assert!(rules(&net) >= before);
        assert!(Checker::default().check(&net).is_clean());
    }

    #[test]
    fn byzantine_loop_is_blocked_and_rolled_back() {
        let (mut net, topo) = net2();
        let mut rt = runtime(IsolationMode::Local);
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnEventKind(EventKind::PacketIn),
            BugEffect::ForwardingLoop,
        )))
        .unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.byzantine_blocked >= 1);
        for sw in net.switches() {
            assert!(sw.table().iter().all(|e| e.priority != u16::MAX));
        }
    }

    #[test]
    fn no_compromise_app_dies_and_stays_dead() {
        let (mut net, topo) = net2();
        let mut policies = PolicyTable::with_default(CompromisePolicy::Absolute);
        policies.set_app("hub#buggy", CompromisePolicy::NoCompromise);
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            crashpad: CrashPadConfig {
                checkpoints: CheckpointPolicy::default(),
                policies,
                transform_direction: TransformDirection::Decompose,
            },
            ..LegoSdnConfig::default()
        });
        let id = rt
            .attach(Box::new(FaultyApp::new(
                Box::new(Hub::new()),
                BugTrigger::OnEventKind(EventKind::PacketIn),
                BugEffect::Crash,
            )))
            .unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        rt.run_cycle(&mut net);
        assert_eq!(rt.app_status(id), Some(&AppStatus::Dead));
        assert_eq!(rt.stats().apps_dead, 1);
        // Dead app skips future events; controller unaffected.
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        rt.run_cycle(&mut net);
        assert!(rt.stats().events_skipped > 0);
        assert!(!rt.is_crashed());
    }

    #[test]
    fn resource_limit_suspends_runaway_app() {
        let (mut net, topo) = net2();
        let mut rt = runtime(IsolationMode::Local);
        let id = rt
            .attach_with_limits(
                Box::new(Hub::new()),
                ResourceLimits {
                    max_events: Some(2),
                    max_commands: None,
                },
            )
            .unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        for _ in 0..4 {
            net.inject(a, Packet::ethernet(a, b)).unwrap();
            rt.run_cycle(&mut net);
        }
        assert!(matches!(rt.app_status(id), Some(AppStatus::Suspended(_))));
        assert!(rt.stats().apps_suspended >= 1);
        // Operator resumes with a bigger budget.
        assert!(rt.resume(
            id,
            ResourceLimits {
                max_events: Some(100),
                max_commands: None,
            }
        ));
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.commands > 0);
    }

    #[test]
    fn controller_upgrade_keeps_app_state() {
        let (mut net, topo) = net2();
        let mut rt = runtime(IsolationMode::Local);
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        rt.run_cycle(&mut net);
        let checkpoint_events = rt
            .crashpad()
            .checkpoints
            .events_delivered("learning-switch");
        assert!(checkpoint_events > 0);
        let links_before = rt.translator().topology.n_links();
        rt.upgrade_controller(&mut net);
        assert_eq!(rt.stats().upgrades, 1);
        // Topology rediscovered without a network outage...
        assert_eq!(rt.translator().topology.n_links(), links_before);
        // ...and the app was NOT restarted: its event history continues.
        assert_eq!(
            rt.crashpad()
                .checkpoints
                .events_delivered("learning-switch"),
            checkpoint_events
        );
    }

    #[test]
    fn tickets_accumulate_for_triage() {
        let (mut net, topo) = net2();
        let mut rt = runtime(IsolationMode::Local);
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnEventKind(EventKind::PacketIn),
            BugEffect::Crash,
        )))
        .unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        for _ in 0..3 {
            net.inject(a, Packet::ethernet(a, b)).unwrap();
            rt.run_cycle(&mut net);
        }
        assert_eq!(rt.crashpad().tickets.len(), 3);
        let rendered = rt.crashpad().tickets.iter().next().unwrap().render();
        assert!(rendered.contains("hub#buggy"));
    }
}
