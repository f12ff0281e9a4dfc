//! The LegoSDN runtime: the re-designed controller of paper §3.
//!
//! Composition (Figure 1, right side):
//!
//! ```text
//!   Network ⇄ EventTranslator (controller core)
//!                 │ events                    ▲ commands
//!                 ▼                           │
//!            Crash-Pad dispatch ──► NetLog transactions ──► invariant gate
//!                 │                                               │
//!            AppVisor proxy ⇄ stubs (isolated apps)        byzantine recovery
//! ```
//!
//! Per app-event dispatch: checkpoint if due → deliver through the app's
//! fault domain → on fail-stop, Crash-Pad recovers (restore + ignore/
//! transform per policy) → the app's commands run inside a NetLog
//! transaction → byzantine output is caught by the invariant checker and
//! the transaction rolled back, after which Crash-Pad recovers the app's
//! internal state too.
//!
//! Crashes never propagate: the controller core and every other app keep
//! running — the paper's two fate-sharing relationships are gone.
//!
//! One engine runs that story (DESIGN.md §9): the cycle's `Feed` hands
//! out raw events one at a time, each translated event becomes a slot of
//! the dispatch window, and a `WorkerRun` per shard fills and commits
//! the window. Apps are dealt round-robin, in attach order, across
//! `dispatch.workers` shards: each [`crate::workers::WorkerShard`] owns
//! its own AppVisor proxy and Crash-Pad, and every commit goes through
//! the shared [`legosdn_netlog::CommitBarrier`], so the output stays
//! bit-identical to the single-threaded reference in `reference.rs`.

use crate::config::{IsolationMode, LegoSdnConfig, ResourceLimits};
use crate::host::Host;
use crate::workers::{
    AppRecord, CommitLane, CoreMetrics, ShardMetrics, SlotStore, WarmCheck, Window, WindowSlot,
    WorkerRun, WorkerShard, TXS_PER_POS,
};
use legosdn_appvisor::{AppVisorProxy, TransportKind};
use legosdn_controller::app::SdnApp;
use legosdn_controller::event::Event;
use legosdn_controller::sandbox::Sandbox;
use legosdn_controller::translate::EventTranslator;
use legosdn_crashpad::CrashPad;
use legosdn_invariants::Checker;
use legosdn_netlog::{CommitBarrier, NetLog};
use legosdn_netsim::{NetEvent, Network};
use legosdn_obs::{Counter, Obs, TraceId};
use legosdn_openflow::prelude::Message;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[path = "reference.rs"]
mod reference;

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
    /// Byzantine outputs blocked (transaction aborted / buffer dropped).
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
    pub last_snapshot_bytes: u64,
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
    netlog: NetLog,
    checker: Option<Checker>,
    /// The checker's memory of the network it last checked; handed out
    /// with the commit lane.
    warm_check: WarmCheck,
    /// Worker shards in id order; app `g` (attach order) is local app
    /// `g / workers` of shard `g % workers` ([`LegoSdnRuntime::loc`]).
    shards: Vec<WorkerShard>,
    /// Apps attached so far, across all shards.
    n_apps: usize,
    stats: RuntimeStats,
    obs: Obs,
    metrics: CoreMetrics,
    /// First transaction id of the next cycle. The engine and the
    /// reference advance it identically (`events × apps × TXS_PER_POS`
    /// per cycle), so transaction ids are a pure function of the
    /// event/app position —
    /// the invariant that lets sharded fastpath commits land out of order
    /// with a txlog that still reads in sequential order.
    txid_cursor: u64,
    /// Some committed batch carried a `send_flow_removed` FlowMod; table
    /// entries persist, so the commit fastpath stays off for all later
    /// cycles (an Add displacing a notify-flagged entry would enqueue a
    /// `FlowRemoved` out of order).
    notify_flows_seen: bool,
    /// Dispatch through the sequential reference in `reference.rs`
    /// instead of the engine; only [`LegoSdnRuntime::oracle`] sets it.
    oracle: bool,
}

impl LegoSdnRuntime {
    /// A runtime with the given configuration. Observability is wired
    /// here, once, for every layer, from the `obs` section:
    /// [`crate::config::ObsConfig::instance`] if set, [`Obs::global`] if
    /// merely enabled, a throwaway private instance when disabled.
    ///
    /// Call [`LegoSdnConfig::build`] first to validate; this constructor
    /// tolerates unvalidated configs by clamping (workers/depth floor 1)
    /// rather than panicking.
    #[must_use]
    pub fn new(config: LegoSdnConfig) -> Self {
        let obs = match (&config.obs.instance, config.obs.enabled) {
            (Some(obs), _) => obs.clone(),
            (None, true) => Obs::global(),
            (None, false) => Obs::new(),
        };
        let mut netlog = NetLog::new(config.netlog_mode);
        netlog.set_obs(obs.clone());
        let workers = config.dispatch.workers.max(1);
        let shards = (0..workers)
            .map(|id| {
                let mut crashpad = CrashPad::new(config.crashpad.clone());
                crashpad.set_obs(obs.clone());
                let mut proxy_config = config.io.proxy.clone();
                proxy_config.io = config.io.mode;
                proxy_config.worker = id;
                let mut proxy = AppVisorProxy::new(proxy_config);
                proxy.set_obs(obs.clone());
                let label = if workers > 1 {
                    format!("w{id}")
                } else {
                    String::new()
                };
                WorkerShard {
                    id,
                    proxy,
                    crashpad,
                    apps: Vec::new(),
                    metrics: ShardMetrics::resolve(&obs, &label),
                }
            })
            .collect();
        let metrics = CoreMetrics::resolve(&obs);
        obs.gauge("core", "workers", "")
            .set(i64::try_from(workers).unwrap_or(i64::MAX));
        LegoSdnRuntime {
            feed: Feed::new(
                obs.clone(),
                Arc::clone(&metrics.events_translated),
                config.obs.trace_sample,
            ),
            netlog,
            checker: config.checker.clone(),
            warm_check: WarmCheck::new(&obs),
            shards,
            n_apps: 0,
            stats: RuntimeStats::default(),
            obs,
            metrics,
            txid_cursor: 1,
            notify_flows_seen: false,
            oracle: false,
            config,
        }
    }

    /// A runtime that dispatches through the sequential reference
    /// (`reference.rs`: one blocking Crash-Pad round trip per (event,
    /// app), whatever the window depth or worker count) — the oracle the
    /// determinism suites hold the engine to. Not a configuration: nothing
    /// but a test should want it.
    #[doc(hidden)]
    #[must_use]
    pub fn oracle(config: LegoSdnConfig) -> Self {
        LegoSdnRuntime {
            oracle: true,
            ..LegoSdnRuntime::new(config)
        }
    }

    /// Attach an app in the configured isolation mode.
    pub fn attach(&mut self, app: Box<dyn SdnApp>) -> Result<AppId, AttachError> {
        self.attach_with_limits(app, self.config.resource_limits)
    }

    /// Attach an app with specific resource limits (paper §3.4). Apps are
    /// dealt round-robin over the shards in attach order
    /// ([`LegoSdnRuntime::loc`]), so the same roster shards the same way
    /// on every run.
    pub fn attach_with_limits(
        &mut self,
        app: Box<dyn SdnApp>,
        limits: ResourceLimits,
    ) -> Result<AppId, AttachError> {
        let global = self.n_apps;
        let (worker, _) = self.loc(global);
        let shard = &mut self.shards[worker];
        let transport = match self.config.isolation {
            IsolationMode::Local => None,
            IsolationMode::Channel => Some(TransportKind::Channel),
            IsolationMode::Udp => Some(TransportKind::Udp),
            IsolationMode::Tcp => Some(TransportKind::Tcp),
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
                let proxy = &mut shard.proxy;
                let registered = proxy.launch_app(app, kind).and_then(|h| {
                    let name = proxy.app_name(h)?.to_string();
                    Ok((name, proxy.subscriptions(h)?.to_vec(), Host::Isolated(h)))
                });
                registered.map_err(|e| AttachError(e.to_string()))?
            }
        };
        shard.apps.push(AppRecord {
            subscriptions,
            host,
            status: AppStatus::Running,
            limits,
            usage: ResourceUsage::default(),
            failstop_recoveries: self.obs.counter("core", "failstop_recoveries", &name),
            byzantine_blocked: self.obs.counter("core", "byzantine_blocked", &name),
            name,
        });
        self.n_apps += 1;
        Ok(AppId(global))
    }

    /// Where the app with global attach index `global` lives, as (shard,
    /// local index): placement is arithmetic, never stored or revised
    /// (DESIGN.md §9).
    pub(crate) fn loc(&self, global: usize) -> (usize, usize) {
        (global % self.shards.len(), global / self.shards.len())
    }

    fn rec(&self, global: usize) -> Option<&AppRecord> {
        let (w, l) = self.loc(global);
        self.shards[w].apps.get(l)
    }

    /// Names of attached apps, in attach order.
    #[must_use]
    pub fn app_names(&self) -> Vec<String> {
        (0..self.n_apps)
            .filter_map(|g| self.rec(g))
            .map(|a| a.name.clone())
            .collect()
    }

    /// An app's scheduling status.
    pub fn app_status(&self, id: AppId) -> Option<&AppStatus> {
        self.rec(id.0).map(|a| &a.status)
    }

    /// An app's resource usage.
    pub fn app_usage(&self, id: AppId) -> Option<ResourceUsage> {
        self.rec(id.0).map(|a| a.usage)
    }

    /// The worker shard an app lives on.
    pub fn worker_of(&self, id: AppId) -> Option<usize> {
        self.rec(id.0).map(|_| self.loc(id.0).0)
    }

    /// The worker-shard count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shards.len()
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

    /// Shard 0's Crash-Pad engine (tickets, checkpoints, policies).
    /// Single-worker runtimes — the default — have exactly one shard, so
    /// this is *the* Crash-Pad; sharded runtimes keep one per worker, and
    /// per-app engines are reached through the app's shard.
    #[must_use]
    pub fn crashpad(&self) -> &CrashPad {
        &self.shards[0].crashpad
    }

    /// Mutable Crash-Pad access (operator policy updates at runtime).
    /// Shard 0's engine; see [`LegoSdnRuntime::crashpad`].
    pub fn crashpad_mut(&mut self) -> &mut CrashPad {
        &mut self.shards[0].crashpad
    }

    /// The Crash-Pad engine owning a specific app.
    pub fn crashpad_for(&self, id: AppId) -> Option<&CrashPad> {
        self.worker_of(id).map(|w| &self.shards[w].crashpad)
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
    /// The polled burst — and, while `lookahead_cycles` allows, the
    /// follow-on events its own commits enqueue — reaches the apps
    /// through the cycle's `Feed` and the dispatch window.
    pub fn run_cycle(&mut self, net: &mut Network) -> LegoCycleReport {
        let _span = self.metrics.run_cycle.start();
        let started = Instant::now();
        self.stats.cycles += 1;
        let mut report = LegoCycleReport::default();
        let burst = net.poll_events();
        if !burst.is_empty() {
            let lookahead = self.config.dispatch.lookahead_cycles.max(1);
            self.feed.begin(burst, lookahead, self.stats.cycles);
            self.dispatch_feed(net, &mut report);
            self.stats.events_translated += report.events as u64;
        }
        report.elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        report
    }

    /// Deliver a Tick to subscribed apps: a cycle whose feed is the one
    /// Tick.
    pub fn tick_apps(&mut self, net: &mut Network) -> LegoCycleReport {
        let _span = self.metrics.tick_apps.start();
        let started = Instant::now();
        self.stats.cycles += 1;
        let mut report = LegoCycleReport::default();
        self.feed
            .begin_tick(Event::Tick(net.now()), self.stats.cycles);
        self.dispatch_feed(net, &mut report);
        report.elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        report
    }

    /// Dispatch everything the feed yields this cycle, and advance the
    /// transaction-id cursor past the cycle's positions.
    fn dispatch_feed(&mut self, net: &mut Network, report: &mut LegoCycleReport) {
        if self.oracle {
            self.run_reference(net, report);
        } else {
            self.run_window(net, report);
        }
        report.events = self.feed.events;
        self.txid_cursor += report.events as u64 * self.n_apps as u64 * TXS_PER_POS;
    }

    /// The dispatch engine (DESIGN.md §9): up to `dispatch.window.depth`
    /// slots are in flight per worker at once. Each worker runs the
    /// two-cursor fill/commit machinery over its own shard's apps and
    /// pulls the next raw off the shared feed when its fill cursor wants
    /// a slot; commits synchronize through the [`CommitBarrier`] in
    /// global (event, attach) position order — or overtake it on the
    /// provably-disjoint fastpath — so network state, the txlog, and
    /// runtime counters stay bit-identical to the sequential reference.
    ///
    /// A single worker runs inline on this thread; worker shards run on
    /// `lego-worker-N` scoped threads.
    fn run_window(&mut self, net: &mut Network, report: &mut LegoCycleReport) {
        let depth = self.config.dispatch.window.depth.max(1);
        self.metrics
            .window_depth
            .set(i64::try_from(depth).unwrap_or(i64::MAX));
        let sharded = self.shards.len() > 1;
        // The fastpath needs commit-time effects to be exactly the
        // declared touch: a checker observes (and byz-recovery rewrites)
        // live state at commit, and a surviving notify-flagged table
        // entry could emit a FlowRemoved on displacement — either one
        // forces full ordering.
        let fastpath = sharded && self.checker.is_none() && !self.notify_flows_seen;
        let barrier = CommitBarrier::new(fastpath);
        let store = SlotStore::default();
        let feed = Mutex::new(&mut self.feed);
        let lane = Mutex::new(CommitLane {
            net,
            netlog: &mut self.netlog,
            check: &mut self.warm_check,
            notify_seen: false,
        });
        let win = Window {
            store: &store,
            feed: &feed,
            barrier: &barrier,
            lane: &lane,
            obs: &self.obs,
            metrics: &self.metrics,
            checker: self.checker.as_ref(),
            shutdown_on_no_compromise: self.config.shutdown_network_on_no_compromise,
            depth,
            n_apps: self.n_apps,
            tx_cycle_base: self.txid_cursor,
            workers: self.shards.len(),
        };
        let mut absorb = |run: WorkerRun<'_, '_>| {
            self.stats.absorb(&run.stats);
            report.commands += run.report.commands;
            report.recoveries += run.report.recoveries;
            report.byzantine_blocked += run.report.byzantine_blocked;
        };
        if let [shard] = &mut self.shards[..] {
            let mut run = WorkerRun::new(shard, win);
            run.run();
            absorb(run);
        } else {
            // Start the workers with work instead of a race for the feed
            // (with no app anywhere, this session is the whole cycle).
            win.top_up(0);
            std::thread::scope(|scope| {
                // A shard without apps owns no position, so nothing ties
                // its cursor to the barrier's: it would fall behind the
                // slots being released. It has nothing to run either.
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .filter(|shard| !shard.apps.is_empty())
                    .map(|shard| {
                        std::thread::Builder::new()
                            .name(format!("lego-worker-{}", shard.id))
                            .spawn_scoped(scope, move || {
                                let mut run = WorkerRun::new(shard, win);
                                run.run();
                                run
                            })
                            .expect("spawn worker thread")
                    })
                    .collect();
                for handle in handles {
                    absorb(handle.join().expect("worker thread panicked"));
                }
            });
        }
        let lane = lane.into_inner().expect("commit lane poisoned");
        self.notify_flows_seen |= lane.notify_seen;
        let bs = barrier.stats();
        let m = &self.metrics;
        m.barrier_fastpath_commits.add(bs.fastpath_commits);
        m.barrier_ordered_commits.add(bs.ordered_commits);
        m.barrier_elided_positions.add(bs.elided_positions);
        m.barrier_shared_switch_conflicts
            .add(bs.shared_switch_conflicts);
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
        if self.rec(id.0).is_none() {
            return Err(legosdn_crashpad::DiagnoseError::NoHistory);
        }
        let (w, l) = self.loc(id.0);
        let translator = &self.feed.translator;
        self.shards[w].with_app(l, |crashpad, app, name| {
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
        let (w, l) = self.loc(id.0);
        match self.shards[w].apps.get_mut(l) {
            Some(rec) if matches!(rec.status, AppStatus::Suspended(_)) => {
                rec.status = AppStatus::Running;
                rec.limits = extra_budget;
                true
            }
            _ => false,
        }
    }

    /// Shut down all isolated stubs on every shard.
    pub fn shutdown(self) {
        for shard in self.shards {
            let _ = shard.proxy.shutdown();
        }
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
/// (DESIGN.md §9). It hands out the burst polled at cycle start and then
/// — while `lookahead_cycles` allows — the head of the net queue, one raw
/// at a time and strictly in order, under one rule:
///
/// - a pure raw ([`extendable`]) is translated whenever the window wants
///   a slot;
/// - an impure raw of the polled burst only once every slot fed before
///   it has committed: its translation probes the network and swallows
///   whatever those commits enqueued, so it must see exactly the network
///   sequential dispatch would show it;
/// - an impure raw at the head of the net queue ends the cycle's feed and
///   waits for the next cycle's burst.
///
/// Event-producing commits are always barrier-Ordered, so the net queue
/// grows in commit-position order and popping its pure prefix as commits
/// land yields exactly the sequence popping it after a full drain would.
/// The reference dispatcher and the window engine pull from the same
/// feed, so they pop, translate and sample traces identically.
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
    lookahead: usize,
    /// Events fed so far this cycle.
    events: usize,
    /// Event cap of the lookahead, fixed when the burst runs dry; checked
    /// before each raw pop, so one raw translating to several events may
    /// overshoot it.
    cap: Option<usize>,
    ended: bool,
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
            lookahead: 1,
            events: 0,
            cap: None,
            ended: false,
        }
    }

    /// Start a cycle over its polled burst.
    fn begin(&mut self, burst: Vec<NetEvent>, lookahead: usize, cycle: u64) {
        self.burst = burst.into();
        self.lookahead = lookahead;
        self.cycle = cycle;
        self.events = 0;
        self.cap = None;
        self.ended = false;
    }

    /// Start a cycle that feeds one `Tick` and nothing else.
    fn begin_tick(&mut self, tick: Event, cycle: u64) {
        self.begin(Vec::new(), 1, cycle);
        self.tick = Some(tick);
    }

    /// Nothing more will be fed this cycle.
    pub(crate) fn ended(&self) -> bool {
        self.ended
    }

    /// A raw of the polled burst is still waiting its turn.
    pub(crate) fn burst_waiting(&self) -> bool {
        !self.burst.is_empty()
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
        self.obs.trace_begin(id, &format!("{:?}", event.kind()));
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

    /// Translate the next raw the rule allows and hand its slots to
    /// `sink`. `drained` says whether every slot fed so far has committed.
    pub(crate) fn pull(
        &mut self,
        net: &mut Network,
        drained: bool,
        mut sink: impl FnMut(WindowSlot),
    ) -> Pull {
        if self.ended {
            return Pull::End;
        }
        if let Some(tick) = self.tick.take() {
            sink(self.slot(net, tick));
            return Pull::Fed;
        }
        let raw = match self.burst.front() {
            Some(raw) if drained || extendable(raw) => self.burst.pop_front(),
            Some(_) => return Pull::Drain,
            None => {
                let cap = *self
                    .cap
                    .get_or_insert(self.events.saturating_mul(self.lookahead));
                if self.events >= cap {
                    None
                } else {
                    match net.peek_event() {
                        Some(raw) if extendable(raw) => net.pop_event(),
                        // Commits still in flight may enqueue more.
                        None if !drained => return Pull::Drain,
                        _ => None,
                    }
                }
            }
        };
        let Some(raw) = raw else {
            self.ended = true;
            return Pull::End;
        };
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
    use crate::config::{DispatchConfig, ObsConfig};
    use legosdn_apps::{BugEffect, BugTrigger, FaultyApp, Hub, LearningSwitch, SpanningTree};
    use legosdn_controller::event::EventKind;
    use legosdn_crashpad::{
        CheckpointPolicy, CompromisePolicy, CrashPadConfig, PolicyTable, TransformDirection,
    };
    use legosdn_netlog::TxMode;
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
        assert!(obs
            .journal()
            .snapshot()
            .iter()
            .any(|r| r.kind.is_detection()));
        // The construction-time worker gauge landed too.
        assert_eq!(obs.gauge("core", "workers", "").get(), 1);
    }

    #[test]
    fn journal_capacity_section_bounds_the_private_journal() {
        let rt = LegoSdnRuntime::new(LegoSdnConfig {
            obs: ObsConfig::journal_capacity(4),
            ..LegoSdnConfig::default()
        });
        assert_eq!(rt.obs().journal().capacity(), 4);
    }

    #[test]
    fn feed_holds_an_impure_raw_until_everything_before_it_has_committed() {
        let (mut net, topo) = net2();
        let obs = Obs::new();
        let mut feed = Feed::new(obs.clone(), obs.counter("core", "events_translated", ""), 0);
        let mut slots = Vec::new();
        // Boot: handshakes are impure, so only a drained window gets them.
        feed.begin(net.poll_events(), 1, 1);
        assert_eq!(feed.pull(&mut net, false, |s| slots.push(s)), Pull::Drain);
        assert!(slots.is_empty());
        while feed.pull(&mut net, true, |s| slots.push(s)) == Pull::Fed {}
        assert!(feed.ended());

        // A burst of packet, link flap, packet: the packet-in is handed
        // out at once, the port-status behind it waits for the drain and
        // holds back the pure raws queued after it.
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        net.set_link_up(0, false).unwrap();
        net.inject(b, Packet::ethernet(b, a)).unwrap();
        feed.begin(net.poll_events(), 2, 2);
        slots.clear();
        assert_eq!(feed.pull(&mut net, false, |s| slots.push(s)), Pull::Fed);
        let kinds = |slots: &[WindowSlot]| slots.iter().map(|s| s.event.kind()).collect::<Vec<_>>();
        assert_eq!(kinds(&slots), [EventKind::PacketIn]);
        assert_eq!(feed.pull(&mut net, false, |s| slots.push(s)), Pull::Drain);
        assert_eq!(slots.len(), 1, "a refused pull translates nothing");
        while feed.burst_waiting() {
            assert_eq!(feed.pull(&mut net, true, |s| slots.push(s)), Pull::Fed);
        }
        assert_eq!(kinds(&slots).last(), Some(&EventKind::PacketIn));

        // Past the burst the net queue's head is fed only while pure and
        // under the lookahead cap; an empty queue is final only once
        // nothing in flight could still grow it.
        assert_eq!(feed.pull(&mut net, false, |s| slots.push(s)), Pull::Drain);
        net.set_link_up(0, true).unwrap();
        assert_eq!(feed.pull(&mut net, false, |s| slots.push(s)), Pull::End);
        assert!(
            net.peek_event().is_some(),
            "the impure head waits for the next cycle"
        );
    }

    #[test]
    fn depth_one_dispatch_contains_crashes_and_counts_phases() {
        let (mut net, topo) = net2();
        let obs = Obs::new();
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            isolation: IsolationMode::Channel,
            dispatch: DispatchConfig::default(),
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
        // Per-phase instrumentation landed: the default depth-1 window
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
            dispatch: DispatchConfig::default().window(4),
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
        assert_eq!(obs.gauge("core", "window_depth", "").get(), 4);
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
    fn sharded_dispatch_spreads_apps_and_matches_per_worker_metrics() {
        let (mut net, topo) = net2();
        let obs = Obs::new();
        let mut rt = LegoSdnRuntime::new(
            LegoSdnConfig {
                isolation: IsolationMode::Channel,
                dispatch: DispatchConfig::default().window(2).workers(4),
                obs: ObsConfig::instance(obs.clone()),
                ..LegoSdnConfig::default()
            }
            .build()
            .unwrap(),
        );
        assert_eq!(rt.workers(), 4);
        let mut ids = Vec::new();
        for _ in 0..6 {
            ids.push(rt.attach(Box::new(Hub::new())).unwrap());
        }
        // Six identically-named apps are dealt round-robin over the four
        // shards, and `worker_of` reports their homes.
        let homes: Vec<usize> = ids.iter().map(|&id| rt.worker_of(id).unwrap()).collect();
        assert_eq!(homes, [0, 1, 2, 3, 0, 1]);
        assert_eq!(rt.worker_of(AppId(6)), None);
        assert_eq!(obs.gauge("core", "workers", "").get(), 4);

        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.events >= 2, "{report:?}");
        // Every (packet-in, app) pair dispatched exactly once across
        // shards (the handshake cycle's events have no subscribers here).
        assert_eq!(rt.stats().dispatches, 6 * report.events as u64);
        // Per-worker span labels landed for at least one busy worker.
        let fills: u64 = (0..4)
            .map(|w| {
                obs.histogram("core", "window_fill", &format!("w{w}"))
                    .count()
            })
            .sum();
        assert!(fills > 0, "no per-worker window_fill spans recorded");
        rt.shutdown();
    }

    /// A hub under its own name that burns `spin` of CPU per packet-in.
    struct SpinHub {
        name: String,
        spin: std::time::Duration,
        hub: Hub,
    }

    impl SdnApp for SpinHub {
        fn name(&self) -> &str {
            &self.name
        }
        fn subscriptions(&self) -> Vec<EventKind> {
            self.hub.subscriptions()
        }
        fn on_event(&mut self, event: &Event, ctx: &mut legosdn_controller::app::Ctx<'_>) {
            let until = Instant::now() + self.spin;
            while Instant::now() < until {
                std::hint::spin_loop();
            }
            self.hub.on_event(event, ctx);
        }
        fn snapshot(&self) -> Vec<u8> {
            self.hub.snapshot()
        }
        fn restore(&mut self, bytes: &[u8]) -> Result<(), legosdn_controller::app::RestoreError> {
            self.hub.restore(bytes)
        }
    }

    #[test]
    fn placement_is_attach_order_round_robin_and_never_moves() {
        for isolation in [IsolationMode::Local, IsolationMode::Channel] {
            let (mut net, topo) = net2();
            let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
                isolation,
                dispatch: DispatchConfig::default().window(2).workers(2),
                ..LegoSdnConfig::default()
            });
            // Five uniquely-named apps, the first a dozen times dearer
            // than its shard-mates: what a load-aware placer would move.
            let ids: Vec<AppId> = (0..5u64)
                .map(|i| {
                    let us = if i == 0 { 360 } else { 30 };
                    rt.attach(Box::new(SpinHub {
                        name: format!("hub-{i}"),
                        spin: std::time::Duration::from_micros(us),
                        hub: Hub::new(),
                    }))
                    .unwrap()
                })
                .collect();
            let homes = |rt: &LegoSdnRuntime| -> Vec<usize> {
                ids.iter().map(|&id| rt.worker_of(id).unwrap()).collect()
            };
            assert_eq!(homes(&rt), [0, 1, 0, 1, 0], "{isolation:?} at attach");
            rt.run_cycle(&mut net);
            let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
            for _ in 0..50 {
                net.inject(a, Packet::ethernet(a, b)).unwrap();
                net.inject(b, Packet::ethernet(b, a)).unwrap();
                rt.run_cycle(&mut net);
            }
            assert_eq!(rt.stats().dispatches % 5, 0);
            assert!(rt.stats().dispatches >= 5 * 100, "{:?}", rt.stats());
            assert_eq!(homes(&rt), [0, 1, 0, 1, 0], "{isolation:?} after traffic");
            assert_eq!(rt.app_names()[3], "hub-3");
            rt.shutdown();
        }
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
    fn byzantine_loop_blocked_in_buffered_mode() {
        let (mut net, topo) = net2();
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            netlog_mode: TxMode::Buffered,
            ..LegoSdnConfig::default()
        });
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
                    ..ResourceLimits::default()
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
                ..ResourceLimits::default()
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
