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
//! Apps are partitioned across `dispatch.workers` shards (DESIGN.md §13):
//! each [`crate::workers::WorkerShard`] owns its own AppVisor proxy and
//! Crash-Pad, and under pipelined dispatch each worker runs the window
//! machinery on its own thread, committing through the shared
//! [`legosdn_netlog::CommitBarrier`] so the output stays bit-identical to
//! the single-threaded reference.

use crate::config::{DispatchMode, IsolationMode, LegoSdnConfig, ResourceLimits};
use crate::host::{Host, ProxyAdapter};
use crate::workers::{
    commit_outcome, delivery_label, select_app, AppRecord, CommitLane, ShardApp, ShardCtx,
    ShardRouter, SlotStore, WarmCheck, WindowSlot, WorkerRun, WorkerShard, TXS_PER_POS,
};
use legosdn_appvisor::{AppHandle, AppVisorProxy, TransportKind};
use legosdn_controller::app::SdnApp;
use legosdn_controller::event::Event;
use legosdn_controller::translate::EventTranslator;
use legosdn_crashpad::{CrashPad, DeliveryResult, DispatchResult, LocalSandbox, RecoverableApp};
use legosdn_invariants::Checker;
use legosdn_netlog::{CommitBarrier, NetLog};
use legosdn_obs::{Obs, TraceId};
use legosdn_openflow::prelude::Message;
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;
use std::time::Instant;

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

/// A [`ShardCtx`] over one of `self`'s shards, splitting the borrow so
/// sibling fields (`report`, `netlog`, `translator`) stay usable in the
/// same expression.
macro_rules! shard_cx {
    ($self:ident, $w:expr) => {
        ShardCtx {
            shard: &mut $self.shards[$w],
            stats: &mut $self.stats,
            obs: &$self.obs,
            checker: $self.checker.as_ref(),
            shutdown_on_no_compromise: $self.config.shutdown_network_on_no_compromise,
        }
    };
}

/// The LegoSDN runtime.
pub struct LegoSdnRuntime {
    config: LegoSdnConfig,
    translator: EventTranslator,
    netlog: NetLog,
    checker: Option<Checker>,
    /// The checker's memory of the network it last checked; handed out
    /// with the commit lane.
    warm_check: WarmCheck,
    /// Worker shards in id order; apps are hashed onto them at attach.
    shards: Vec<WorkerShard>,
    /// Global attach index → (shard, local index).
    router: ShardRouter,
    stats: RuntimeStats,
    obs: Obs,
    /// Translated events seen by the trace sampler (monotonic; doubles as
    /// the `seq` half of [`TraceId`], so ids stay unique across cycles).
    trace_seen: u64,
    /// First transaction id of the next cycle. Every dispatch mode
    /// advances it identically (`events × apps × TXS_PER_POS` per cycle),
    /// so transaction ids are a pure function of the event/app position —
    /// the invariant that lets sharded fastpath commits land out of order
    /// with a txlog that still reads in sequential order.
    txid_cursor: u64,
    /// Some committed batch carried a `send_flow_removed` FlowMod; table
    /// entries persist, so the commit fastpath stays off for all later
    /// cycles (an Add displacing a notify-flagged entry would enqueue a
    /// `FlowRemoved` out of order).
    notify_flows_seen: bool,
    /// Per-app-name dispatch-cost EWMA (nanoseconds), integrated from
    /// the `dispatch_app_ns` histograms the workers feed. Drives the
    /// load-aware shard balancer (DESIGN.md §15). Placement is
    /// residue-independent (commits are admitted in global position
    /// order), so this timing-derived signal cannot perturb the
    /// determinism contract.
    cost_ewma: HashMap<String, u64>,
    /// Last-seen (sum, count) per `dispatch_app_ns` histogram, so each
    /// EWMA update integrates only the newest observations.
    cost_prev: HashMap<String, (u64, u64)>,
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
                WorkerShard {
                    id,
                    proxy,
                    crashpad,
                    apps: Vec::new(),
                }
            })
            .collect();
        obs.gauge("core", "workers", "")
            .set(i64::try_from(workers).unwrap_or(i64::MAX));
        LegoSdnRuntime {
            translator: EventTranslator::new(),
            netlog,
            checker: config.checker.clone(),
            warm_check: WarmCheck::new(&obs),
            shards,
            router: ShardRouter::default(),
            stats: RuntimeStats::default(),
            obs,
            trace_seen: 0,
            txid_cursor: 1,
            notify_flows_seen: false,
            cost_ewma: HashMap::new(),
            cost_prev: HashMap::new(),
            config,
        }
    }

    /// Sampling gate for the flight recorder: begin a trace for this
    /// event if it is the `trace_sample`th since the last traced one.
    /// Returns the id for scope switching (`None`: not sampled).
    /// Recorder scopes are per-thread, so sampling works at any worker
    /// count — each worker tags its own slice of the window with the
    /// event's trace id.
    fn trace_for_event(&mut self, event: &Event) -> Option<TraceId> {
        let sample = self.config.obs.trace_sample;
        if sample == 0 {
            return None;
        }
        self.trace_seen += 1;
        if !(self.trace_seen - 1).is_multiple_of(sample) {
            return None;
        }
        let id = TraceId {
            cycle: self.stats.cycles,
            seq: self.trace_seen,
        };
        self.obs.trace_begin(id, &format!("{:?}", event.kind()));
        Some(id)
    }

    /// Build a push frame of this runtime's observability state for
    /// `campaign`: the cumulative metric snapshot plus the journal delta
    /// after `since` (see [`legosdn_obs::Obs::frame`]). This is the
    /// runtime-level entry point a custom export loop would use; the
    /// stock [`legosdn_obs::PushExporter`] calls the same machinery.
    #[must_use]
    pub fn obs_frame(
        &self,
        campaign: &str,
        since: Option<u64>,
        max_records: usize,
    ) -> legosdn_obs::PushFrame {
        self.obs.frame(campaign, since, max_records)
    }

    /// Journal records with sequence numbers after `since` (all retained
    /// records when `None`) — the raw snapshot-delta without the metric
    /// snapshot around it.
    #[must_use]
    pub fn obs_delta(&self, since: Option<u64>) -> Vec<legosdn_obs::Record> {
        self.obs.journal().snapshot_since(since)
    }

    /// Attach an app in the configured isolation mode.
    pub fn attach(&mut self, app: Box<dyn SdnApp>) -> Result<AppId, AttachError> {
        self.attach_with_limits(app, self.config.resource_limits)
    }

    /// Attach an app with specific resource limits (paper §3.4). The app
    /// lands on the least-loaded shard by the dispatch-cost EWMA
    /// (deterministic tie-break: fewest apps, then lowest worker id) —
    /// with no cost signal yet, that is a pure count-balanced
    /// round-robin, so the same roster shards the same way on every run.
    pub fn attach_with_limits(
        &mut self,
        app: Box<dyn SdnApp>,
        limits: ResourceLimits,
    ) -> Result<AppId, AttachError> {
        let name = app.name().to_string();
        let subscriptions = app.subscriptions();
        let global = self.router.len();
        let worker = (0..self.shards.len())
            .min_by_key(|&w| {
                let load: u64 = self.shards[w]
                    .apps
                    .iter()
                    .map(|a| self.cost_ewma.get(&a.rec.name).copied().unwrap_or(0))
                    .sum();
                (load, self.shards[w].apps.len(), w)
            })
            .unwrap_or(0);
        let shard = &mut self.shards[worker];
        let host = match self.config.isolation {
            IsolationMode::Local => Host::Local(LocalSandbox::new(app)),
            IsolationMode::Channel => Host::Isolated(
                shard
                    .proxy
                    .launch_app(app, TransportKind::Channel)
                    .map_err(|e| AttachError(e.to_string()))?,
            ),
            IsolationMode::Udp => Host::Isolated(
                shard
                    .proxy
                    .launch_app(app, TransportKind::Udp)
                    .map_err(|e| AttachError(e.to_string()))?,
            ),
            IsolationMode::Tcp => Host::Isolated(
                shard
                    .proxy
                    .launch_app(app, TransportKind::Tcp)
                    .map_err(|e| AttachError(e.to_string()))?,
            ),
        };
        shard.apps.push(ShardApp {
            global,
            rec: AppRecord {
                name,
                subscriptions,
                host,
                status: AppStatus::Running,
                limits,
                usage: ResourceUsage::default(),
            },
        });
        let local = shard.apps.len() - 1;
        self.obs
            .gauge("core", "worker_apps", &format!("w{worker}"))
            .set(i64::try_from(shard.apps.len()).unwrap_or(i64::MAX));
        self.router.push(worker, local);
        Ok(AppId(global))
    }

    fn rec(&self, global: usize) -> Option<&AppRecord> {
        let (w, l) = self.router.get(global)?;
        Some(&self.shards[w].apps[l].rec)
    }

    /// Names of attached apps, in attach order.
    #[must_use]
    pub fn app_names(&self) -> Vec<String> {
        (0..self.router.len())
            .map(|g| self.rec(g).expect("router indexes every app").name.clone())
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

    /// The worker shard an app was hashed onto.
    pub fn worker_of(&self, id: AppId) -> Option<usize> {
        self.router.get(id.0).map(|(w, _)| w)
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
        let (w, _) = self.router.get(id.0)?;
        Some(&self.shards[w].crashpad)
    }

    /// The NetLog engine (transaction log, counter cache).
    #[must_use]
    pub fn netlog(&self) -> &NetLog {
        &self.netlog
    }

    /// The controller core's views.
    #[must_use]
    pub fn translator(&self) -> &EventTranslator {
        &self.translator
    }

    /// The controller is never crashed by app failures; this exists for
    /// symmetry with the monolithic baseline in experiments.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        false
    }

    /// Drain network events, translate, and dispatch under full protection.
    ///
    /// Under [`DispatchMode::Pipelined`] with a window depth above 1 — or
    /// more than one worker shard — the whole burst is translated up
    /// front and dispatched through the cross-event window scheduler
    /// (per-worker under shards); otherwise each raw event's translations
    /// dispatch before the next raw is translated (the original loop).
    /// [`DispatchMode::Sequential`] always runs the single-threaded
    /// reference, whatever the worker count.
    pub fn run_cycle(&mut self, net: &mut Network) -> LegoCycleReport {
        let _span = self.obs.span("core.run_cycle");
        let started = Instant::now();
        // Placement changes only ever land here, at a cycle boundary —
        // never while a window is in flight.
        self.rebalance_shards();
        self.stats.cycles += 1;
        let mut report = LegoCycleReport::default();
        let lookahead = self.config.dispatch.lookahead_cycles.max(1);
        let windowed = self.config.dispatch.mode == DispatchMode::Pipelined
            && (self.config.dispatch.window.depth > 1 || self.shards.len() > 1);
        if windowed {
            let slots = self.translate_burst(net, &mut report);
            self.dispatch_windowed(net, slots, lookahead, &mut report);
        } else {
            let tx_cycle_base = self.txid_cursor;
            let n_apps = self.router.len() as u64;
            for raw in net.poll_events() {
                let events = self.translator.process(net, raw);
                self.stats.events_translated += events.len() as u64;
                self.obs
                    .counter("core", "events_translated", "")
                    .add(events.len() as u64);
                for ev in events {
                    let ordinal = report.events as u64;
                    report.events += 1;
                    let trace = self.trace_for_event(&ev);
                    self.obs.trace_scope(trace);
                    let tx_event_base = tx_cycle_base + ordinal * n_apps * TXS_PER_POS;
                    self.dispatch_event(net, &ev, &mut report, tx_event_base);
                    self.obs.trace_scope(None);
                }
            }
            // Cross-cycle windowing on the per-event path (DESIGN.md
            // §15): keep dispatching the follow-on events this cycle's
            // commits triggered, up to `lookahead_cycles` bursts'
            // worth, for as long as their translation is pure. The cap
            // is checked before each raw pop, so one raw translating
            // to several events may overshoot it — exactly like the
            // windowed scheduler, which keeps the two paths
            // bit-identical at matching lookahead.
            let cap = report.events.saturating_mul(lookahead);
            while report.events < cap {
                let Some(raw) = net.peek_event() else { break };
                if !extendable(raw) {
                    break;
                }
                let raw = net.pop_event().expect("peeked above");
                let events = self.translator.process(net, raw);
                self.stats.events_translated += events.len() as u64;
                self.obs
                    .counter("core", "events_translated", "")
                    .add(events.len() as u64);
                for ev in events {
                    let ordinal = report.events as u64;
                    report.events += 1;
                    let trace = self.trace_for_event(&ev);
                    self.obs.trace_scope(trace);
                    let tx_event_base = tx_cycle_base + ordinal * n_apps * TXS_PER_POS;
                    self.dispatch_event(net, &ev, &mut report, tx_event_base);
                    self.obs.trace_scope(None);
                }
            }
        }
        self.txid_cursor += report.events as u64 * self.router.len() as u64 * TXS_PER_POS;
        report.elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        report
    }

    /// Translate the cycle's entire raw-event burst up front, snapshotting
    /// the translator's views per event so each delivery sees exactly the
    /// views sequential dispatch would have handed it. `Network::now()`
    /// only advances via an explicit `advance()`, so the captured `now` is
    /// constant across the cycle either way.
    fn translate_burst(
        &mut self,
        net: &mut Network,
        report: &mut LegoCycleReport,
    ) -> Vec<WindowSlot> {
        let cycle = self.stats.cycles;
        let mut bt = BurstTranslator {
            translator: &mut self.translator,
            stats: &mut self.stats,
            obs: &self.obs,
            trace_seen: &mut self.trace_seen,
            trace_sample: self.config.obs.trace_sample,
            cycle,
        };
        let mut slots = Vec::new();
        for raw in net.poll_events() {
            report.events += bt.translate_raw(net, raw, &mut slots);
        }
        slots
    }

    /// Integrate the newest `dispatch_app_ns` observations into the
    /// per-app-name cost EWMA (integer, 3/4 old + 1/4 new).
    fn refresh_app_costs(&mut self) {
        let names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.apps.iter().map(|a| a.rec.name.clone()))
            .collect();
        for name in names {
            let h = self.obs.histogram("core", "dispatch_app_ns", &name);
            let (sum, count) = (h.sum(), h.count());
            let (psum, pcount) = self.cost_prev.get(&name).copied().unwrap_or((0, 0));
            if count > pcount {
                let avg = sum.saturating_sub(psum) / (count - pcount);
                let e = self.cost_ewma.entry(name.clone()).or_insert(avg);
                *e = (*e * 3 + avg) / 4;
                self.cost_prev.insert(name, (sum, count));
            }
        }
    }

    /// Load-aware shard re-balance (DESIGN.md §15): refresh the per-app
    /// cost EWMA, export per-worker load gauges, and — when a
    /// first-fit-decreasing plan improves the bottleneck load by more
    /// than 10% — migrate apps (with their Crash-Pad checkpoint state)
    /// between shards. Movable apps are Local-hosted ones whose name is
    /// unique in the roster: checkpoint state is keyed by app name, and
    /// stubs are pinned to the proxy that launched them. Runs only at
    /// cycle start, so placement never changes under a live window, and
    /// commits stay admitted in global position order regardless of
    /// placement — the residue is placement-independent.
    fn rebalance_shards(&mut self) {
        let workers = self.shards.len();
        if workers < 2 {
            return;
        }
        self.refresh_app_costs();
        let current: Vec<u64> = self
            .shards
            .iter()
            .map(|s| {
                s.apps
                    .iter()
                    .map(|a| self.cost_ewma.get(&a.rec.name).copied().unwrap_or(0))
                    .sum()
            })
            .collect();
        for (w, &load) in current.iter().enumerate() {
            self.obs
                .gauge("core", "worker_load", &format!("w{w}"))
                .set(i64::try_from(load).unwrap_or(i64::MAX));
        }
        let cur_max = current.iter().copied().max().unwrap_or(0);
        if cur_max == 0 {
            return;
        }
        let mut name_counts: HashMap<String, usize> = HashMap::new();
        for s in &self.shards {
            for a in &s.apps {
                *name_counts.entry(a.rec.name.clone()).or_insert(0) += 1;
            }
        }
        let mut movable: Vec<(u64, usize)> = Vec::new();
        let mut planned = vec![0u64; workers];
        let mut counts = vec![0usize; workers];
        for (w, s) in self.shards.iter().enumerate() {
            for a in &s.apps {
                let cost = self.cost_ewma.get(&a.rec.name).copied().unwrap_or(0);
                if name_counts.get(&a.rec.name) == Some(&1) && matches!(a.rec.host, Host::Local(_))
                {
                    movable.push((cost, a.global));
                } else {
                    planned[w] += cost;
                    counts[w] += 1;
                }
            }
        }
        if movable.is_empty() {
            return;
        }
        // First-fit decreasing with deterministic tie-breaks: heaviest
        // app first (attach order breaks cost ties), each onto the
        // least-loaded worker (fewest planned apps, then lowest id,
        // break load ties).
        movable.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut target: Vec<(usize, usize)> = Vec::new();
        for &(cost, global) in &movable {
            let w = (0..workers)
                .min_by_key(|&w| (planned[w], counts[w], w))
                .unwrap_or(0);
            planned[w] += cost;
            counts[w] += 1;
            target.push((global, w));
        }
        let new_max = planned.iter().copied().max().unwrap_or(0);
        // Migration shuffles checkpoint state and cache affinity;
        // demand a real (>10%) win on the bottleneck load.
        if new_max.saturating_mul(10) >= cur_max.saturating_mul(9) {
            return;
        }
        let mut moved = false;
        for (global, to) in target {
            let (from, local) = self
                .shards
                .iter()
                .enumerate()
                .find_map(|(w, s)| {
                    s.apps
                        .iter()
                        .position(|a| a.global == global)
                        .map(|l| (w, l))
                })
                .expect("movable app is attached");
            if from == to {
                continue;
            }
            let app = self.shards[from].apps.remove(local);
            let name = app.rec.name.clone();
            if let Some(state) = self.shards[from].crashpad.checkpoints.extract(&name) {
                self.shards[to].crashpad.checkpoints.adopt(&name, state);
            }
            // Keep each shard's roster sorted by global attach index —
            // the windowed sweep relies on local order == global order.
            let at = self.shards[to]
                .apps
                .iter()
                .position(|a| a.global > global)
                .unwrap_or(self.shards[to].apps.len());
            self.shards[to].apps.insert(at, app);
            moved = true;
        }
        if !moved {
            return;
        }
        self.router.rebuild(&self.shards);
        for (w, s) in self.shards.iter().enumerate() {
            self.obs
                .gauge("core", "worker_apps", &format!("w{w}"))
                .set(i64::try_from(s.apps.len()).unwrap_or(i64::MAX));
        }
        self.obs.counter("core", "rebalance_count", "").inc();
    }

    /// Deliver a Tick to subscribed apps.
    pub fn tick_apps(&mut self, net: &mut Network) -> LegoCycleReport {
        let _span = self.obs.span("core.tick_apps");
        let started = Instant::now();
        self.stats.cycles += 1;
        let mut report = LegoCycleReport::default();
        let ev = Event::Tick(net.now());
        report.events += 1;
        let trace = self.trace_for_event(&ev);
        self.obs.trace_scope(trace);
        let tx_event_base = self.txid_cursor;
        self.dispatch_event(net, &ev, &mut report, tx_event_base);
        self.obs.trace_scope(None);
        self.txid_cursor += self.router.len() as u64 * TXS_PER_POS;
        report.elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        report
    }

    fn dispatch_event(
        &mut self,
        net: &mut Network,
        event: &Event,
        report: &mut LegoCycleReport,
        tx_event_base: u64,
    ) {
        match self.config.dispatch.mode {
            DispatchMode::Sequential => self.dispatch_sequential(net, event, report, tx_event_base),
            DispatchMode::Pipelined => self.dispatch_pipelined(net, event, report, tx_event_base),
        }
    }

    /// Commit one app's outcome on the per-event (non-windowed) path:
    /// live translator views, position-derived transaction ids, sticky
    /// notify-flag bookkeeping.
    fn commit_on_lane(
        &mut self,
        net: &mut Network,
        global: usize,
        event: &Event,
        result: DispatchResult,
        report: &mut LegoCycleReport,
        tx_event_base: u64,
    ) {
        let (w, l) = self.router.loc(global);
        let mut lane = CommitLane {
            net,
            netlog: &mut self.netlog,
            check: &mut self.warm_check,
            notify_seen: false,
        };
        let mut cx = shard_cx!(self, w);
        commit_outcome(
            &mut cx,
            &mut lane,
            l,
            event,
            result,
            report,
            (&self.translator.topology, &self.translator.devices),
            tx_event_base + global as u64 * TXS_PER_POS,
        );
        let notify = lane.notify_seen;
        self.notify_flows_seen |= notify;
    }

    /// The original monolithic loop: one blocking Crash-Pad round-trip
    /// per app, in attach order.
    fn dispatch_sequential(
        &mut self,
        net: &mut Network,
        event: &Event,
        report: &mut LegoCycleReport,
        tx_event_base: u64,
    ) {
        let kind = event.kind();
        for global in 0..self.router.len() {
            let (w, l) = self.router.loc(global);
            if !select_app(&mut shard_cx!(self, w), l, kind) {
                continue;
            }
            self.dispatch_to_app(net, global, event, report, tx_event_base);
        }
    }

    /// Phased pipeline over the same roster (see [`DispatchMode`]):
    ///
    /// - **prepare**: select apps, checkpoint each if due;
    /// - **deliver**: fan the event out to isolated stubs per shard (they
    ///   process on their own threads), run local sandboxes inline
    ///   meanwhile;
    /// - **gather**: classify each outcome through Crash-Pad in attach
    ///   order — restore/replay/transform runs only for failed apps;
    /// - **commit**: NetLog transactions + byzantine gate per app, in
    ///   attach order.
    ///
    /// Deliveries read only the translator's views and per-app state, so
    /// overlapping them cannot be observed by the apps; everything that
    /// touches the network — commits, byzantine recovery, No-Compromise
    /// shutdown — stays serialized in attach order. Network state and
    /// NetLog transaction order are therefore identical to
    /// [`DispatchMode::Sequential`] (the determinism integration test
    /// holds both modes to that).
    fn dispatch_pipelined(
        &mut self,
        net: &mut Network,
        event: &Event,
        report: &mut LegoCycleReport,
        tx_event_base: u64,
    ) {
        let kind = event.kind();
        let now = net.now();
        self.obs
            .counter("core", "pipelined_dispatch_rounds", "")
            .inc();

        // Phase A — prepare: selection, then up-front checkpoints.
        let selected: Vec<usize> = {
            let _span = self.obs.span("core.dispatch_prepare");
            let selected: Vec<usize> = (0..self.router.len())
                .filter(|&g| {
                    let (w, l) = self.router.loc(g);
                    select_app(&mut shard_cx!(self, w), l, kind)
                })
                .collect();
            for &g in &selected {
                let (w, l) = self.router.loc(g);
                let shard = &mut self.shards[w];
                let name = shard.apps[l].rec.name.clone();
                match &mut shard.apps[l].rec.host {
                    Host::Local(sandbox) => shard.crashpad.prepare(sandbox, &name),
                    Host::Isolated(handle) => {
                        let mut adapter = ProxyAdapter {
                            proxy: &mut shard.proxy,
                            handle: *handle,
                        };
                        shard.crashpad.prepare(&mut adapter, &name);
                    }
                }
            }
            selected
        };

        // Phase B — deliver: each shard's stubs get their frames first so
        // they start processing; local sandboxes run inline while the
        // stubs work; then collect the stub outcomes.
        let mut deliveries: Vec<Option<DeliveryResult>> =
            (0..selected.len()).map(|_| None).collect();
        {
            let _span = self.obs.span("core.dispatch_deliver");
            let mut stub_slots: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
            let mut stub_handles: Vec<Vec<AppHandle>> = vec![Vec::new(); self.shards.len()];
            for (pos, &g) in selected.iter().enumerate() {
                let (w, l) = self.router.loc(g);
                if let Host::Isolated(h) = &self.shards[w].apps[l].rec.host {
                    stub_slots[w].push(pos);
                    stub_handles[w].push(*h);
                }
            }
            let tickets: Vec<_> = (0..self.shards.len())
                .map(|w| {
                    (!stub_handles[w].is_empty()).then(|| {
                        self.shards[w].proxy.fanout_send(
                            &stub_handles[w],
                            event,
                            &self.translator.topology,
                            &self.translator.devices,
                            now,
                        )
                    })
                })
                .collect();
            for (pos, &g) in selected.iter().enumerate() {
                let (w, l) = self.router.loc(g);
                let name = self.shards[w].apps[l].rec.name.clone();
                if let Host::Local(sandbox) = &mut self.shards[w].apps[l].rec.host {
                    self.obs.trace_event("send", &name, "local");
                    let delivery = sandbox.deliver(
                        event,
                        &self.translator.topology,
                        &self.translator.devices,
                        now,
                    );
                    self.obs
                        .trace_event("collect", &name, delivery_label(&delivery));
                    deliveries[pos] = Some(delivery);
                }
            }
            for (w, ticket) in tickets.into_iter().enumerate() {
                if let Some(ticket) = ticket {
                    for (&pos, d) in stub_slots[w]
                        .iter()
                        .zip(self.shards[w].proxy.fanout_collect(ticket))
                    {
                        deliveries[pos] = Some(outcome_to_delivery_outcome(d));
                    }
                }
            }
        }

        // Phase C — gather: Crash-Pad bookkeeping per app in attach
        // order; restore + policy transform/replay only for failures.
        let outcomes: Vec<DispatchResult> = {
            let _span = self.obs.span("core.dispatch_gather");
            selected
                .iter()
                .zip(deliveries)
                .map(|(&g, delivery)| {
                    let delivery = delivery.expect("every selected app was delivered");
                    let (w, l) = self.router.loc(g);
                    let shard = &mut self.shards[w];
                    let name = shard.apps[l].rec.name.clone();
                    match &mut shard.apps[l].rec.host {
                        Host::Local(sandbox) => shard.crashpad.complete(
                            sandbox,
                            &name,
                            event,
                            delivery,
                            &self.translator.topology,
                            &self.translator.devices,
                            now,
                        ),
                        Host::Isolated(handle) => {
                            let mut adapter = ProxyAdapter {
                                proxy: &mut shard.proxy,
                                handle: *handle,
                            };
                            shard.crashpad.complete(
                                &mut adapter,
                                &name,
                                event,
                                delivery,
                                &self.translator.topology,
                                &self.translator.devices,
                                now,
                            )
                        }
                    }
                })
                .collect()
        };

        // Phase D — commit: network effects in attach order, exactly as
        // sequential dispatch would issue them.
        let _span = self.obs.span("core.dispatch_commit");
        for (&g, result) in selected.iter().zip(outcomes) {
            self.commit_on_lane(net, g, event, result, report, tx_event_base);
        }
    }

    /// Cross-event window scheduler (DESIGN.md §10, sharded per §13,
    /// cross-cycle per §15): up to `dispatch.window.depth` slots are in
    /// flight per worker at once. Each worker runs the two-cursor
    /// fill/commit machinery over its own shard's apps; commits
    /// synchronize through the [`CommitBarrier`] in global (event,
    /// attach) position order — or overtake it on the provably-disjoint
    /// fastpath — so network state, the txlog, and runtime counters stay
    /// bit-identical to the sequential reference.
    ///
    /// With `lookahead_cycles > 1` the window grows past the initial
    /// burst while commits are still in flight: the runtime pops
    /// follow-on events off the net queue as soon as their translation
    /// is pure (cannot observe mid-window state out of order), appends
    /// them to the shared [`SlotStore`], and the workers' send cursors
    /// run ahead across what used to be a cycle boundary.
    fn dispatch_windowed(
        &mut self,
        net: &mut Network,
        slots: Vec<WindowSlot>,
        lookahead: usize,
        report: &mut LegoCycleReport,
    ) {
        if slots.is_empty() {
            return;
        }
        let depth = self.config.dispatch.window.depth.max(1);
        self.obs
            .gauge("core", "window_depth", "")
            .set(i64::try_from(depth).unwrap_or(i64::MAX));
        let n_apps = self.router.len();
        let sharded = self.shards.len() > 1;
        // The fastpath needs commit-time effects to be exactly the
        // declared touch: a checker observes (and byz-recovery rewrites)
        // live state at commit, and a surviving notify-flagged table
        // entry could emit a FlowRemoved on displacement — either one
        // forces full ordering.
        let fastpath = sharded && self.checker.is_none() && !self.notify_flows_seen;
        let barrier = CommitBarrier::new(fastpath);
        let tx_cycle_base = self.txid_cursor;
        let checker = self.checker.as_ref();
        let shutdown_on_no_compromise = self.config.shutdown_network_on_no_compromise;
        let obs = self.obs.clone();
        // Event cap of the lookahead window: checked before each raw
        // pop, so one raw translating to several events may overshoot.
        let cap = slots.len().saturating_mul(lookahead);
        let store = SlotStore::new(slots);
        let can_extend = cap > store.len();
        let cycle = self.stats.cycles;
        let mut bt = BurstTranslator {
            translator: &mut self.translator,
            stats: &mut self.stats,
            obs: &self.obs,
            trace_seen: &mut self.trace_seen,
            trace_sample: self.config.obs.trace_sample,
            cycle,
        };
        let lane = Mutex::new(CommitLane {
            net,
            netlog: &mut self.netlog,
            check: &mut self.warm_check,
            notify_seen: false,
        });
        let mut deltas: Vec<(RuntimeStats, LegoCycleReport)> =
            Vec::with_capacity(self.shards.len());
        if !sharded {
            let mut run = WorkerRun {
                shard: &mut self.shards[0],
                store: &store,
                barrier: &barrier,
                lane: &lane,
                obs: obs.clone(),
                checker,
                shutdown_on_no_compromise,
                depth,
                n_apps,
                tx_cycle_base,
                sharded: false,
                wait_more: false,
                wl: String::new(),
                stats: RuntimeStats::default(),
                report: LegoCycleReport::default(),
                pending: Vec::new(),
                inflight: Vec::new(),
                next_send: 0,
                commit_pos: 0,
            };
            // Drain/extend alternation: each run() commits every slot
            // the store holds; each extension appends the follow-on
            // events those commits triggered.
            loop {
                run.run();
                if !can_extend || extend_window(&mut bt, &lane, &store, cap, report) == 0 {
                    break;
                }
            }
            deltas.push((run.stats, run.report));
        } else {
            if !can_extend {
                // The window can never grow: close up front so workers
                // drain the burst and exit without parking.
                store.close();
            }
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .map(|shard| {
                        let worker = shard.id;
                        let obs = obs.clone();
                        let barrier = &barrier;
                        let lane = &lane;
                        let store = &store;
                        std::thread::Builder::new()
                            .name(format!("lego-worker-{worker}"))
                            .spawn_scoped(scope, move || {
                                let mut run = WorkerRun {
                                    shard,
                                    store,
                                    barrier,
                                    lane,
                                    obs,
                                    checker,
                                    shutdown_on_no_compromise,
                                    depth,
                                    n_apps,
                                    tx_cycle_base,
                                    sharded: true,
                                    wait_more: true,
                                    wl: format!("w{worker}"),
                                    stats: RuntimeStats::default(),
                                    report: LegoCycleReport::default(),
                                    pending: Vec::new(),
                                    inflight: Vec::new(),
                                    next_send: 0,
                                    commit_pos: 0,
                                };
                                run.run();
                                (run.stats, run.report)
                            })
                            .expect("spawn worker thread")
                    })
                    .collect();
                if can_extend {
                    // Extension loop. The commit cursor is read BEFORE
                    // each drain attempt, so a commit landing between
                    // the drain and the wait advances the cursor past
                    // the snapshot and `wait_cursor_past` returns
                    // immediately — the close can never be missed.
                    // Deadlock-free: workers take the barrier before
                    // the lane, and this thread never holds the lane
                    // while waiting on the barrier.
                    loop {
                        let cursor = barrier.cursor();
                        if extend_window(&mut bt, &lane, &store, cap, report) > 0 {
                            continue;
                        }
                        if cursor >= (store.len() * n_apps) as u64 {
                            break;
                        }
                        barrier.wait_cursor_past(cursor);
                    }
                    store.close();
                }
                for handle in handles {
                    deltas.push(handle.join().expect("worker thread panicked"));
                }
            });
        }
        let lane = lane.into_inner().expect("commit lane poisoned");
        self.notify_flows_seen |= lane.notify_seen;
        for (stats, delta) in deltas {
            self.stats.absorb(&stats);
            report.commands += delta.commands;
            report.recoveries += delta.recoveries;
            report.byzantine_blocked += delta.byzantine_blocked;
        }
        let bs = barrier.stats();
        self.obs
            .counter("netlog", "barrier_fastpath_commits", "")
            .add(bs.fastpath_commits);
        self.obs
            .counter("netlog", "barrier_ordered_commits", "")
            .add(bs.ordered_commits);
        self.obs
            .counter("netlog", "barrier_elided_positions", "")
            .add(bs.elided_positions);
        self.obs
            .counter("netlog", "barrier_shared_switch_conflicts", "")
            .add(bs.shared_switch_conflicts);
    }

    fn dispatch_to_app(
        &mut self,
        net: &mut Network,
        global: usize,
        event: &Event,
        report: &mut LegoCycleReport,
        tx_event_base: u64,
    ) {
        let now = net.now();
        let (w, l) = self.router.loc(global);
        // Crash-Pad protected delivery.
        let result = {
            let shard = &mut self.shards[w];
            let name = shard.apps[l].rec.name.clone();
            match &mut shard.apps[l].rec.host {
                Host::Local(sandbox) => shard.crashpad.dispatch(
                    sandbox,
                    &name,
                    event,
                    &self.translator.topology,
                    &self.translator.devices,
                    now,
                ),
                Host::Isolated(handle) => {
                    let mut adapter = ProxyAdapter {
                        proxy: &mut shard.proxy,
                        handle: *handle,
                    };
                    shard.crashpad.dispatch(
                        &mut adapter,
                        &name,
                        event,
                        &self.translator.topology,
                        &self.translator.devices,
                        now,
                    )
                }
            }
        };
        self.commit_on_lane(net, global, event, result, report, tx_event_base);
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
        let Some((w, l)) = self.router.get(id.0) else {
            return Err(legosdn_crashpad::DiagnoseError::NoHistory);
        };
        let shard = &mut self.shards[w];
        let name = shard.apps[l].rec.name.clone();
        match &mut shard.apps[l].rec.host {
            Host::Local(sandbox) => shard.crashpad.diagnose(
                sandbox,
                &name,
                offending,
                &self.translator.topology,
                &self.translator.devices,
                now,
            ),
            Host::Isolated(handle) => {
                let mut adapter = ProxyAdapter {
                    proxy: &mut shard.proxy,
                    handle: *handle,
                };
                shard.crashpad.diagnose(
                    &mut adapter,
                    &name,
                    offending,
                    &self.translator.topology,
                    &self.translator.devices,
                    now,
                )
            }
        }
    }

    /// §3.4 controller upgrade: restart the controller core without
    /// touching the apps. The topology/device views are rebuilt by
    /// re-handshaking every switch; apps keep their state and their fault
    /// domains — the outage the monolithic reboot causes does not happen.
    pub fn upgrade_controller(&mut self, net: &mut Network) {
        self.translator = EventTranslator::new();
        self.stats.upgrades += 1;
        let dpids: Vec<_> = net.switches().map(|s| s.dpid()).collect();
        for dpid in dpids {
            if net.switch(dpid).map(|s| s.is_up()).unwrap_or(false) {
                let _ = self
                    .translator
                    .process(net, legosdn_netsim::NetEvent::SwitchConnected(dpid));
            }
        }
    }

    /// Resume a suspended app (operator action after a resource review).
    pub fn resume(&mut self, id: AppId, extra_budget: ResourceLimits) -> bool {
        let Some((w, l)) = self.router.get(id.0) else {
            return false;
        };
        let rec = &mut self.shards[w].apps[l].rec;
        if matches!(rec.status, AppStatus::Suspended(_)) {
            rec.status = AppStatus::Running;
            rec.limits = extra_budget;
            return true;
        }
        false
    }

    /// Shut down all isolated stubs on every shard.
    pub fn shutdown(self) {
        for shard in self.shards {
            let _ = shard.proxy.shutdown();
        }
    }
}

use legosdn_netsim::{NetEvent, Network};

/// Adapter shim: the pipelined path collects
/// [`legosdn_appvisor::FanoutDelivery`] values whose `outcome` field is
/// what [`crate::host::outcome_to_delivery`] converts.
fn outcome_to_delivery_outcome(d: legosdn_appvisor::FanoutDelivery) -> DeliveryResult {
    crate::host::outcome_to_delivery(d.outcome)
}

/// Whether a raw event's translation is *pure* — reads nothing but the
/// translator's own views, so translating it mid-window is identical to
/// translating it after the window drains. `PortStatus` probes ports
/// and drains the net queue; `SwitchConnected` handshakes (feature
/// replies, port probes). Either one ends the extension prefix; the
/// remaining raws wait for the next cycle.
fn extendable(raw: &NetEvent) -> bool {
    match raw {
        NetEvent::FromSwitch(_, msg) => !matches!(msg, Message::PortStatus(_)),
        NetEvent::SwitchDisconnected(_) => true,
        NetEvent::SwitchConnected(_) => false,
    }
}

/// The windowed translation engine, split off the runtime so the main
/// thread can translate (fields: translator, stats, trace cursor) while
/// the worker shards are mutably borrowed by the dispatch threads.
struct BurstTranslator<'a> {
    translator: &'a mut EventTranslator,
    stats: &'a mut RuntimeStats,
    obs: &'a Obs,
    trace_seen: &'a mut u64,
    trace_sample: u64,
    cycle: u64,
}

impl BurstTranslator<'_> {
    /// The same sampling gate as `LegoSdnRuntime::trace_for_event`,
    /// over the borrowed trace cursor.
    fn trace_for_event(&mut self, event: &Event) -> Option<TraceId> {
        if self.trace_sample == 0 {
            return None;
        }
        *self.trace_seen += 1;
        if !(*self.trace_seen - 1).is_multiple_of(self.trace_sample) {
            return None;
        }
        let id = TraceId {
            cycle: self.cycle,
            seq: *self.trace_seen,
        };
        self.obs.trace_begin(id, &format!("{:?}", event.kind()));
        Some(id)
    }

    /// Translate one raw event into window slots (with the translator's
    /// views snapshotted per event) and return how many events it
    /// yielded.
    fn translate_raw(
        &mut self,
        net: &mut Network,
        raw: NetEvent,
        out: &mut Vec<WindowSlot>,
    ) -> usize {
        let events = self.translator.process(net, raw);
        let n = events.len();
        self.stats.events_translated += n as u64;
        self.obs
            .counter("core", "events_translated", "")
            .add(n as u64);
        for ev in events {
            let trace = self.trace_for_event(&ev);
            out.push(WindowSlot {
                event: ev,
                topology: self.translator.topology.clone(),
                devices: self.translator.devices.clone(),
                now: net.now(),
                trace,
            });
        }
        n
    }
}

/// Grow the window: pop the pure prefix of the net queue (under a brief
/// lane lock — commits and translation serialize on the same network),
/// translate it, and append the slots to the store. Returns how many
/// slots were appended; 0 means the queue head is non-extendable,
/// empty, or the lookahead cap is reached. Event-producing commits are
/// always barrier-Ordered, so the queue grows in strict commit-position
/// order and this incremental prefix-popping yields exactly the
/// sequence a post-drain batch pop would.
fn extend_window(
    bt: &mut BurstTranslator<'_>,
    lane: &Mutex<CommitLane<'_>>,
    store: &SlotStore,
    cap: usize,
    report: &mut LegoCycleReport,
) -> usize {
    let mut appended = 0;
    loop {
        if report.events >= cap {
            return appended;
        }
        let mut out = Vec::new();
        {
            let mut guard = lane.lock().expect("commit lane poisoned");
            let net: &mut Network = guard.net;
            match net.peek_event() {
                Some(raw) if extendable(raw) => {}
                _ => return appended,
            }
            let raw = net.pop_event().expect("peeked above");
            bt.translate_raw(net, raw, &mut out);
        }
        for slot in out {
            report.events += 1;
            store.append(slot);
            appended += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DispatchConfig, ObsConfig};
    use legosdn_apps::{BugEffect, BugTrigger, FaultyApp, Hub, LearningSwitch};
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
    fn obs_frame_and_delta_expose_the_snapshot() {
        let obs = Obs::new();
        let rt = LegoSdnRuntime::new(LegoSdnConfig {
            obs: ObsConfig::instance(obs.clone()),
            ..LegoSdnConfig::default()
        });
        obs.record(legosdn_obs::RecordKind::HeartbeatMiss { app: "a".into() });
        obs.record(legosdn_obs::RecordKind::HeartbeatMiss { app: "b".into() });
        let frame = rt.obs_frame("alpha", None, 4096);
        assert_eq!(frame.campaign, "alpha");
        assert_eq!(frame.records.len(), 2);
        assert_eq!(rt.obs_delta(Some(0)).len(), 1);
    }

    #[test]
    fn pipelined_dispatch_contains_crashes_and_counts_phases() {
        let (mut net, topo) = net2();
        let obs = Obs::new();
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            isolation: IsolationMode::Channel,
            dispatch: DispatchConfig::pipelined(),
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
        // Per-phase instrumentation landed.
        assert!(obs.counter("core", "pipelined_dispatch_rounds", "").get() > 0);
        for phase in [
            "dispatch_prepare",
            "dispatch_deliver",
            "dispatch_gather",
            "dispatch_commit",
        ] {
            assert!(
                obs.histogram("core", phase, "").count() > 0,
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
            dispatch: DispatchConfig::pipelined().window(4),
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
                dispatch: DispatchConfig::pipelined().window(2).workers(4),
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
        // Six identically-named apps spread over more than one shard (the
        // ordinal is hashed in), and the router reports their homes.
        let spread: std::collections::BTreeSet<usize> =
            ids.iter().map(|&id| rt.worker_of(id).unwrap()).collect();
        assert!(spread.len() > 1, "apps never spread across workers");
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
