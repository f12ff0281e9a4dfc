//! Worker shards: the runtime's per-worker half (DESIGN.md §9).
//!
//! The runtime deals attached apps round-robin across N worker shards
//! in attach order — app *g* is local app `g / N` of shard `g % N`, for
//! good — so (shard, local) and the global attach index are arithmetic
//! both ways and no directory is kept. Each shard owns a private
//! AppVisor proxy (its stubs and their poll pool) and a private
//! Crash-Pad, so the per-app dispatch path never crosses a shard
//! boundary. The network and the NetLog stay shared: every commit goes
//! through one [`CommitLane`] guarded by a mutex, admitted in sequential
//! order (or provably-safe fastpath order) by the
//! [`legosdn_netlog::CommitBarrier`].
//!
//! Determinism contract: a position's transaction ids are derived from
//! the position itself (`tx_base + pos * TXS_PER_POS + sub`), never from
//! arrival order, and the NetLog log is sorted by id — so the sharded
//! runtime's residue (network state, txlog, stats, per-app delivery
//! order) is bit-identical to the single-threaded reference.

use crate::config::ResourceLimits;
use crate::host::{outcome_to_delivery, Host, ProxyAdapter};
use crate::runtime::{AppStatus, Feed, LegoCycleReport, Pull, ResourceUsage, RuntimeStats};
use legosdn_appvisor::{AppHandle, AppVisorProxy};
use legosdn_controller::app::Command;
use legosdn_controller::event::{Event, EventKind};
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_crashpad::{
    CompromisePolicy, CrashPad, DeliveryResult, DispatchResult, RecoverableApp, RecoveryTaken,
};
use legosdn_invariants::{shutdown_network, CheckReport, CheckState, Checker};
use legosdn_netlog::{CommitBarrier, NetLog, TxId, TxMode, TxTouch};
use legosdn_netsim::{Network, SimTime};
use legosdn_obs::{Counter, Gauge, Histogram, Obs, TraceId};
use legosdn_openflow::prelude::{DatapathId, FlowModCommand, Message};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Transaction-id stride per commit position. Each (event, app) position
/// owns this many consecutive ids: sub 0 is the top-level transaction,
/// sub 1 the byzantine-recovery retry. Deriving ids from the position
/// (not from arrival order) is what lets fastpath commits land out of
/// order while the txlog still reads in sequential order.
pub const TXS_PER_POS: u64 = 4;

/// One attached app: identity, fault-domain host, scheduling state.
pub(crate) struct AppRecord {
    pub(crate) name: String,
    pub(crate) subscriptions: Vec<EventKind>,
    pub(crate) host: Host,
    pub(crate) status: AppStatus,
    pub(crate) limits: ResourceLimits,
    pub(crate) usage: ResourceUsage,
    /// `core/failstop_recoveries{name}` and `core/byzantine_blocked{name}`,
    /// resolved at attach so a recovery costs an atomic add.
    pub(crate) failstop_recoveries: Arc<Counter>,
    pub(crate) byzantine_blocked: Arc<Counter>,
}

/// One worker's slice of the runtime: a private proxy and Crash-Pad plus
/// every `workers`-th attached app, in attach order.
pub(crate) struct WorkerShard {
    pub(crate) id: usize,
    pub(crate) proxy: AppVisorProxy,
    pub(crate) crashpad: CrashPad,
    pub(crate) apps: Vec<AppRecord>,
    pub(crate) metrics: ShardMetrics,
}

impl WorkerShard {
    /// Reach one app behind this shard's Crash-Pad, whatever hosts it:
    /// `f` gets the engine, the app as Crash-Pad sees it (the sandbox, or
    /// the stub through this shard's proxy) and the app's name.
    pub(crate) fn with_app<R>(
        &mut self,
        local: usize,
        f: impl FnOnce(&mut CrashPad, &mut dyn RecoverableApp, &str) -> R,
    ) -> R {
        let WorkerShard {
            apps,
            crashpad,
            proxy,
            ..
        } = self;
        let AppRecord { name, host, .. } = &mut apps[local];
        match host {
            Host::Local(sandbox) => f(crashpad, sandbox, name),
            Host::Isolated(handle) => {
                let handle = *handle;
                f(crashpad, &mut ProxyAdapter { proxy, handle }, name)
            }
        }
    }
}

/// One shard's window timing series. Unlabelled on a single-worker
/// runtime, labelled `wN` per worker otherwise, so one shard's fill and
/// commit timing does not blur into another's.
pub(crate) struct ShardMetrics {
    window_fill: Arc<Histogram>,
    window_commit: Arc<Histogram>,
    window_queue_ns: Arc<Histogram>,
}

impl ShardMetrics {
    pub(crate) fn resolve(obs: &Obs, label: &str) -> Self {
        ShardMetrics {
            window_fill: obs.histogram("core", "window_fill", label),
            window_commit: obs.histogram("core", "window_commit", label),
            window_queue_ns: obs.histogram("core", "window_queue_ns", label),
        }
    }
}

/// The runtime-wide metric handles of the dispatch path, resolved once in
/// `LegoSdnRuntime::new` so an event costs atomic adds, not registry
/// lookups.
pub(crate) struct CoreMetrics {
    pub(crate) run_cycle: Arc<Histogram>,
    pub(crate) tick_apps: Arc<Histogram>,
    pub(crate) events_translated: Arc<Counter>,
    pub(crate) dispatches: Arc<Counter>,
    pub(crate) commands_executed: Arc<Counter>,
    pub(crate) window_depth: Arc<Gauge>,
    pub(crate) barrier_fastpath_commits: Arc<Counter>,
    pub(crate) barrier_ordered_commits: Arc<Counter>,
    pub(crate) barrier_elided_positions: Arc<Counter>,
    pub(crate) barrier_shared_switch_conflicts: Arc<Counter>,
}

impl CoreMetrics {
    pub(crate) fn resolve(obs: &Obs) -> Self {
        let barrier = |name| obs.counter("netlog", name, "");
        CoreMetrics {
            run_cycle: obs.histogram("core", "run_cycle", ""),
            tick_apps: obs.histogram("core", "tick_apps", ""),
            events_translated: obs.counter("core", "events_translated", ""),
            dispatches: obs.counter("core", "dispatches", ""),
            commands_executed: obs.counter("core", "commands_executed", ""),
            window_depth: obs.gauge("core", "window_depth", ""),
            barrier_fastpath_commits: barrier("barrier_fastpath_commits"),
            barrier_ordered_commits: barrier("barrier_ordered_commits"),
            barrier_elided_positions: barrier("barrier_elided_positions"),
            barrier_shared_switch_conflicts: barrier("barrier_shared_switch_conflicts"),
        }
    }
}

/// One translated event awaiting windowed dispatch, with the views it
/// must be delivered against — the translator's views *as of its
/// translation*, which is exactly what sequential dispatch would have
/// handed the apps before translating the next raw event.
pub(crate) struct WindowSlot {
    pub(crate) event: Event,
    pub(crate) topology: TopologyView,
    pub(crate) devices: DeviceView,
    pub(crate) now: SimTime,
    /// Flight-recorder trace for this event, if it was sampled. Window
    /// operations switch the obs trace scope to this id so every layer
    /// hook (proxy queue/collect, Crash-Pad recovery, NetLog commit)
    /// lands in the right causal timeline. Recorder scopes are
    /// per-thread, so worker threads tag their own work without
    /// fighting over ambient state.
    pub(crate) trace: Option<TraceId>,
}

/// One speculative in-flight (event, app) delivery to an isolated stub.
pub(crate) struct WindowEntry {
    /// Index into the owning shard's `apps`.
    pub(crate) local: usize,
    pub(crate) handle: AppHandle,
    /// Tag of the snapshot queued just before the delivery, if one was
    /// due (`None`: not due, or its send failed along with the
    /// delivery's).
    pub(crate) snap: Option<u64>,
    /// Tag of the queued delivery; `None` means the send itself failed
    /// and the collect classifies it as a comm failure.
    pub(crate) seq: Option<u64>,
    /// When the delivery was queued (feeds the per-event queue-latency
    /// histogram at collect time).
    pub(crate) queued_at: Instant,
}

/// The window's slots, shared by the workers: whichever wants a slot
/// first appends what the feed yields, all index it by slot number
/// (counted from the start of the cycle). `Arc` hands a worker a stable
/// view of a slot without holding the store lock across dispatch work.
/// Slots every worker has committed are released, so a long burst pins
/// the views of at most a window's worth of events.
#[derive(Default)]
pub(crate) struct SlotStore {
    state: Mutex<StoreState>,
}

#[derive(Default)]
struct StoreState {
    /// Slot number of `slots[0]`.
    base: usize,
    slots: VecDeque<Arc<WindowSlot>>,
}

impl SlotStore {
    /// Slots appended so far this cycle, released ones included.
    pub(crate) fn len(&self) -> usize {
        let st = self.state.lock().expect("slot store poisoned");
        st.base + st.slots.len()
    }

    pub(crate) fn get(&self, i: usize) -> Arc<WindowSlot> {
        let st = self.state.lock().expect("slot store poisoned");
        Arc::clone(&st.slots[i - st.base])
    }

    /// Append one slot; returns [`SlotStore::len`] with it in.
    pub(crate) fn append(&self, slot: WindowSlot) -> usize {
        let mut st = self.state.lock().expect("slot store poisoned");
        st.slots.push_back(Arc::new(slot));
        st.base + st.slots.len()
    }

    /// Drop the slots below `committed`: every worker is past them.
    pub(crate) fn release_below(&self, committed: usize) {
        let mut st = self.state.lock().expect("slot store poisoned");
        while st.base < committed && st.slots.pop_front().is_some() {
            st.base += 1;
        }
    }
}

/// The invariant checker's warm cache (DESIGN.md §13) for the network
/// this runtime commits to, with its hit-ratio counters resolved once.
/// It lives beside the network: whoever holds the commit lane holds it.
pub(crate) struct WarmCheck {
    state: CheckState,
    reprobed: Arc<Counter>,
    reused: Arc<Counter>,
}

impl WarmCheck {
    pub(crate) fn new(obs: &Obs) -> Self {
        WarmCheck {
            state: CheckState::new(),
            reprobed: obs.counter("invariants", "pairs_reprobed", ""),
            reused: obs.counter("invariants", "pairs_reused", ""),
        }
    }

    fn check(&mut self, checker: &Checker, net: &Network) -> CheckReport {
        let report = self.state.check(checker, net);
        let reprobed = self.state.last_reprobed();
        self.reprobed.add(reprobed as u64);
        self.reused.add((report.pairs_checked - reprobed) as u64);
        report
    }
}

/// The shared commit lane: the one place network effects happen. Workers
/// take it only for the duration of a single transaction, under barrier
/// admission.
pub(crate) struct CommitLane<'a> {
    pub(crate) net: &'a mut Network,
    pub(crate) netlog: &'a mut NetLog,
    pub(crate) check: &'a mut WarmCheck,
    /// Sticky within the lane's lifetime: some committed batch carried a
    /// `send_flow_removed` FlowMod. The runtime folds this into its
    /// cross-cycle `notify_flows_seen` flag — once a notify-flagged entry
    /// may exist in any table, a later cycle's fastpath Add could
    /// displace it and enqueue a `FlowRemoved`, so the fastpath stays off
    /// from then on.
    pub(crate) notify_seen: bool,
}

/// A shard's view of the runtime while acting on one app: the shard
/// itself plus the stats sink and shared read-only policy knobs.
pub(crate) struct ShardCtx<'a> {
    pub(crate) shard: &'a mut WorkerShard,
    pub(crate) stats: &'a mut RuntimeStats,
    pub(crate) obs: &'a Obs,
    pub(crate) metrics: &'a CoreMetrics,
    pub(crate) checker: Option<&'a Checker>,
    pub(crate) shutdown_on_no_compromise: bool,
}

/// Stable trace-event outcome label for a raw delivery.
pub(crate) fn delivery_label(d: &DeliveryResult) -> &'static str {
    match d {
        DeliveryResult::Ok(_) => "ok",
        DeliveryResult::Crashed { .. } => "crashed",
        DeliveryResult::CommFailure => "comm_failure",
    }
}

/// Subscription / status / event-budget gate for one app. Returns `true`
/// when the app should receive the event, charging the event to its
/// budget. The engine and the reference both use this, so selection (and
/// its suspension side effects) is identical across them.
pub(crate) fn select_app(cx: &mut ShardCtx<'_>, local: usize, kind: EventKind) -> bool {
    let rec = &mut cx.shard.apps[local];
    if !rec.subscriptions.contains(&kind) {
        return false;
    }
    if rec.status != AppStatus::Running {
        cx.stats.events_skipped += 1;
        return false;
    }
    if let Some(max) = rec.limits.max_events {
        if rec.usage.events_consumed >= max {
            rec.status = AppStatus::Suspended("event budget exhausted");
            cx.stats.apps_suspended += 1;
            cx.stats.events_skipped += 1;
            return false;
        }
    }
    cx.stats.dispatches += 1;
    cx.metrics.dispatches.inc();
    rec.usage.events_consumed += 1;
    cx.obs.trace_event("fill", &rec.name, "selected");
    true
}

/// Whether acting on `result` needs the shared commit lane at all. A
/// position that provably produces no network transaction (no commands,
/// an over-budget suppression, or an app death with network shutdown off)
/// is *elided* at the barrier instead of serialized through it.
pub(crate) fn lane_need(
    cx: &ShardCtx<'_>,
    local: usize,
    event: &Event,
    result: &DispatchResult,
) -> bool {
    let rec = &cx.shard.apps[local];
    match result {
        DispatchResult::Delivered(commands) | DispatchResult::Recovered { commands, .. } => {
            !commands.is_empty()
                && rec
                    .limits
                    .max_commands
                    .is_none_or(|max| rec.usage.commands_emitted + commands.len() as u64 <= max)
        }
        DispatchResult::AppDead { .. } => {
            cx.shutdown_on_no_compromise
                && cx.shard.crashpad.policies.lookup(&rec.name, event.kind())
                    == CompromisePolicy::NoCompromise
        }
    }
}

/// The declared barrier touch of a command batch, plus whether any
/// command requests flow-removed notifications (which poisons the
/// fastpath for the rest of the cycle: an Add displacing a notify-flagged
/// entry would enqueue a `FlowRemoved` event).
pub(crate) fn commands_touch(commands: &[Command]) -> (TxTouch, bool) {
    let mut dpids: Vec<DatapathId> = Vec::new();
    let mut add_only = true;
    let mut notify = false;
    let mut unknown = false;
    for c in commands {
        match &c.msg {
            Message::FlowMod(fm) => {
                if !dpids.contains(&c.dpid) {
                    dpids.push(c.dpid);
                }
                if fm.command != FlowModCommand::Add || fm.buffer_id.is_some() {
                    add_only = false;
                }
                if fm.send_flow_removed {
                    notify = true;
                    add_only = false;
                }
            }
            _ => unknown = true,
        }
    }
    let touch = if unknown {
        TxTouch::Unknown
    } else {
        TxTouch::Flows { dpids, add_only }
    };
    (touch, notify)
}

/// Act on one app's dispatch outcome: execute its commands under the
/// NetLog/byzantine guard, or mark it dead. Shared tail of the engine and
/// the reference. `lane` is `None` for a position [`lane_need`] ruled
/// out: same bookkeeping (trace verdict, recovery counters, budget
/// suppression, app death without network shutdown), no transaction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn commit_outcome(
    cx: &mut ShardCtx<'_>,
    lane: Option<&mut CommitLane<'_>>,
    local: usize,
    event: &Event,
    result: DispatchResult,
    report: &mut LegoCycleReport,
    views: (&TopologyView, &DeviceView),
    tx_base: u64,
) {
    let verdict = match &result {
        DispatchResult::Delivered(_) => "delivered",
        DispatchResult::Recovered { .. } => "recovered",
        DispatchResult::AppDead { .. } => "app_dead",
    };
    let rec = &cx.shard.apps[local];
    cx.obs.trace_event("commit", &rec.name, verdict);
    let (commands, allow_recovery) = match result {
        DispatchResult::Delivered(commands) => (commands, true),
        // Commands from transformed events are real output; execute
        // them under the same guard (no further byzantine recursion
        // on already-recovered output — drop instead).
        DispatchResult::Recovered { commands, .. } => {
            report.recoveries += 1;
            cx.stats.failstop_recoveries += 1;
            rec.failstop_recoveries.inc();
            (commands, false)
        }
        DispatchResult::AppDead { .. } => {
            return mark_dead(cx, lane.map(|lane| &mut *lane.net), local, event);
        }
    };
    execute_guarded(
        cx,
        lane,
        local,
        event,
        commands,
        report,
        allow_recovery,
        views,
        tx_base,
        &mut 0,
    );
}

/// Execute an app's commands inside a NetLog transaction with the
/// byzantine gate. `allow_recovery` bounds the recursion: output from a
/// recovery path that is still byzantine is dropped, not re-recovered.
/// Transaction ids are position-derived (`tx_base + *sub`) so the txlog
/// order is independent of barrier admission order. An empty or
/// over-budget batch ends before any transaction begins, which is all a
/// lane-less (elided) position may hold.
#[allow(clippy::too_many_arguments)]
fn execute_guarded(
    cx: &mut ShardCtx<'_>,
    lane: Option<&mut CommitLane<'_>>,
    local: usize,
    event: &Event,
    commands: Vec<Command>,
    report: &mut LegoCycleReport,
    allow_recovery: bool,
    views: (&TopologyView, &DeviceView),
    tx_base: u64,
    sub: &mut u64,
) {
    if commands.is_empty() {
        return;
    }
    // Resource limit on emitted commands.
    let rec = &mut cx.shard.apps[local];
    if let Some(max) = rec.limits.max_commands {
        if rec.usage.commands_emitted + commands.len() as u64 > max {
            rec.status = AppStatus::Suspended("command budget exhausted");
            cx.stats.apps_suspended += 1;
            cx.stats.commands_suppressed += commands.len() as u64;
            return;
        }
    }
    let lane = lane.expect("lane_need elides only batches that end above");

    if commands
        .iter()
        .any(|c| matches!(&c.msg, Message::FlowMod(fm) if fm.send_flow_removed))
    {
        lane.notify_seen = true;
    }

    let mut tx = lane
        .netlog
        .begin_for_at(&cx.shard.apps[local].name, TxId(tx_base + *sub));
    *sub += 1;
    for c in &commands {
        // Reads return synchronously in immediate mode; pass stats
        // replies through the counter cache.
        match lane.netlog.execute(&mut tx, lane.net, c.dpid, &c.msg) {
            Ok(replies) => {
                for mut reply in replies {
                    if let Message::StatsReply(ref mut sr) = reply {
                        lane.netlog.adjust_stats(c.dpid, sr);
                    }
                    // Replies would flow back to the app as events in a
                    // fully async design; translation handles the async
                    // ones, so synchronous replies are dropped here.
                }
            }
            Err(_) => { /* unknown/down switch: the op is a no-op */ }
        }
    }

    // Byzantine gate. Only state-altering output can violate network
    // invariants; pure packet-outs/reads skip the (expensive) check.
    let alters_state = commands.iter().any(|c| c.msg.alters_network_state());
    let violations = match (
        alters_state.then_some(()).and(cx.checker),
        lane.netlog.mode(),
    ) {
        (Some(checker), TxMode::Buffered) => {
            let r = checker.gate(lane.net, tx.buffered_commands());
            (!r.is_clean()).then_some(r.violations.len())
        }
        (Some(checker), TxMode::Immediate) => {
            let r = lane.check.check(checker, lane.net);
            (!r.is_clean()).then_some(r.violations.len())
        }
        (None, _) => None,
    };

    match violations {
        Some(nviol) => {
            // Abort: buffered mode drops the buffer; immediate mode
            // rolls the network back via the undo log.
            let _ = lane.netlog.abort(tx, lane.net);
            report.byzantine_blocked += 1;
            cx.stats.byzantine_blocked += 1;
            cx.shard.apps[local].byzantine_blocked.inc();
            let policy = cx
                .shard
                .crashpad
                .policies
                .lookup(&cx.shard.apps[local].name, event.kind());
            if allow_recovery {
                let recovered = recover_byzantine(cx, lane, local, event, nviol, views);
                // Recovered output (from transformed events) executes
                // with recovery disabled.
                execute_guarded(
                    cx,
                    Some(lane),
                    local,
                    event,
                    recovered,
                    report,
                    false,
                    views,
                    tx_base,
                    sub,
                );
            } else {
                cx.stats.commands_suppressed += commands.len() as u64;
            }
            if policy == CompromisePolicy::NoCompromise && cx.shutdown_on_no_compromise {
                shutdown_network(lane.net);
            }
        }
        None => {
            let applied = match lane.netlog.commit(tx, lane.net) {
                Ok(r) => r.ops_applied,
                Err(_) => 0,
            };
            report.commands += applied;
            cx.stats.commands_executed += applied as u64;
            cx.metrics.commands_executed.add(applied as u64);
            cx.shard.apps[local].usage.commands_emitted += applied as u64;
        }
    }
}

fn recover_byzantine(
    cx: &mut ShardCtx<'_>,
    lane: &mut CommitLane<'_>,
    local: usize,
    event: &Event,
    violations: usize,
    views: (&TopologyView, &DeviceView),
) -> Vec<Command> {
    let now = lane.net.now();
    // Replay must see the views the event was dispatched with, which
    // every caller supplies (the windowed scheduler's translator has
    // already advanced past this event by commit time).
    let (topo, dev) = views;
    let result = cx.shard.with_app(local, |crashpad, app, name| {
        crashpad.recover_byzantine(app, name, event, violations, topo, dev, now)
    });
    match result {
        DispatchResult::Recovered {
            commands, recovery, ..
        } => {
            if recovery == RecoveryTaken::Transformed {
                commands
            } else {
                Vec::new()
            }
        }
        DispatchResult::AppDead { .. } => {
            mark_dead(cx, Some(lane.net), local, event);
            Vec::new()
        }
        DispatchResult::Delivered(c) => c,
    }
}

/// Mark an app dead. `net` is `None` on elided positions, where
/// [`lane_need`] already proved No-Compromise network shutdown is off.
pub(crate) fn mark_dead(
    cx: &mut ShardCtx<'_>,
    net: Option<&mut Network>,
    local: usize,
    event: &Event,
) {
    let rec = &mut cx.shard.apps[local];
    if rec.status != AppStatus::Dead {
        rec.status = AppStatus::Dead;
        cx.stats.apps_dead += 1;
    }
    let policy = cx
        .shard
        .crashpad
        .policies
        .lookup(&cx.shard.apps[local].name, event.kind());
    if policy == CompromisePolicy::NoCompromise && cx.shutdown_on_no_compromise {
        if let Some(net) = net {
            shutdown_network(net);
        }
    }
}

/// What every worker of one cycle's window shares: the slots and the
/// feed they come from, the commit order, the commit lane and the
/// read-only knobs. Lock order: feed, then lane.
#[derive(Clone, Copy)]
pub(crate) struct Window<'env, 'net> {
    pub(crate) store: &'env SlotStore,
    pub(crate) feed: &'env Mutex<&'net mut Feed>,
    pub(crate) barrier: &'env CommitBarrier,
    pub(crate) lane: &'env Mutex<CommitLane<'net>>,
    pub(crate) obs: &'env Obs,
    pub(crate) metrics: &'env CoreMetrics,
    pub(crate) checker: Option<&'env Checker>,
    pub(crate) shutdown_on_no_compromise: bool,
    pub(crate) depth: usize,
    /// Total apps across all shards — the position stride per slot.
    pub(crate) n_apps: usize,
    /// First transaction id of the cycle (position 0, sub 0).
    pub(crate) tx_cycle_base: u64,
    /// Shard count — the position stride between a shard's consecutive
    /// local apps.
    pub(crate) workers: usize,
}

/// How a [`Window::top_up`] left things.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Topped {
    /// The store holds the asking worker's window.
    Full,
    /// The next raw waits on commits still in flight; worth asking again
    /// once the barrier cursor has passed this value.
    Wait(u64),
    /// The feed has ended: nothing more to ask it for this cycle.
    Ended,
}

impl Window<'_, '_> {
    /// More than one shard commits through the barrier, so peers consult
    /// each other's declared touches.
    fn sharded(&self) -> bool {
        self.workers > 1
    }

    /// Top the store up for a worker whose commit cursor is at
    /// `commit_pos`: if it holds less than a window past that, pull raws
    /// off the feed. Translation and commits serialize on the same
    /// network, so a session holds the lane. Alone, a worker translates
    /// just far enough to fill its window — a slot pins the views of its
    /// translation, and the next view change would have to copy them.
    /// With peer shards every session contends with their commits for
    /// the lane, so one session runs to the end of the pure run instead
    /// of coming back for every slot.
    pub(crate) fn top_up(&self, commit_pos: usize) -> Topped {
        let want = commit_pos + self.depth;
        if self.store.len() >= want {
            return Topped::Full;
        }
        let mut feed = self.feed.lock().expect("feed poisoned");
        if feed.ended() {
            return Topped::Ended;
        }
        // Read before the feed is asked, so a wait on it cannot sleep
        // through the commit the feed was waiting for.
        let cursor = self.barrier.cursor();
        // Every position of the slots below the cursor's has committed.
        self.store
            .release_below((cursor / self.n_apps.max(1) as u64) as usize);
        let target = if self.sharded() { usize::MAX } else { want };
        let mut lane = self.lane.lock().expect("commit lane poisoned");
        let mut len = self.store.len();
        while len < target {
            let uncommitted = (len * self.n_apps) as u64;
            let pulled = feed.pull(lane.net, cursor >= uncommitted, |slot| {
                len = self.store.append(slot);
            });
            match pulled {
                Pull::Fed => {}
                Pull::End => return Topped::Ended,
                // An impure raw needs the whole store committed; an empty
                // net queue may grow with any commit.
                Pull::Drain if feed.burst_waiting() => return Topped::Wait(uncommitted - 1),
                Pull::Drain => return Topped::Wait(cursor),
            }
        }
        Topped::Full
    }
}

/// One worker's execution of a cycle's window — the dispatch engine
/// (DESIGN.md §9): a fill cursor queues deliveries up to `depth` slots
/// past the commit cursor (pulling the next raw off the shared feed when
/// the store runs short), the commit cursor settles one slot at a time,
/// and every commit is admitted by the shared [`CommitBarrier`].
///
/// A single-worker runtime calls [`run`] inline; a sharded one on a
/// `lego-worker-N` scoped thread per shard. Recorder scopes are
/// per-thread, so both record full flight-recorder traces. Stats and the
/// cycle report accumulate into worker-local zero-initialized deltas the
/// runtime merges after the cycle — identical totals at any worker count.
///
/// [`run`]: WorkerRun::run
pub(crate) struct WorkerRun<'env, 'net> {
    shard: &'env mut WorkerShard,
    win: Window<'env, 'net>,
    pub(crate) stats: RuntimeStats,
    pub(crate) report: LegoCycleReport,
    /// Speculative in-flight stub entries per slot.
    pending: Vec<Vec<WindowEntry>>,
    /// Uncollected deliveries per local app.
    inflight: Vec<u64>,
    next_send: usize,
    commit_pos: usize,
    /// The feed has ended: nothing more to ask it for this cycle.
    fed_out: bool,
}

impl<'env, 'net> WorkerRun<'env, 'net> {
    pub(crate) fn new(shard: &'env mut WorkerShard, win: Window<'env, 'net>) -> Self {
        WorkerRun {
            inflight: vec![0; shard.apps.len()],
            shard,
            win,
            stats: RuntimeStats::default(),
            report: LegoCycleReport::default(),
            pending: Vec::new(),
            next_send: 0,
            commit_pos: 0,
            fed_out: false,
        }
    }

    /// Switch this thread's flight-recorder scope. Scopes are
    /// per-thread, so each worker tags its own fill/commit work with
    /// the slot's trace without disturbing its peers.
    fn scope(&self, trace: Option<TraceId>) {
        self.win.obs.trace_scope(trace);
    }

    /// The shard context for acting on one app, plus the report its
    /// commits accumulate into.
    fn cx(&mut self) -> (ShardCtx<'_>, &mut LegoCycleReport) {
        let cx = ShardCtx {
            shard: &mut *self.shard,
            stats: &mut self.stats,
            obs: self.win.obs,
            metrics: self.win.metrics,
            checker: self.win.checker,
            shutdown_on_no_compromise: self.win.shutdown_on_no_compromise,
        };
        (cx, &mut self.report)
    }

    /// Barrier position of `(slot, local app)`: the index sequential
    /// dispatch would commit it at (the app's global attach index is
    /// `local * workers + shard id`).
    fn pos_of(&self, slot: usize, local: usize) -> u64 {
        (slot * self.win.n_apps + local * self.win.workers + self.shard.id) as u64
    }

    /// Run the window over this shard's apps until the feed has ended and
    /// every slot it yielded is committed.
    pub(crate) fn run(&mut self) {
        loop {
            let topped = if self.fed_out {
                Topped::Ended
            } else {
                self.win.top_up(self.commit_pos)
            };
            self.fed_out = topped == Topped::Ended;
            if self.commit_pos < self.win.store.len() {
                self.step();
                continue;
            }
            match topped {
                Topped::Ended => break,
                // Nothing of ours to commit and the next raw waits on
                // peers' commits.
                Topped::Wait(past) => {
                    self.win.barrier.wait_cursor_past(past);
                }
                Topped::Full => unreachable!("a full window holds the commit cursor's slot"),
            }
        }
        self.scope(None);
    }

    /// Queue deliveries for every stored slot inside the window, then
    /// commit the slot at the commit cursor (which the caller knows the
    /// store holds).
    fn step(&mut self) {
        let len = self.win.store.len();
        if self.pending.len() < len {
            self.pending.resize_with(len, Vec::new);
        }
        {
            let _span = self.shard.metrics.window_fill.start();
            while self.next_send < len && self.next_send < self.commit_pos + self.win.depth {
                self.pending[self.next_send] = self.send_slot(self.next_send);
                self.next_send += 1;
            }
        }
        {
            let _span = self.shard.metrics.window_commit.start();
            self.commit_slot();
        }
        self.commit_pos += 1;
    }

    /// Speculatively select and queue one slot's deliveries to the
    /// isolated stubs (locals run inline at commit). Selection side
    /// effects (dispatch counters, event budgets, suspension) apply at
    /// send time and are rolled back entry-by-entry if a failure on an
    /// earlier slot cancels the entry.
    fn send_slot(&mut self, s: usize) -> Vec<WindowEntry> {
        let slot = self.win.store.get(s);
        self.scope(slot.trace);
        let kind = slot.event.kind();
        let mut entries = Vec::new();
        for local in 0..self.shard.apps.len() {
            if !matches!(self.shard.apps[local].host, Host::Isolated(_)) {
                continue;
            }
            if !select_app(&mut self.cx().0, local, kind) {
                continue;
            }
            entries.push(self.queue_one(local, &slot));
        }
        entries
    }

    /// Queue (snapshot-if-due, delivery) for one selected stub app.
    /// Snapshot due-ness is projected over the app's uncollected
    /// in-flight deliveries: a snapshot queued on the FIFO stream between
    /// deliveries *k* and *k+1* captures the state after *k* — exactly
    /// the pre-event checkpoint the sequential protocol takes.
    fn queue_one(&mut self, local: usize, slot: &WindowSlot) -> WindowEntry {
        let WorkerShard {
            apps,
            crashpad,
            proxy,
            ..
        } = &mut *self.shard;
        let rec = &apps[local];
        let Host::Isolated(handle) = rec.host else {
            unreachable!("windowed entries are stub-only");
        };
        let snap = if crashpad
            .checkpoints
            .checkpoint_due_ahead(&rec.name, self.inflight[local])
        {
            proxy.queue_snapshot(handle).ok().flatten()
        } else {
            None
        };
        let seq = proxy
            .queue_deliver(handle, &slot.event, &slot.topology, &slot.devices, slot.now)
            .ok()
            .flatten();
        self.inflight[local] += 1;
        WindowEntry {
            local,
            handle,
            snap,
            seq,
            queued_at: Instant::now(),
        }
    }

    /// Commit the slot at the commit cursor: sweep the shard's apps in
    /// local (= global) order, settling each position exactly once — a
    /// collected stub entry, an inline local-sandbox dispatch, or an
    /// elision at the barrier.
    ///
    /// When sharded, every selected local sandbox's (snapshot, deliver,
    /// gather) runs *before* any barrier interaction. Deliveries read the
    /// slot's captured views, never the commits — the same independence
    /// the stub path already exploits by queueing deliveries in the fill
    /// phase — so hoisting them is unobservable in the output, but it
    /// means this worker's declarations land while its peers are still
    /// busy instead of trickling out between barrier waits. Interleaving
    /// slow local work with `acquire` would otherwise lock-step the
    /// shards (each settle waits on every earlier position's declaration,
    /// and each declaration waits on that worker's previous settle).
    fn commit_slot(&mut self) {
        let commit_pos = self.commit_pos;
        let slot = self.win.store.get(commit_pos);
        self.scope(slot.trace);
        let kind = slot.event.kind();
        let entries = std::mem::take(&mut self.pending[commit_pos]);
        let mut entries = entries.into_iter().peekable();
        let mut eager = VecDeque::new();
        if self.win.sharded() {
            for local in 0..self.shard.apps.len() {
                if matches!(self.shard.apps[local].host, Host::Local(_))
                    && select_app(&mut self.cx().0, local, kind)
                {
                    let result = self.deliver_local(local, &slot);
                    eager.push_back((local, result));
                }
            }
        }
        // Harvest sweep: collect every position's outcome and declare
        // its barrier touch the moment it is known, so this worker's
        // declarations for the whole slot land before its first
        // admission wait. Peers deciding fastpath eligibility see the
        // declared touches that much sooner.
        let mut settles: Vec<Settle> = Vec::new();
        for local in 0..self.shard.apps.len() {
            if entries.peek().is_some_and(|e| e.local == local) {
                let entry = entries.next().expect("peeked");
                self.inflight[local] -= 1;
                let (result, failed) = self.harvest_entry(entry, &slot);
                self.declare_or_queue(local, &slot, result, true, failed, &mut settles);
            } else if eager.front().is_some_and(|e| e.0 == local) {
                let (_, result) = eager.pop_front().expect("peeked");
                self.declare_or_queue(local, &slot, result, false, false, &mut settles);
            } else if !self.win.sharded()
                && matches!(self.shard.apps[local].host, Host::Local(_))
                && select_app(&mut self.cx().0, local, kind)
            {
                // A local sandbox has no stub to overlap with: it runs
                // inline at commit, against the slot's captured views.
                let result = self.deliver_local(local, &slot);
                self.declare_or_queue(local, &slot, result, false, false, &mut settles);
            } else {
                self.win
                    .barrier
                    .finish_empty(self.pos_of(commit_pos, local));
            }
        }
        // Settle sweep, in the same local order: admission + lane
        // commit, then the window repair (cancel/resend).
        for Settle {
            local,
            result,
            is_stub,
            failed,
        } in settles
        {
            let byz_before = self.stats.byzantine_blocked;
            if let Some(result) = result {
                self.settle_declared(local, &slot, result);
            }
            let byz_recovered = self.stats.byzantine_blocked > byz_before;
            if is_stub && byz_recovered && !failed {
                // Byzantine caught at commit: the app was restored
                // mid-stream, so its queued later deliveries ran from
                // the wrong state.
                self.cancel_app(local);
            }
            if is_stub && (failed || byz_recovered) {
                self.resend_app(local);
                // The resend loop re-scoped the recorder to the
                // refilled slots; later settles still belong here.
                self.scope(slot.trace);
            }
        }
    }

    /// Run one local-sandbox dispatch (checkpoint-if-due, deliver,
    /// gather/recover) against the slot's captured views, without
    /// touching the barrier.
    fn deliver_local(&mut self, local: usize, slot: &WindowSlot) -> DispatchResult {
        let obs = self.win.obs;
        self.shard.with_app(local, |crashpad, app, name| {
            crashpad.prepare(app, name);
            obs.trace_event("send", name, "local");
            let delivery = app.deliver(&slot.event, &slot.topology, &slot.devices, slot.now);
            obs.trace_event("collect", name, delivery_label(&delivery));
            crashpad.complete(
                app,
                name,
                &slot.event,
                delivery,
                &slot.topology,
                &slot.devices,
                slot.now,
            )
        })
    }

    /// Collect and gather one in-flight (event, app) entry: snapshot
    /// collect, delivery collect, failure-path cancellation (before
    /// recovery restores the app, so the RPC stream is clean when
    /// replay begins), and the Crash-Pad's completion/recovery.
    /// Returns the dispatch outcome plus whether the delivery failed;
    /// settling happens later, after the whole slot has declared.
    fn harvest_entry(&mut self, entry: WindowEntry, slot: &WindowSlot) -> (DispatchResult, bool) {
        let local = entry.local;
        let WorkerShard {
            apps,
            crashpad,
            proxy,
            metrics,
            ..
        } = &mut *self.shard;

        // The snapshot queued before this delivery: collect and book it.
        // The recorded duration is the wait the proxy actually paid here —
        // near zero when the stub answered while the window was busy,
        // which is the cost this scheduler exists to hide.
        if let Some(tag) = entry.snap {
            let waited = Instant::now();
            if let Ok(bytes) = proxy.collect_snapshot(entry.handle, tag) {
                let dur_ns = u64::try_from(waited.elapsed().as_nanos()).unwrap_or(u64::MAX);
                crashpad.record_prepared(&apps[local].name, bytes, dur_ns);
            }
        }

        crashpad.note_dispatch();
        let delivery = match entry.seq {
            Some(seq) => outcome_to_delivery(proxy.collect_deliver(entry.handle, seq)),
            None => DeliveryResult::CommFailure,
        };
        let queue_ns = u64::try_from(entry.queued_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
        metrics.window_queue_ns.observe(queue_ns);

        let failed = !matches!(delivery, DeliveryResult::Ok(_));
        if failed {
            // Cancel this app's queued later deliveries BEFORE recovery
            // restores it, so the RPC stream is clean when replay begins.
            self.cancel_app(local);
        }
        let result = self.shard.with_app(local, |crashpad, app, name| {
            crashpad.complete(
                app,
                name,
                &slot.event,
                delivery,
                &slot.topology,
                &slot.devices,
                slot.now,
            )
        });
        (result, failed)
    }

    /// Declare one harvested position at the barrier, or elide it on
    /// the spot if it needs no network transaction. Lane-needing
    /// positions are queued for the settle sweep; elided failed stubs
    /// are queued too (result already settled) so the settle sweep
    /// still repairs their window.
    fn declare_or_queue(
        &mut self,
        local: usize,
        slot: &WindowSlot,
        result: DispatchResult,
        is_stub: bool,
        failed: bool,
        settles: &mut Vec<Settle>,
    ) {
        let pos = self.pos_of(self.commit_pos, local);
        if !lane_need(&self.cx().0, local, &slot.event, &result) {
            self.commit(None, pos, local, slot, result);
            self.win.barrier.finish_empty(pos);
            if is_stub && failed {
                settles.push(Settle {
                    local,
                    result: None,
                    is_stub,
                    failed,
                });
            }
            return;
        }
        // A touch is declared for peers to judge their fastpath against;
        // with no peer shard nobody reads it, and a single worker's
        // commits reach the cursor in order by construction.
        if self.win.sharded() {
            let (touch, notify) = match &result {
                DispatchResult::Delivered(commands)
                | DispatchResult::Recovered { commands, .. } => commands_touch(commands),
                DispatchResult::AppDead { .. } => (TxTouch::Unknown, false),
            };
            if notify {
                self.win.barrier.poison_fastpath();
            }
            self.win.barrier.declare(pos, self.shard.id, touch);
        }
        settles.push(Settle {
            local,
            result: Some(result),
            is_stub,
            failed,
        });
    }

    /// Settle one already-declared position: wait for admission and run
    /// the commit inside the shared lane.
    fn settle_declared(&mut self, local: usize, slot: &WindowSlot, result: DispatchResult) {
        let pos = self.pos_of(self.commit_pos, local);
        let _admission = self.win.barrier.acquire(pos);
        {
            let mut lane = self.win.lane.lock().expect("commit lane poisoned");
            self.commit(Some(&mut lane), pos, local, slot, result);
        }
        self.win.barrier.release(pos);
    }

    /// [`commit_outcome`] for `local`'s position `pos` of `slot`; `lane`
    /// is `None` for an elided position.
    fn commit(
        &mut self,
        lane: Option<&mut CommitLane<'_>>,
        pos: u64,
        local: usize,
        slot: &WindowSlot,
        result: DispatchResult,
    ) {
        let tx_base = self.win.tx_cycle_base + pos * TXS_PER_POS;
        let (mut cx, report) = self.cx();
        commit_outcome(
            &mut cx,
            lane,
            local,
            &slot.event,
            result,
            report,
            (&slot.topology, &slot.devices),
            tx_base,
        );
    }

    /// Drop an app's in-flight entries beyond the commit cursor and roll
    /// back their speculative selection, so re-selection sees exactly
    /// the post-recovery state sequential dispatch would.
    fn cancel_app(&mut self, local: usize) {
        let mut tags = Vec::new();
        let mut handle = None;
        for (s, slot_entries) in self
            .pending
            .iter_mut()
            .enumerate()
            .skip(self.commit_pos + 1)
        {
            if let Some(pos) = slot_entries.iter().position(|e| e.local == local) {
                let e = slot_entries.remove(pos);
                tags.extend(e.snap);
                tags.extend(e.seq);
                handle = Some(e.handle);
                // Roll the speculative selection back. (The monotonic obs
                // dispatch counter keeps the cancelled send; RuntimeStats
                // is the determinism-bearing surface.)
                self.stats.dispatches -= 1;
                self.shard.apps[local].usage.events_consumed -= 1;
                self.inflight[local] -= 1;
                // The cancellation belongs to the *cancelled* event's
                // timeline, not the failed one currently in scope.
                if let Some(tid) = self.win.store.get(s).trace {
                    self.win.obs.trace_event_for(
                        tid,
                        "cancel",
                        &self.shard.apps[local].name,
                        "crash_upstream",
                    );
                }
            }
        }
        if let Some(h) = handle {
            let _ = self.shard.proxy.cancel_pending(h, &tags);
        }
    }

    /// Re-run selection for an app's cancelled slots (post-recovery
    /// state: a revived app is usually re-selected, a dead or suspended
    /// one is skipped and counted, just as sequential dispatch would) and
    /// queue fresh deliveries for the survivors.
    fn resend_app(&mut self, local: usize) {
        for s in self.commit_pos + 1..self.next_send {
            let slot = self.win.store.get(s);
            // Re-queued work records into the re-sent event's trace.
            self.scope(slot.trace);
            if !select_app(&mut self.cx().0, local, slot.event.kind()) {
                continue;
            }
            self.win
                .obs
                .trace_event("resend", &self.shard.apps[local].name, "requeued");
            let entry = self.queue_one(local, &slot);
            let pend = &mut self.pending[s];
            let pos = pend
                .iter()
                .position(|e| e.local > local)
                .unwrap_or(pend.len());
            pend.insert(pos, entry);
        }
    }
}

/// One position of the slot being committed, between the harvest sweep
/// (outcome known, touch declared) and the settle sweep. `result` is
/// `None` for a failed stub whose position was elided: nothing to
/// commit, but its window still needs the repair.
struct Settle {
    local: usize,
    result: Option<DispatchResult>,
    is_stub: bool,
    failed: bool,
}

impl RuntimeStats {
    /// Fold a worker's zero-initialized per-cycle delta into the global
    /// totals. Field-complete on purpose: a worker only ever touches the
    /// dispatch-path counters, and the untouched ones add zero.
    pub(crate) fn absorb(&mut self, d: &RuntimeStats) {
        self.events_translated += d.events_translated;
        self.dispatches += d.dispatches;
        self.commands_executed += d.commands_executed;
        self.commands_suppressed += d.commands_suppressed;
        self.failstop_recoveries += d.failstop_recoveries;
        self.byzantine_blocked += d.byzantine_blocked;
        self.apps_dead += d.apps_dead;
        self.events_skipped += d.events_skipped;
        self.apps_suspended += d.apps_suspended;
        self.upgrades += d.upgrades;
        self.cycles += d.cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_touch_classifies_the_fastpath_gate() {
        use legosdn_openflow::prelude::*;
        let add = |dpid: u64| Command {
            dpid: DatapathId(dpid),
            msg: Message::FlowMod(FlowMod::add(Match::exact_eth(
                MacAddr::from_index(1),
                MacAddr::from_index(2),
            ))),
        };
        let (touch, notify) = commands_touch(&[add(1), add(2), add(1)]);
        assert!(!notify);
        match touch {
            TxTouch::Flows { dpids, add_only } => {
                assert!(add_only);
                assert_eq!(dpids, vec![DatapathId(1), DatapathId(2)]);
            }
            other => panic!("expected Flows, got {other:?}"),
        }

        // A delete is flows-touching but not add-only.
        let mut del = add(3);
        if let Message::FlowMod(fm) = &mut del.msg {
            fm.command = FlowModCommand::Delete;
        }
        let (touch, _) = commands_touch(&[del]);
        assert!(matches!(
            touch,
            TxTouch::Flows {
                add_only: false,
                ..
            }
        ));

        // send_flow_removed poisons (displacement hazard) and is not
        // add-only.
        let mut notify_add = add(4);
        if let Message::FlowMod(fm) = &mut notify_add.msg {
            fm.send_flow_removed = true;
        }
        let (touch, notify) = commands_touch(&[notify_add]);
        assert!(notify);
        assert!(matches!(
            touch,
            TxTouch::Flows {
                add_only: false,
                ..
            }
        ));

        // Anything that is not a FlowMod is an unknown touch.
        let po = Command {
            dpid: DatapathId(5),
            msg: Message::PacketOut(PacketOut {
                buffer_id: BufferId::NONE,
                in_port: PortNo::Phys(1),
                actions: vec![Action::Output(PortNo::Flood)],
                packet: None,
            }),
        };
        let (touch, _) = commands_touch(&[add(1), po]);
        assert!(matches!(touch, TxTouch::Unknown));
    }
}
