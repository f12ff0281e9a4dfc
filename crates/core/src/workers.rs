//! Worker shards: the runtime's per-worker half (DESIGN.md §13, §15).
//!
//! The runtime partitions attached apps across N worker shards with a
//! load-aware balancer: least-loaded placement at attach, and a
//! cost-EWMA re-balance pass at cycle boundaries (never mid-window).
//! Each shard owns a private AppVisor proxy (its stubs and, under polled
//! I/O, its poll pool) and a private Crash-Pad, so the per-app dispatch
//! path never crosses a shard boundary. The network and the NetLog stay
//! shared: every commit goes through one [`CommitLane`] guarded by a
//! mutex, admitted in sequential order (or provably-safe fastpath order)
//! by the [`legosdn_netlog::CommitBarrier`].
//!
//! Determinism contract: a position's transaction ids are derived from
//! the position itself (`tx_base + pos * TXS_PER_POS + sub`), never from
//! arrival order, and the NetLog log is sorted by id — so the sharded
//! runtime's residue (network state, txlog, stats, per-app delivery
//! order) is bit-identical to the single-threaded reference.

use crate::config::ResourceLimits;
use crate::host::{outcome_to_delivery, Host, ProxyAdapter};
use crate::runtime::{AppStatus, LegoCycleReport, ResourceUsage, RuntimeStats};
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
use legosdn_obs::{Counter, Obs, TraceId};
use legosdn_openflow::prelude::{DatapathId, FlowModCommand, Message};
use std::sync::{Arc, Condvar, Mutex};
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
}

/// An app as a shard sees it: its record plus its global attach index
/// (the index sequential dispatch would visit it at).
pub(crate) struct ShardApp {
    pub(crate) global: usize,
    pub(crate) rec: AppRecord,
}

/// One worker's slice of the runtime: a private proxy and Crash-Pad plus
/// the apps hashed onto it, in global attach order.
pub(crate) struct WorkerShard {
    pub(crate) id: usize,
    pub(crate) proxy: AppVisorProxy,
    pub(crate) crashpad: CrashPad,
    pub(crate) apps: Vec<ShardApp>,
}

/// Global-index → (worker, local-index) directory, in attach order.
#[derive(Default)]
pub(crate) struct ShardRouter {
    dir: Vec<(usize, usize)>,
}

impl ShardRouter {
    pub(crate) fn len(&self) -> usize {
        self.dir.len()
    }

    pub(crate) fn push(&mut self, worker: usize, local: usize) {
        self.dir.push((worker, local));
    }

    pub(crate) fn loc(&self, global: usize) -> (usize, usize) {
        self.dir[global]
    }

    pub(crate) fn get(&self, global: usize) -> Option<(usize, usize)> {
        self.dir.get(global).copied()
    }

    /// Rewrite the whole directory from the shards' current rosters.
    /// A re-balance migration shifts the local indices of every app
    /// behind the one that moved, so patching single entries is never
    /// enough — the directory is rebuilt wholesale.
    pub(crate) fn rebuild(&mut self, shards: &[WorkerShard]) {
        for (worker, shard) in shards.iter().enumerate() {
            for (local, app) in shard.apps.iter().enumerate() {
                self.dir[app.global] = (worker, local);
            }
        }
    }
}

/// Stable app→worker assignment: FNV-1a over the app name and its attach
/// ordinal, avalanched, mod the worker count. Pure data — the same
/// roster always shards the same way, on any machine, at any worker
/// count.
///
/// The avalanche finalizer (splitmix64's) matters: raw FNV's low bit is
/// just the XOR of the input bytes' low bits, so for rosters named
/// `app-0`, `app-1`, … the decimal digit's parity cancels the ordinal's
/// and `% 2` degenerates into a contiguous block split. Block-contiguous
/// shards serialize the commit barrier (every position on worker B waits
/// on all of worker A's declarations); mixing the bits first interleaves
/// the roster across shards instead.
#[must_use]
pub fn stable_shard(name: &str, ordinal: usize, workers: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes().chain((ordinal as u64).to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^= h >> 31;
    (h % workers.max(1) as u64) as usize
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

/// A growable, shareable window of translated events. The runtime seeds
/// it with the cycle's initial burst and — when `lookahead_cycles`
/// allows — appends follow-on events triggered by commits while the
/// workers are still draining the window (DESIGN.md §15). Workers index
/// it by slot number; `Arc` hands each worker a stable view of a slot
/// without holding the store lock across dispatch work.
pub(crate) struct SlotStore {
    state: Mutex<StoreState>,
    cv: Condvar,
}

struct StoreState {
    slots: Vec<Arc<WindowSlot>>,
    closed: bool,
}

impl SlotStore {
    pub(crate) fn new(initial: Vec<WindowSlot>) -> Self {
        Self {
            state: Mutex::new(StoreState {
                slots: initial.into_iter().map(Arc::new).collect(),
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.state.lock().expect("slot store poisoned").slots.len()
    }

    pub(crate) fn get(&self, i: usize) -> Arc<WindowSlot> {
        Arc::clone(&self.state.lock().expect("slot store poisoned").slots[i])
    }

    /// Append one slot and wake every worker parked in [`wait_beyond`].
    ///
    /// [`wait_beyond`]: SlotStore::wait_beyond
    pub(crate) fn append(&self, slot: WindowSlot) {
        let mut st = self.state.lock().expect("slot store poisoned");
        st.slots.push(Arc::new(slot));
        self.cv.notify_all();
    }

    /// Mark the window complete: no further appends will come.
    pub(crate) fn close(&self) {
        let mut st = self.state.lock().expect("slot store poisoned");
        st.closed = true;
        self.cv.notify_all();
    }

    /// Block until the store grows past `known` slots (`Some(new_len)`)
    /// or is closed with nothing beyond them (`None`).
    pub(crate) fn wait_beyond(&self, known: usize) -> Option<usize> {
        let mut st = self.state.lock().expect("slot store poisoned");
        while st.slots.len() <= known && !st.closed {
            st = self.cv.wait(st).expect("slot store poisoned");
        }
        (st.slots.len() > known).then_some(st.slots.len())
    }
}

/// The invariant checker's warm cache (DESIGN.md §16) for the network
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
/// budget. Every dispatch mode uses this, so selection (and its
/// suspension side effects) is identical across them.
pub(crate) fn select_app(cx: &mut ShardCtx<'_>, local: usize, kind: EventKind) -> bool {
    let rec = &mut cx.shard.apps[local].rec;
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
    cx.obs.counter("core", "dispatches", "").inc();
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
    let rec = &cx.shard.apps[local].rec;
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

/// Act on one app's dispatch outcome inside the commit lane: execute its
/// commands under the NetLog/byzantine guard, or mark it dead. Shared
/// tail of every dispatch mode.
#[allow(clippy::too_many_arguments)]
pub(crate) fn commit_outcome(
    cx: &mut ShardCtx<'_>,
    lane: &mut CommitLane<'_>,
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
    cx.obs
        .trace_event("commit", &cx.shard.apps[local].rec.name, verdict);
    let mut sub = 0u64;
    match result {
        DispatchResult::Delivered(commands) => {
            execute_guarded(
                cx, lane, local, event, commands, report, true, views, tx_base, &mut sub,
            );
        }
        DispatchResult::Recovered {
            commands, recovery, ..
        } => {
            report.recoveries += 1;
            cx.stats.failstop_recoveries += 1;
            cx.obs
                .counter(
                    "core",
                    "failstop_recoveries",
                    &cx.shard.apps[local].rec.name,
                )
                .inc();
            // Commands from transformed events are real output; execute
            // them under the same guard (no further byzantine recursion
            // on already-recovered output — drop instead).
            let _ = recovery;
            execute_guarded(
                cx, lane, local, event, commands, report, false, views, tx_base, &mut sub,
            );
        }
        DispatchResult::AppDead { .. } => {
            mark_dead(cx, Some(lane.net), local, event);
        }
    }
}

/// The lane-free twin of [`commit_outcome`] for positions [`lane_need`]
/// ruled out: identical bookkeeping (trace verdict, recovery counters,
/// budget suppression, app death without network shutdown) with no
/// network transaction.
pub(crate) fn commit_outcome_elided(
    cx: &mut ShardCtx<'_>,
    local: usize,
    event: &Event,
    result: DispatchResult,
    report: &mut LegoCycleReport,
) {
    let verdict = match &result {
        DispatchResult::Delivered(_) => "delivered",
        DispatchResult::Recovered { .. } => "recovered",
        DispatchResult::AppDead { .. } => "app_dead",
    };
    cx.obs
        .trace_event("commit", &cx.shard.apps[local].rec.name, verdict);
    match result {
        DispatchResult::Delivered(commands) => {
            suppress_if_over_budget(cx, local, &commands);
        }
        DispatchResult::Recovered { commands, .. } => {
            report.recoveries += 1;
            cx.stats.failstop_recoveries += 1;
            cx.obs
                .counter(
                    "core",
                    "failstop_recoveries",
                    &cx.shard.apps[local].rec.name,
                )
                .inc();
            suppress_if_over_budget(cx, local, &commands);
        }
        DispatchResult::AppDead { .. } => {
            mark_dead(cx, None, local, event);
        }
    }
}

/// The command-budget gate of [`execute_guarded`] for elided positions:
/// an over-budget batch suspends the app and counts the suppression even
/// though no transaction ever begins.
fn suppress_if_over_budget(cx: &mut ShardCtx<'_>, local: usize, commands: &[Command]) {
    if commands.is_empty() {
        return;
    }
    let rec = &mut cx.shard.apps[local].rec;
    if let Some(max) = rec.limits.max_commands {
        if rec.usage.commands_emitted + commands.len() as u64 > max {
            rec.status = AppStatus::Suspended("command budget exhausted");
            cx.stats.apps_suspended += 1;
            cx.stats.commands_suppressed += commands.len() as u64;
        }
    }
}

/// Execute an app's commands inside a NetLog transaction with the
/// byzantine gate. `allow_recovery` bounds the recursion: output from a
/// recovery path that is still byzantine is dropped, not re-recovered.
/// Transaction ids are position-derived (`tx_base + *sub`) so the txlog
/// order is independent of barrier admission order.
#[allow(clippy::too_many_arguments)]
fn execute_guarded(
    cx: &mut ShardCtx<'_>,
    lane: &mut CommitLane<'_>,
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
    if let Some(max) = cx.shard.apps[local].rec.limits.max_commands {
        let used = cx.shard.apps[local].rec.usage.commands_emitted;
        if used + commands.len() as u64 > max {
            cx.shard.apps[local].rec.status = AppStatus::Suspended("command budget exhausted");
            cx.stats.apps_suspended += 1;
            cx.stats.commands_suppressed += commands.len() as u64;
            return;
        }
    }

    if commands
        .iter()
        .any(|c| matches!(&c.msg, Message::FlowMod(fm) if fm.send_flow_removed))
    {
        lane.notify_seen = true;
    }

    let name = cx.shard.apps[local].rec.name.clone();
    let mut tx = lane.netlog.begin_for_at(&name, TxId(tx_base + *sub));
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
            cx.obs.counter("core", "byzantine_blocked", &name).inc();
            let policy = cx.shard.crashpad.policies.lookup(&name, event.kind());
            if allow_recovery {
                let recovered = recover_byzantine(cx, lane, local, event, nviol, views);
                // Recovered output (from transformed events) executes
                // with recovery disabled.
                execute_guarded(
                    cx, lane, local, event, recovered, report, false, views, tx_base, sub,
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
            cx.obs
                .counter("core", "commands_executed", "")
                .add(applied as u64);
            cx.shard.apps[local].rec.usage.commands_emitted += applied as u64;
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
    let name = cx.shard.apps[local].rec.name.clone();
    // Replay must see the views the event was dispatched with, which
    // every caller supplies (the windowed scheduler's translator has
    // already advanced past this event by commit time).
    let (topo, dev) = views;
    let result = match &mut cx.shard.apps[local].rec.host {
        Host::Local(sandbox) => cx
            .shard
            .crashpad
            .recover_byzantine(sandbox, &name, event, violations, topo, dev, now),
        Host::Isolated(handle) => {
            let mut adapter = ProxyAdapter {
                proxy: &mut cx.shard.proxy,
                handle: *handle,
            };
            cx.shard.crashpad.recover_byzantine(
                &mut adapter,
                &name,
                event,
                violations,
                topo,
                dev,
                now,
            )
        }
    };
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
    let rec = &mut cx.shard.apps[local].rec;
    if rec.status != AppStatus::Dead {
        rec.status = AppStatus::Dead;
        cx.stats.apps_dead += 1;
    }
    let policy = cx
        .shard
        .crashpad
        .policies
        .lookup(&cx.shard.apps[local].rec.name, event.kind());
    if policy == CompromisePolicy::NoCompromise && cx.shutdown_on_no_compromise {
        if let Some(net) = net {
            shutdown_network(net);
        }
    }
}

/// One worker's execution of a cycle's window: the fill → collect →
/// commit machinery of DESIGN.md §10 over a growable [`SlotStore`],
/// scoped to the shard's apps, with every commit admitted by the shared
/// [`CommitBarrier`].
///
/// The same engine runs the single-worker configuration (inline on the
/// runtime's thread, `sharded == false`, `wait_more == false` so each
/// [`run`] call drains what the store holds and returns for more) and
/// the multi-worker one (on `lego-worker-N` scoped threads,
/// `sharded == true`, `wait_more == true` so workers park in the store
/// until the runtime closes it). Recorder scopes are per-thread, so
/// both configurations record full flight-recorder traces. Stats and
/// the cycle report accumulate into worker-local zero-initialized
/// deltas the runtime merges after the cycle — identical totals at any
/// worker count.
///
/// [`run`]: WorkerRun::run
pub(crate) struct WorkerRun<'env, 'net> {
    pub(crate) shard: &'env mut WorkerShard,
    pub(crate) store: &'env SlotStore,
    pub(crate) barrier: &'env CommitBarrier,
    pub(crate) lane: &'env Mutex<CommitLane<'net>>,
    pub(crate) obs: Obs,
    pub(crate) checker: Option<&'env Checker>,
    pub(crate) shutdown_on_no_compromise: bool,
    pub(crate) depth: usize,
    /// Total apps across all shards — the position stride per slot.
    pub(crate) n_apps: usize,
    /// First transaction id of the cycle (position 0, sub 0).
    pub(crate) tx_cycle_base: u64,
    pub(crate) sharded: bool,
    /// When caught up with the store, park in [`SlotStore::wait_beyond`]
    /// for more slots (worker threads, fed by the runtime's extension
    /// loop) instead of returning to the caller (single-worker drain
    /// mode, where the caller alternates draining with extending).
    pub(crate) wait_more: bool,
    /// Worker label for span histograms: empty when single-worker (the
    /// runtime's historical metric names), `"wN"` per worker otherwise.
    pub(crate) wl: String,
    pub(crate) stats: RuntimeStats,
    pub(crate) report: LegoCycleReport,
    /// Cross-call window state (single-worker drain mode re-enters
    /// [`run`] after each extension): speculative in-flight entries per
    /// slot, uncollected deliveries per app, and the fill/commit
    /// cursors.
    ///
    /// [`run`]: WorkerRun::run
    pub(crate) pending: Vec<Vec<WindowEntry>>,
    pub(crate) inflight: Vec<u64>,
    pub(crate) next_send: usize,
    pub(crate) commit_pos: usize,
}

impl WorkerRun<'_, '_> {
    /// Switch this thread's flight-recorder scope. Scopes are
    /// per-thread, so each worker tags its own fill/commit work with
    /// the slot's trace without disturbing its peers.
    fn scope(&self, trace: Option<TraceId>) {
        self.obs.trace_scope(trace);
    }

    fn cx(&mut self) -> ShardCtx<'_> {
        ShardCtx {
            shard: &mut *self.shard,
            stats: &mut self.stats,
            obs: &self.obs,
            checker: self.checker,
            shutdown_on_no_compromise: self.shutdown_on_no_compromise,
        }
    }

    /// Barrier position of `(slot, local app)`: the index sequential
    /// dispatch would commit it at.
    fn pos_of(&self, slot: usize, local: usize) -> u64 {
        (slot * self.n_apps + self.shard.apps[local].global) as u64
    }

    /// Run the window over this shard's apps: drain every slot the
    /// store currently holds (and, under `wait_more`, every slot the
    /// runtime appends until it closes the store).
    pub(crate) fn run(&mut self) {
        let mut pending = std::mem::take(&mut self.pending);
        let mut inflight = std::mem::take(&mut self.inflight);
        if inflight.len() < self.shard.apps.len() {
            inflight.resize(self.shard.apps.len(), 0);
        }
        let mut next_send = self.next_send;
        let mut commit_pos = self.commit_pos;
        loop {
            let len = self.store.len();
            if commit_pos >= len {
                if !self.wait_more {
                    break;
                }
                match self.store.wait_beyond(len) {
                    Some(_) => continue,
                    None => break,
                }
            }
            if pending.len() < len {
                pending.resize_with(len, Vec::new);
            }
            {
                let _span = self.obs.span_labeled("core.window_fill", &self.wl);
                while next_send < len && next_send < commit_pos + self.depth {
                    pending[next_send] = self.send_slot(next_send, &mut inflight);
                    next_send += 1;
                }
            }
            {
                let _span = self.obs.span_labeled("core.window_commit", &self.wl);
                self.commit_slot(commit_pos, next_send, &mut pending, &mut inflight);
            }
            commit_pos += 1;
        }
        self.scope(None);
        self.pending = pending;
        self.inflight = inflight;
        self.next_send = next_send;
        self.commit_pos = commit_pos;
    }

    /// Speculatively select and queue one slot's deliveries to the
    /// isolated stubs (locals run inline at commit). Selection side
    /// effects (dispatch counters, event budgets, suspension) apply at
    /// send time and are rolled back entry-by-entry if a failure on an
    /// earlier slot cancels the entry.
    fn send_slot(&mut self, s: usize, inflight: &mut [u64]) -> Vec<WindowEntry> {
        let slot = self.store.get(s);
        self.scope(slot.trace);
        let kind = slot.event.kind();
        let mut entries = Vec::new();
        for local in 0..self.shard.apps.len() {
            if !matches!(self.shard.apps[local].rec.host, Host::Isolated(_)) {
                continue;
            }
            if !select_app(&mut self.cx(), local, kind) {
                continue;
            }
            entries.push(self.queue_one(local, &slot, inflight));
        }
        entries
    }

    /// Queue (snapshot-if-due, delivery) for one selected stub app.
    /// Snapshot due-ness is projected over the app's uncollected
    /// in-flight deliveries: a snapshot queued on the FIFO stream between
    /// deliveries *k* and *k+1* captures the state after *k* — exactly
    /// the pre-event checkpoint the sequential protocol takes.
    fn queue_one(&mut self, local: usize, slot: &WindowSlot, inflight: &mut [u64]) -> WindowEntry {
        let Host::Isolated(handle) = &self.shard.apps[local].rec.host else {
            unreachable!("windowed entries are stub-only");
        };
        let handle = *handle;
        let name = self.shard.apps[local].rec.name.clone();
        let snap = if self
            .shard
            .crashpad
            .checkpoints
            .checkpoint_due_ahead(&name, inflight[local])
        {
            self.shard.proxy.queue_snapshot(handle).ok().flatten()
        } else {
            None
        };
        let seq = self
            .shard
            .proxy
            .queue_deliver(handle, &slot.event, &slot.topology, &slot.devices, slot.now)
            .ok()
            .flatten();
        inflight[local] += 1;
        WindowEntry {
            local,
            handle,
            snap,
            seq,
            queued_at: Instant::now(),
        }
    }

    /// Commit one slot: sweep the shard's apps in local (= global) order,
    /// settling each position exactly once — a collected stub entry, an
    /// inline local-sandbox dispatch, or an elision at the barrier.
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
    fn commit_slot(
        &mut self,
        commit_pos: usize,
        next_send: usize,
        pending: &mut [Vec<WindowEntry>],
        inflight: &mut [u64],
    ) {
        let slot = self.store.get(commit_pos);
        self.scope(slot.trace);
        let kind = slot.event.kind();
        let entries = std::mem::take(&mut pending[commit_pos]);
        let mut entries = entries.into_iter().peekable();
        let mut eager = std::collections::VecDeque::new();
        if self.sharded {
            for local in 0..self.shard.apps.len() {
                if matches!(self.shard.apps[local].rec.host, Host::Local(_))
                    && select_app(&mut self.cx(), local, kind)
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
        let mut settles: Vec<(usize, Option<DispatchResult>, bool, bool)> = Vec::new();
        for local in 0..self.shard.apps.len() {
            if entries.peek().is_some_and(|e| e.local == local) {
                let entry = entries.next().expect("peeked");
                inflight[local] -= 1;
                let (result, failed) =
                    self.harvest_entry(entry, &slot, commit_pos, pending, inflight);
                self.declare_or_queue(local, commit_pos, &slot, result, true, failed, &mut settles);
            } else if eager.front().is_some_and(|e| e.0 == local) {
                let (_, result) = eager.pop_front().expect("peeked");
                self.declare_or_queue(local, commit_pos, &slot, result, false, false, &mut settles);
            } else {
                let selected = !self.sharded
                    && matches!(self.shard.apps[local].rec.host, Host::Local(_))
                    && select_app(&mut self.cx(), local, kind);
                if selected {
                    // A local sandbox has no stub to overlap with: it
                    // runs inline at commit, against the slot's
                    // captured views.
                    let result = self.deliver_local(local, &slot);
                    self.declare_or_queue(
                        local,
                        commit_pos,
                        &slot,
                        result,
                        false,
                        false,
                        &mut settles,
                    );
                } else {
                    self.barrier.finish_empty(self.pos_of(commit_pos, local));
                }
            }
        }
        // Settle sweep, in the same local order: admission + lane
        // commit, then the window repair (cancel/resend) the inline
        // path used to perform per entry.
        for (local, result, is_stub, failed) in settles {
            let byz_before = self.stats.byzantine_blocked;
            if let Some(result) = result {
                self.settle_declared(local, commit_pos, &slot, result);
            }
            let byz_recovered = self.stats.byzantine_blocked > byz_before;
            if is_stub && byz_recovered && !failed {
                // Byzantine caught at commit: the app was restored
                // mid-stream, so its queued later deliveries ran from
                // the wrong state.
                self.cancel_app(local, commit_pos, pending, inflight);
            }
            if is_stub && (failed || byz_recovered) {
                self.resend_app(local, commit_pos, next_send, pending, inflight);
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
        let name = self.shard.apps[local].rec.name.clone();
        let started = Instant::now();
        let result = {
            let obs = self.obs.clone();
            let Host::Local(sandbox) = &mut self.shard.apps[local].rec.host else {
                unreachable!("checked by the caller");
            };
            self.shard.crashpad.prepare(sandbox, &name);
            obs.trace_event("send", &name, "local");
            let delivery = sandbox.deliver(&slot.event, &slot.topology, &slot.devices, slot.now);
            obs.trace_event("collect", &name, delivery_label(&delivery));
            self.shard.crashpad.complete(
                sandbox,
                &name,
                &slot.event,
                delivery,
                &slot.topology,
                &slot.devices,
                slot.now,
            )
        };
        // Per-app dispatch cost, fed back to the runtime's load-aware
        // re-balancer (DESIGN.md §15).
        self.obs
            .histogram("core", "dispatch_app_ns", &name)
            .observe(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        result
    }

    /// Collect and gather one in-flight (event, app) entry: snapshot
    /// collect, delivery collect, failure-path cancellation (before
    /// recovery restores the app, so the RPC stream is clean when
    /// replay begins), and the Crash-Pad's completion/recovery.
    /// Returns the dispatch outcome plus whether the delivery failed;
    /// settling happens later, after the whole slot has declared.
    fn harvest_entry(
        &mut self,
        entry: WindowEntry,
        slot: &WindowSlot,
        commit_pos: usize,
        pending: &mut [Vec<WindowEntry>],
        inflight: &mut [u64],
    ) -> (DispatchResult, bool) {
        let local = entry.local;
        let name = self.shard.apps[local].rec.name.clone();

        // The snapshot queued before this delivery: collect and book it.
        // The recorded duration is the wait the proxy actually paid here —
        // near zero when the stub answered while the window was busy,
        // which is the cost this scheduler exists to hide.
        if let Some(tag) = entry.snap {
            let waited = Instant::now();
            if let Ok(bytes) = self.shard.proxy.collect_snapshot(entry.handle, tag) {
                let dur_ns = u64::try_from(waited.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.shard.crashpad.record_prepared(&name, bytes, dur_ns);
            }
        }

        self.shard.crashpad.note_dispatch();
        let delivery = match entry.seq {
            Some(seq) => outcome_to_delivery(self.shard.proxy.collect_deliver(entry.handle, seq)),
            None => DeliveryResult::CommFailure,
        };
        let queue_ns = u64::try_from(entry.queued_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.obs
            .histogram("core", "window_queue_ns", &self.wl)
            .observe(queue_ns);
        // Queue latency doubles as the stub's load signal for the
        // runtime's re-balancer: a stub that keeps the window waiting
        // is a stub worth spreading away from its shard-mates.
        self.obs
            .histogram("core", "dispatch_app_ns", &name)
            .observe(queue_ns);

        let failed = !matches!(delivery, DeliveryResult::Ok(_));
        if failed {
            // Cancel this app's queued later deliveries BEFORE recovery
            // restores it, so the RPC stream is clean when replay begins.
            self.cancel_app(local, commit_pos, pending, inflight);
        }
        let result = {
            let mut adapter = ProxyAdapter {
                proxy: &mut self.shard.proxy,
                handle: entry.handle,
            };
            self.shard.crashpad.complete(
                &mut adapter,
                &name,
                &slot.event,
                delivery,
                &slot.topology,
                &slot.devices,
                slot.now,
            )
        };
        (result, failed)
    }

    /// Declare one harvested position at the barrier, or elide it on
    /// the spot if it needs no network transaction. Lane-needing
    /// positions are queued for the settle sweep; elided failed stubs
    /// are queued too (result already settled) so the settle sweep
    /// still repairs their window.
    #[allow(clippy::too_many_arguments)]
    fn declare_or_queue(
        &mut self,
        local: usize,
        commit_pos: usize,
        slot: &WindowSlot,
        result: DispatchResult,
        is_stub: bool,
        failed: bool,
        settles: &mut Vec<(usize, Option<DispatchResult>, bool, bool)>,
    ) {
        let pos = self.pos_of(commit_pos, local);
        if !lane_need(&self.cx(), local, &slot.event, &result) {
            let mut cx = ShardCtx {
                shard: &mut *self.shard,
                stats: &mut self.stats,
                obs: &self.obs,
                checker: self.checker,
                shutdown_on_no_compromise: self.shutdown_on_no_compromise,
            };
            commit_outcome_elided(&mut cx, local, &slot.event, result, &mut self.report);
            self.barrier.finish_empty(pos);
            if is_stub && failed {
                settles.push((local, None, is_stub, failed));
            }
            return;
        }
        let (touch, notify) = match &result {
            DispatchResult::Delivered(commands) | DispatchResult::Recovered { commands, .. } => {
                commands_touch(commands)
            }
            DispatchResult::AppDead { .. } => (TxTouch::Unknown, false),
        };
        if notify {
            self.barrier.poison_fastpath();
        }
        self.barrier.declare(pos, self.shard.id, touch);
        settles.push((local, Some(result), is_stub, failed));
    }

    /// Settle one already-declared position: wait for admission and run
    /// the commit inside the shared lane.
    fn settle_declared(
        &mut self,
        local: usize,
        commit_pos: usize,
        slot: &WindowSlot,
        result: DispatchResult,
    ) {
        let pos = self.pos_of(commit_pos, local);
        let _admission = self.barrier.acquire(pos);
        {
            let mut lane = self.lane.lock().expect("commit lane poisoned");
            let mut cx = ShardCtx {
                shard: &mut *self.shard,
                stats: &mut self.stats,
                obs: &self.obs,
                checker: self.checker,
                shutdown_on_no_compromise: self.shutdown_on_no_compromise,
            };
            commit_outcome(
                &mut cx,
                &mut lane,
                local,
                &slot.event,
                result,
                &mut self.report,
                (&slot.topology, &slot.devices),
                self.tx_cycle_base + pos * TXS_PER_POS,
            );
        }
        self.barrier.release(pos);
    }

    /// Drop an app's in-flight entries beyond `commit_pos` and roll back
    /// their speculative selection, so re-selection sees exactly the
    /// post-recovery state sequential dispatch would.
    fn cancel_app(
        &mut self,
        local: usize,
        commit_pos: usize,
        pending: &mut [Vec<WindowEntry>],
        inflight: &mut [u64],
    ) {
        let name = self.shard.apps[local].rec.name.clone();
        let mut tags = Vec::new();
        let mut handle = None;
        for (s, slot_entries) in pending.iter_mut().enumerate().skip(commit_pos + 1) {
            if let Some(pos) = slot_entries.iter().position(|e| e.local == local) {
                let e = slot_entries.remove(pos);
                tags.extend(e.snap);
                tags.extend(e.seq);
                handle = Some(e.handle);
                // Roll the speculative selection back. (The monotonic obs
                // dispatch counter keeps the cancelled send; RuntimeStats
                // is the determinism-bearing surface.)
                self.stats.dispatches -= 1;
                self.shard.apps[local].rec.usage.events_consumed -= 1;
                inflight[local] -= 1;
                // The cancellation belongs to the *cancelled* event's
                // timeline, not the failed one currently in scope.
                if let Some(tid) = self.store.get(s).trace {
                    self.obs
                        .trace_event_for(tid, "cancel", &name, "crash_upstream");
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
    fn resend_app(
        &mut self,
        local: usize,
        commit_pos: usize,
        next_send: usize,
        pending: &mut [Vec<WindowEntry>],
        inflight: &mut [u64],
    ) {
        for (s, pend) in pending
            .iter_mut()
            .enumerate()
            .take(next_send)
            .skip(commit_pos + 1)
        {
            let slot = self.store.get(s);
            // Re-queued work records into the re-sent event's trace.
            self.scope(slot.trace);
            if !select_app(&mut self.cx(), local, slot.event.kind()) {
                continue;
            }
            self.obs
                .trace_event("resend", &self.shard.apps[local].rec.name, "requeued");
            let entry = self.queue_one(local, &slot, inflight);
            let pos = pend
                .iter()
                .position(|e| e.local > local)
                .unwrap_or(pend.len());
            pend.insert(pos, entry);
        }
    }
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
    fn stable_shard_is_stable_and_in_range() {
        for workers in 1..=8 {
            for ordinal in 0..32 {
                let a = stable_shard("learning-switch", ordinal, workers);
                let b = stable_shard("learning-switch", ordinal, workers);
                assert_eq!(a, b);
                assert!(a < workers);
            }
        }
        // Distinct ordinals of the same name do spread (the whole point
        // of hashing the ordinal in).
        let spread: std::collections::BTreeSet<usize> =
            (0..16).map(|o| stable_shard("hub", o, 4)).collect();
        assert!(spread.len() > 1, "identical ordinals never spread");
    }

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
