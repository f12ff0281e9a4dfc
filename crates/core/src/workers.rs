//! Worker shards: the runtime's per-worker half (DESIGN.md §9).
//!
//! The runtime deals attached apps round-robin across N worker shards
//! in attach order — app *g* is local app `g / N` of shard `g % N`, for
//! good — so (shard, local) and the global attach index are arithmetic
//! both ways and no directory is kept. Each shard owns a private
//! AppVisor proxy (its stubs and their stub-host pool) and a private
//! Crash-Pad, so the per-app dispatch path never crosses a shard
//! boundary. The network and the NetLog stay shared: every commit goes
//! through one [`CommitLane`] guarded by a mutex, admitted in sequential
//! position order by the [`legosdn_netlog::CommitBarrier`].
//!
//! Determinism contract: a position's transaction ids are derived from
//! the position itself (`tx_base + pos * TXS_PER_POS + sub`), as the
//! reference derives them, and commits land in position order — so the
//! sharded runtime's residue (network state, txlog, stats, per-app
//! delivery order) is bit-identical to the single-threaded reference.

use crate::config::ResourceLimits;
use crate::host::{Host, ProxyAdapter};
use crate::runtime::{AppStatus, Feed, Pull, ResourceUsage, RuntimeStats};
use legosdn_appvisor::{AppHandle, AppVisorProxy};
use legosdn_controller::app::Command;
use legosdn_controller::event::{Event, EventKind};
use legosdn_controller::sandbox::{panic_text, DeliverOutcome};
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_crashpad::{CompromisePolicy, CrashPad, DispatchResult, FailureKind, RecoverableApp};
use legosdn_invariants::shutdown_network;
use legosdn_netlog::{CommitBarrier, NetLog, Transaction, TxError, TxId};
use legosdn_netsim::{Network, SimTime};
use legosdn_obs::{AppId, Counter, Gauge, Histogram, Obs, RecordKind, TraceId};
use legosdn_openflow::prelude::Message;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Transaction-id stride per commit position. Each (event, app) position
/// owns this many consecutive ids: sub 0 is the top-level transaction,
/// sub 1 the byzantine-recovery retry. Deriving ids from the position
/// gives every commit the id the reference (`reference.rs`) gives it,
/// with no counter shared between workers.
pub const TXS_PER_POS: u64 = 4;

/// One attached app: identity, fault-domain host, scheduling state.
pub(crate) struct AppRecord {
    pub(crate) name: String,
    /// The id the app's records carry ([`Obs::attach_app`]).
    pub(crate) id: AppId,
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
    /// Where a test makes this shard's thread panic, in firing order.
    #[cfg(test)]
    pub(crate) faults: Vec<FaultPoint>,
}

/// A point in a shard's loop where a test can make its thread panic:
/// what a bug in the runtime's own code there would do.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultPoint {
    /// Filling: about to queue slot `slot` to local app `local`.
    Fill { slot: usize, local: usize },
    /// Harvesting the slot at `commit_pos`: about to settle local app
    /// `local`'s position.
    Harvest { commit_pos: usize, local: usize },
    /// On the lane, with transaction `tx` open and one command applied.
    Lane { tx: u64 },
    /// A lost shard's drain, about to start.
    Drain,
}

/// Panic if `at` is the next point armed on `shard`.
#[cfg(test)]
fn fault(shard: &mut WorkerShard, at: FaultPoint) {
    if shard.faults.first() == Some(&at) {
        shard.faults.remove(0);
        panic!("injected fault at {at:?}");
    }
}

impl WorkerShard {
    /// Reach one app behind this shard's Crash-Pad, whatever hosts it:
    /// `f` gets the engine, the app as Crash-Pad sees it (the sandbox, or
    /// the stub through this shard's proxy), and the app's record id and
    /// name.
    pub(crate) fn with_app<R>(
        &mut self,
        local: usize,
        f: impl FnOnce(&mut CrashPad, &mut dyn RecoverableApp, AppId, &str) -> R,
    ) -> R {
        let WorkerShard {
            apps,
            crashpad,
            proxy,
            ..
        } = self;
        let AppRecord { name, id, host, .. } = &mut apps[local];
        match host {
            Host::Local(sandbox) => f(crashpad, sandbox, *id, name),
            Host::Isolated(handle) => {
                let handle = *handle;
                f(crashpad, &mut ProxyAdapter { proxy, handle }, *id, name)
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
    pub(crate) barrier_ordered_commits: Arc<Counter>,
    pub(crate) barrier_elided_positions: Arc<Counter>,
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
            barrier_ordered_commits: barrier("barrier_ordered_commits"),
            barrier_elided_positions: barrier("barrier_elided_positions"),
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
    /// operations switch the obs trace scope to this id so every layer's
    /// records (proxy queue/collect, Crash-Pad recovery, NetLog commit)
    /// land in the right causal timeline. Scopes are per-thread cells, so
    /// worker threads tag their own work without sharing any state.
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
///
/// A poisoned lock is still a sound one: each critical section is an
/// index, a push or a pop, which panics before it mutates (an index out
/// of range) or cannot panic, so every lock takes the state back from a
/// [`PoisonError`], as the commit barrier's does.
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
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.base + st.slots.len()
    }

    pub(crate) fn get(&self, i: usize) -> Arc<WindowSlot> {
        let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(&st.slots[i - st.base])
    }

    /// Append one slot; returns [`SlotStore::len`] with it in.
    pub(crate) fn append(&self, slot: WindowSlot) -> usize {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.slots.push_back(Arc::new(slot));
        st.base + st.slots.len()
    }

    /// Drop the slots below `committed`: every worker is past them.
    pub(crate) fn release_below(&self, committed: usize) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while st.base < committed && st.slots.pop_front().is_some() {
            st.base += 1;
        }
    }
}

/// The shared commit lane: the one place network effects happen. Workers
/// take it only for the duration of a single transaction, under barrier
/// admission, or for a feed session.
///
/// A panic on the lane leaves its lock poisoned and a transaction
/// perhaps open. Every lock takes the lane back from a [`PoisonError`]:
/// the open transaction waits in `open` for the lost shard's drain to
/// abort it, and nobody else can commit before that drain releases the
/// panicking position at the barrier.
pub(crate) struct CommitLane<'a> {
    pub(crate) net: &'a mut Network,
    pub(crate) netlog: &'a mut NetLog,
    /// The transaction being executed, from its begin to its commit.
    pub(crate) open: Option<Transaction>,
}

/// A shard's view of the runtime while acting on one app: the shard
/// itself plus the stats sink and shared read-only policy knobs.
pub(crate) struct ShardCtx<'a> {
    pub(crate) shard: &'a mut WorkerShard,
    pub(crate) stats: &'a mut RuntimeStats,
    pub(crate) obs: &'a Obs,
    pub(crate) metrics: &'a CoreMetrics,
    pub(crate) shutdown_on_no_compromise: bool,
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
    cx.obs
        .emit(Some(rec.id), RecordKind::Step("fill", "selected"));
    true
}

/// What one position still needs from the shared commit lane once its
/// outcome is booked.
pub(crate) enum LaneWork {
    /// Nothing: the position is *elided* at the barrier.
    None,
    /// Run `commands` in a NetLog transaction. `recover` is false for
    /// output that already came out of a recovery: if that is byzantine
    /// too, it is dropped, not recovered again.
    Execute {
        commands: Vec<Command>,
        recover: bool,
    },
    /// A No-Compromise app died and the network goes down with it.
    Shutdown,
}

/// Book one app's dispatch outcome — recovery counters, command-budget
/// suspension, app death — and say what is left for the commit lane. The
/// engine books at harvest and the reference right before the lane step;
/// neither decides any of this again. An elided position's trace verdict
/// is emitted here; the lane step emits the others.
pub(crate) fn book(
    cx: &mut ShardCtx<'_>,
    local: usize,
    slot: &WindowSlot,
    result: DispatchResult,
) -> LaneWork {
    let (verdict, work) = match result {
        DispatchResult::Delivered(commands) => ("delivered", charge(cx, local, commands, true)),
        DispatchResult::Recovered { commands, .. } => {
            cx.stats.failstop_recoveries += 1;
            cx.shard.apps[local].failstop_recoveries.inc();
            ("recovered", charge(cx, local, commands, false))
        }
        DispatchResult::AppDead { .. } => {
            mark_dead(cx, local);
            let work = if shuts_network(cx, local, slot) {
                LaneWork::Shutdown
            } else {
                LaneWork::None
            };
            ("app_dead", work)
        }
    };
    if let LaneWork::None = work {
        let id = cx.shard.apps[local].id;
        cx.obs.emit(Some(id), RecordKind::Step("commit", verdict));
    }
    work
}

/// The lane work of one command batch: none if it is empty, or if it
/// would overrun the app's command budget (which suspends the app and
/// counts the batch suppressed); its execution otherwise.
fn charge(cx: &mut ShardCtx<'_>, local: usize, commands: Vec<Command>, recover: bool) -> LaneWork {
    if commands.is_empty() {
        return LaneWork::None;
    }
    let rec = &mut cx.shard.apps[local];
    if let Some(max) = rec.limits.max_commands {
        if rec.usage.commands_emitted + commands.len() as u64 > max {
            rec.status = AppStatus::Suspended("command budget exhausted");
            cx.stats.apps_suspended += 1;
            cx.stats.commands_suppressed += commands.len() as u64;
            return LaneWork::None;
        }
    }
    LaneWork::Execute { commands, recover }
}

/// Whether a failure of this app on this slot's event takes the network
/// down: its policy is No-Compromise and the runtime is configured to.
fn shuts_network(cx: &ShardCtx<'_>, local: usize, slot: &WindowSlot) -> bool {
    let name = &cx.shard.apps[local].name;
    cx.shutdown_on_no_compromise
        && cx.shard.crashpad.policies.lookup(name, slot.event.kind())
            == CompromisePolicy::NoCompromise
}

/// Mark an app dead.
fn mark_dead(cx: &mut ShardCtx<'_>, local: usize) {
    let rec = &mut cx.shard.apps[local];
    if rec.status != AppStatus::Dead {
        rec.status = AppStatus::Dead;
        cx.stats.apps_dead += 1;
    }
}

/// The lane step: run one booked position's [`LaneWork`] on the commit
/// lane — a NetLog transaction under the byzantine guard, with the
/// position's first transaction id `tx`, or a network shutdown. Returns
/// whether the commit was blocked as byzantine.
pub(crate) fn commit_on_lane(
    cx: &mut ShardCtx<'_>,
    lane: &mut CommitLane<'_>,
    local: usize,
    slot: &WindowSlot,
    work: LaneWork,
    tx: TxId,
) -> bool {
    let verdict = match &work {
        LaneWork::None => return false,
        LaneWork::Execute { recover: true, .. } => "delivered",
        LaneWork::Execute { recover: false, .. } => "recovered",
        LaneWork::Shutdown => "app_dead",
    };
    let id = cx.shard.apps[local].id;
    cx.obs.emit(Some(id), RecordKind::Step("commit", verdict));
    match work {
        LaneWork::Execute { commands, recover } => {
            execute_guarded(cx, lane, local, slot, commands, recover, tx)
        }
        _ => {
            shutdown_network(lane.net);
            false
        }
    }
}

/// Execute an app's commands inside NetLog transaction `tx`, whose commit
/// is the byzantine gate. `recover` bounds the recursion: output from a
/// recovery path that is still byzantine is dropped, not re-recovered;
/// a recovered retry takes the next id. Ids are position-derived, so the
/// txlog order is independent of barrier admission order.
fn execute_guarded(
    cx: &mut ShardCtx<'_>,
    lane: &mut CommitLane<'_>,
    local: usize,
    slot: &WindowSlot,
    commands: Vec<Command>,
    recover: bool,
    tx: TxId,
) -> bool {
    let txn = lane
        .open
        .insert(lane.netlog.begin_for_at(cx.shard.apps[local].id, tx));
    for c in &commands {
        #[cfg(test)]
        if txn.len() == 1 {
            fault(cx.shard, FaultPoint::Lane { tx: tx.0 });
        }
        // Reads return synchronously; pass stats replies through the
        // counter cache.
        match lane.netlog.execute(txn, lane.net, c.dpid, &c.msg) {
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

    // The commit is the byzantine gate: a violation comes back rolled
    // back, with the check's report.
    let txn = lane.open.take().expect("opened above");
    match lane.netlog.commit(txn, lane.net) {
        Err(TxError::Blocked(check)) => {
            cx.stats.byzantine_blocked += 1;
            cx.shard.apps[local].byzantine_blocked.inc();
            if recover {
                let now = lane.net.now();
                let failure = FailureKind::Byzantine {
                    violations: check.violations.len(),
                };
                // Replay sees the views the event was dispatched with (the
                // windowed scheduler's translator has already advanced past
                // it by commit time).
                let result = cx.shard.with_app(local, |crashpad, app, id, name| {
                    let (event, topo, dev) = (&slot.event, &slot.topology, &slot.devices);
                    crashpad.recover(app, id, name, event, failure, topo, dev, now)
                });
                match result {
                    // Recovered output (a transformed event's; an ignored
                    // one's is empty) executes with recovery disabled.
                    DispatchResult::Recovered { commands, .. } => {
                        if let LaneWork::Execute { commands, .. } =
                            charge(cx, local, commands, false)
                        {
                            execute_guarded(cx, lane, local, slot, commands, false, TxId(tx.0 + 1));
                        }
                    }
                    // The network goes down below if the app's death takes it.
                    _ => mark_dead(cx, local),
                }
            } else {
                cx.stats.commands_suppressed += commands.len() as u64;
            }
            if shuts_network(cx, local, slot) {
                shutdown_network(lane.net);
            }
            true
        }
        committed => {
            let applied = committed.map_or(0, |r| r.ops_applied) as u64;
            cx.stats.commands_executed += applied;
            cx.metrics.commands_executed.add(applied);
            cx.shard.apps[local].usage.commands_emitted += applied;
            false
        }
    }
}

/// What every worker of one cycle's window shares: the slots and the
/// feed they come from, the commit order, the commit lane and the
/// read-only knobs. Lock order: feed, then lane. A panic mid-translation
/// poisons both; the next session takes them back and goes on with the
/// translator as the panic left it (DESIGN.md §5).
#[derive(Clone, Copy)]
pub(crate) struct Window<'env, 'net> {
    pub(crate) store: &'env SlotStore,
    pub(crate) feed: &'env Mutex<&'net mut Feed>,
    pub(crate) barrier: &'env CommitBarrier,
    pub(crate) lane: &'env Mutex<CommitLane<'net>>,
    pub(crate) obs: &'env Obs,
    pub(crate) metrics: &'env CoreMetrics,
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
    /// The next raw is impure and waits on commits still in flight;
    /// worth asking again once the barrier cursor has passed this value.
    Wait(u64),
    /// The feed has ended: nothing more to ask it for this cycle.
    Ended,
}

impl Window<'_, '_> {
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
        let mut feed = self.feed.lock().unwrap_or_else(PoisonError::into_inner);
        if feed.ended() {
            return Topped::Ended;
        }
        // Every position below the cursor has committed: the slots below
        // its slot are released, and the store counts as drained once the
        // cursor is past every position in it.
        let cursor = self.barrier.cursor();
        self.store
            .release_below((cursor / self.n_apps.max(1) as u64) as usize);
        let target = if self.workers > 1 { usize::MAX } else { want };
        let mut lane = self.lane.lock().unwrap_or_else(PoisonError::into_inner);
        let mut len = self.store.len();
        while len < target {
            let uncommitted = (len * self.n_apps) as u64;
            let pulled = feed.pull(lane.net, cursor >= uncommitted, |slot| {
                len = self.store.append(slot);
            });
            match pulled {
                Pull::Fed => {}
                Pull::End => return Topped::Ended,
                // An impure raw needs the whole store committed.
                Pull::Drain => return Topped::Wait(uncommitted - 1),
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
/// The runtime thread calls [`run`] for shard 0, and shard *N* ≥ 1 runs
/// it as one job on its long-lived `lego-worker-N` thread
/// (`crate::pool`), so no cycle starts a thread. Recorder scopes are
/// per-thread, so every shard records full flight-recorder traces. Stats
/// accumulate into a worker-local zero-initialized delta the runtime
/// merges after the cycle — identical totals at any worker count.
///
/// [`run`]: WorkerRun::run
pub(crate) struct WorkerRun<'env, 'net> {
    shard: &'env mut WorkerShard,
    win: Window<'env, 'net>,
    pub(crate) stats: RuntimeStats,
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
            pending: Vec::new(),
            next_send: 0,
            commit_pos: 0,
            fed_out: false,
        }
    }

    /// Switch this thread's flight-recorder scope: a thread-local write,
    /// so each worker tags its own fill/commit work with the slot's trace
    /// without a lock and without disturbing its peers.
    fn scope(&self, trace: Option<TraceId>) {
        self.win.obs.trace_scope(trace);
    }

    /// The shard context for acting on one app.
    fn cx(&mut self) -> ShardCtx<'_> {
        ShardCtx {
            shard: &mut *self.shard,
            stats: &mut self.stats,
            obs: self.win.obs,
            metrics: self.win.metrics,
            shutdown_on_no_compromise: self.win.shutdown_on_no_compromise,
        }
    }

    /// Barrier position of `(slot, local app)`: the index sequential
    /// dispatch would commit it at (the app's global attach index is
    /// `local * workers + shard id`).
    fn pos_of(&self, slot: usize, local: usize) -> u64 {
        (slot * self.win.n_apps + local * self.win.workers + self.shard.id) as u64
    }

    /// Run the window over this shard's apps until the feed has ended and
    /// every slot it yielded is committed. A panic in the loop loses the
    /// shard ([`WorkerRun::lose`]), and the loop runs again as its drain;
    /// a panic in the drain escapes to the pool, which aborts.
    pub(crate) fn run(&mut self) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.run_loop())) {
            self.lose(&panic_text(payload));
            #[cfg(test)]
            fault(self.shard, FaultPoint::Drain);
            self.run_loop();
        }
        self.scope(None);
    }

    /// Book this shard as lost to a panic in its own loop: abort the
    /// transaction it left open on the lane, cancel its in-flight
    /// entries, and quarantine every app still running through Crash-Pad
    /// as [`FailureKind::WorkerLost`], whose verdict is always death. With
    /// no app running, the loop selects none, so every position it has
    /// left is elided: that is the drain.
    fn lose(&mut self, panic: &str) {
        let now = {
            let mut lane = self.win.lane.lock().unwrap_or_else(PoisonError::into_inner);
            let CommitLane { net, netlog, open } = &mut *lane;
            if let Some(txn) = open.take() {
                let _ = netlog.abort(txn, net);
            }
            net.now()
        };
        // Deliveries sent but not yet harvested stay uncollected: their
        // apps are dead for good.
        for entries in self.pending.iter_mut().skip(self.commit_pos) {
            entries.clear();
        }
        let slot = if self.commit_pos < self.win.store.len() {
            self.win.store.get(self.commit_pos)
        } else {
            // No event of this shard's was in hand: it lost its footing
            // translating the next one.
            Arc::new(WindowSlot {
                event: Event::Tick(now),
                topology: TopologyView::default(),
                devices: DeviceView::default(),
                now,
                trace: None,
            })
        };
        self.scope(slot.trace);
        let thread = std::thread::current();
        let panic_message = format!(
            "shard {} on thread {}: {panic}",
            self.shard.id,
            thread.name().unwrap_or("<unnamed>")
        );
        for local in 0..self.shard.apps.len() {
            if self.shard.apps[local].status != AppStatus::Running {
                continue;
            }
            let failure = FailureKind::WorkerLost {
                panic_message: panic_message.clone(),
            };
            self.shard.with_app(local, |crashpad, app, id, name| {
                let (event, topo, dev) = (&slot.event, &slot.topology, &slot.devices);
                crashpad.recover(app, id, name, event, failure, topo, dev, slot.now)
            });
            mark_dead(&mut self.cx(), local);
        }
    }

    /// [`WorkerRun::run`]'s loop.
    fn run_loop(&mut self) {
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
            #[cfg(test)]
            fault(self.shard, FaultPoint::Fill { slot: s, local });
            if !select_app(&mut self.cx(), local, kind) {
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
    fn commit_slot(&mut self) {
        let commit_pos = self.commit_pos;
        let slot = self.win.store.get(commit_pos);
        self.scope(slot.trace);
        let kind = slot.event.kind();
        let entries = std::mem::take(&mut self.pending[commit_pos]);
        let mut entries = entries.into_iter().peekable();
        // Harvest sweep: collect and book every position's outcome, and
        // finish each elided one at the barrier the moment it is known.
        // Every elision of the slot thus lands before this worker's first
        // admission wait, so a peer's cursor is never held by our waits.
        let mut settles: Vec<Settle> = Vec::new();
        for local in 0..self.shard.apps.len() {
            #[cfg(test)]
            fault(self.shard, FaultPoint::Harvest { commit_pos, local });
            let pos = self.pos_of(commit_pos, local);
            let (result, failed) = if entries.peek().is_some_and(|e| e.local == local) {
                let entry = entries.next().expect("peeked");
                self.inflight[local] -= 1;
                self.harvest_entry(entry, &slot)
            } else if matches!(self.shard.apps[local].host, Host::Local(_))
                && select_app(&mut self.cx(), local, kind)
            {
                // A local sandbox has no stub to overlap with: it runs
                // inline at commit, against the slot's captured views.
                (self.deliver_local(local, &slot), false)
            } else {
                self.win.barrier.finish_empty(pos);
                continue;
            };
            let running = self.shard.apps[local].status == AppStatus::Running;
            let work = book(&mut self.cx(), local, &slot, result);
            let mut cancelled = failed;
            if running && !failed && self.shard.apps[local].status != AppStatus::Running {
                // Booking suspended the app: sequential dispatch would
                // not have made the deliveries queued after this one.
                self.cancel_app(local);
                cancelled = true;
            }
            if let LaneWork::None = work {
                self.win.barrier.finish_empty(pos);
                // A cancelled stub window still needs its re-send.
                if !cancelled {
                    continue;
                }
            }
            settles.push(Settle {
                local,
                work,
                cancelled,
            });
        }
        // Settle sweep, in the same local order: admission + lane
        // commit, then the window repair (cancel/resend).
        for Settle {
            local,
            work,
            cancelled,
        } in settles
        {
            let blocked = match work {
                LaneWork::None => false,
                work => self.settle(local, &slot, work),
            };
            if !matches!(self.shard.apps[local].host, Host::Isolated(_)) {
                continue;
            }
            if blocked && !cancelled {
                // Byzantine caught at commit: the app was restored
                // mid-stream, so its queued later deliveries ran from
                // the wrong state.
                self.cancel_app(local);
            }
            if cancelled || blocked {
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
        self.shard.with_app(local, |crashpad, app, id, name| {
            crashpad.prepare(app, id, name);
            obs.emit(Some(id), RecordKind::Step("send", "local"));
            let delivery = app.deliver(&slot.event, &slot.topology, &slot.devices, slot.now);
            obs.emit(Some(id), RecordKind::Step("collect", delivery.label()));
            crashpad.complete(
                app,
                id,
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
    /// settling happens later, after the whole slot is harvested.
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
                crashpad.record_prepared(apps[local].id, &apps[local].name, bytes.into(), dur_ns);
            }
        }

        crashpad.note_dispatch();
        let delivery = match entry.seq {
            Some(seq) => proxy
                .collect_deliver(entry.handle, seq)
                .unwrap_or(DeliverOutcome::CommFailure),
            None => DeliverOutcome::CommFailure,
        };
        let queue_ns = u64::try_from(entry.queued_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
        metrics.window_queue_ns.observe(queue_ns);

        let failed = !matches!(delivery, DeliverOutcome::Commands(_));
        if failed {
            // Cancel this app's queued later deliveries BEFORE recovery
            // restores it, so the RPC stream is clean when replay begins.
            self.cancel_app(local);
        }
        let result = self.shard.with_app(local, |crashpad, app, id, name| {
            crashpad.complete(
                app,
                id,
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

    /// Settle one booked position: wait for admission and run its lane
    /// step. Returns whether the commit was blocked as byzantine.
    fn settle(&mut self, local: usize, slot: &WindowSlot, work: LaneWork) -> bool {
        let win = self.win;
        let pos = self.pos_of(self.commit_pos, local);
        let tx = TxId(win.tx_cycle_base + pos * TXS_PER_POS);
        win.barrier.acquire(pos);
        let blocked = {
            let mut lane = win.lane.lock().unwrap_or_else(PoisonError::into_inner);
            commit_on_lane(&mut self.cx(), &mut lane, local, slot, work, tx)
        };
        win.barrier.release(pos);
        blocked
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
                    self.win.obs.emit_to(
                        Some(tid),
                        Some(self.shard.apps[local].id),
                        RecordKind::Step("cancel", "crash_upstream"),
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
            if !select_app(&mut self.cx(), local, slot.event.kind()) {
                continue;
            }
            self.win.obs.emit(
                Some(self.shard.apps[local].id),
                RecordKind::Step("resend", "requeued"),
            );
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

/// One booked position of the slot being committed, between the harvest
/// sweep (outcome booked) and the settle sweep.
/// `cancelled`: the harvest cancelled the app's later deliveries (it
/// failed, or booking suspended it), so they need re-sending; `work` is
/// [`LaneWork::None`] when that is all the position needs.
struct Settle {
    local: usize,
    work: LaneWork,
    cancelled: bool,
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
    use legosdn_openflow::prelude::DatapathId;

    fn slot(dpid: u64) -> WindowSlot {
        WindowSlot {
            event: Event::SwitchUp(DatapathId(dpid)),
            topology: TopologyView::default(),
            devices: DeviceView::default(),
            now: SimTime::ZERO,
            trace: None,
        }
    }

    #[test]
    fn the_slot_store_answers_after_a_panic_under_its_lock() {
        let store = SlotStore::default();
        assert_eq!(store.append(slot(1)), 1);
        let past_the_end = std::thread::scope(|s| s.spawn(|| store.get(5)).join());
        assert!(past_the_end.is_err(), "a get past the end panics");
        assert!(store.state.is_poisoned());
        assert_eq!(store.len(), 1);
        assert_eq!(store.append(slot(2)), 2);
        store.release_below(1);
        assert_eq!(store.len(), 2);
        assert!(matches!(store.get(1).event, Event::SwitchUp(DatapathId(2))));
    }
}
