//! The dispatch engine (DESIGN.md §9): one [`Engine`] per cycle, on
//! the runtime thread, over every attached app. Its window is one slot
//! deep in process and [`STUB_WINDOW`] slots deep behind stubs.
//!
//! The apps live in one [`Roster`] beside one AppVisor proxy (their stubs
//! and its stub-host pool) and one Crash-Pad. Every commit runs on the
//! [`CommitLane`], the one place network effects happen, in (event,
//! attach) position order.
//!
//! Determinism contract: a position's transaction ids are derived from
//! the position itself (`tx_base + pos * TXS_PER_POS + sub`), as the
//! reference derives them, and commits land in position order — so the
//! engine's residue (network state, txlog, stats, per-app delivery
//! order) is bit-identical to the single-threaded reference.

use crate::config::ResourceLimits;
use crate::host::{Host, ProxyAdapter};
use crate::runtime::{AppStatus, Feed, Pull, ResourceUsage, RuntimeStats};
use legosdn_appvisor::AppVisorProxy;
use legosdn_controller::app::Command;
use legosdn_controller::event::{Event, EventKind};
use legosdn_controller::sandbox::{panic_text, DeliverOutcome};
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_crashpad::{CompromisePolicy, CrashPad, DispatchResult, FailureKind, RecoverableApp};
use legosdn_invariants::shutdown_network;
use legosdn_netlog::{NetLog, Transaction, TxError, TxId};
use legosdn_netsim::{Network, SimTime};
use legosdn_obs::{AppId, Counter, Histogram, Obs, RecordKind, TraceId};
use legosdn_openflow::prelude::Message;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process;
use std::sync::Arc;
use std::time::Instant;

/// Transaction-id stride per commit position. Each (event, app) position
/// owns this many consecutive ids: sub 0 is the top-level transaction,
/// sub 1 the byzantine-recovery retry. Deriving ids from the position
/// gives every commit the id the reference (`reference.rs`) gives it.
pub const TXS_PER_POS: u64 = 4;

// The window's depth behind stubs is AppVisor's constant, which sizes
// the channel queues for it.
pub use legosdn_appvisor::STUB_WINDOW;

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

/// The attached apps, in attach order, and what reaches them: one
/// AppVisor proxy and one Crash-Pad.
pub(crate) struct Roster {
    pub(crate) proxy: AppVisorProxy,
    pub(crate) crashpad: CrashPad,
    pub(crate) apps: Vec<AppRecord>,
    /// Where a test makes the engine panic, in firing order.
    #[cfg(test)]
    pub(crate) faults: Vec<FaultPoint>,
}

/// A point in the engine's loop where a test can make it panic: what a
/// bug in the runtime's own code there would do.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultPoint {
    /// Filling: about to queue slot `slot` to app `local`.
    Fill { slot: usize, local: usize },
    /// Harvesting the slot at `commit_pos`: about to settle app `local`'s
    /// position.
    Harvest { commit_pos: usize, local: usize },
    /// On the lane, with transaction `tx` open and one command applied.
    Lane { tx: u64 },
    /// A lost engine's drain, about to start.
    Drain,
}

/// Panic if `at` is the next point armed on `roster`.
#[cfg(test)]
fn fault(roster: &mut Roster, at: FaultPoint) {
    if roster.faults.first() == Some(&at) {
        roster.faults.remove(0);
        panic!("injected fault at {at:?}");
    }
}

impl Roster {
    /// Reach one app behind the Crash-Pad, whatever hosts it: `f` gets
    /// the engine, the app as Crash-Pad sees it (the sandbox, or the stub
    /// through the proxy), and the app's record id and name.
    pub(crate) fn with_app<R>(
        &mut self,
        local: usize,
        f: impl FnOnce(&mut CrashPad, &mut dyn RecoverableApp, AppId, &str) -> R,
    ) -> R {
        let Roster {
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

/// The runtime-wide metric handles of the dispatch path, resolved once in
/// `LegoSdnRuntime::new` so an event costs atomic adds, not registry
/// lookups.
pub(crate) struct CoreMetrics {
    pub(crate) run_cycle: Arc<Histogram>,
    pub(crate) tick_apps: Arc<Histogram>,
    pub(crate) events_translated: Arc<Counter>,
    pub(crate) dispatches: Arc<Counter>,
    pub(crate) commands_executed: Arc<Counter>,
    window_fill: Arc<Histogram>,
    window_commit: Arc<Histogram>,
    window_queue_ns: Arc<Histogram>,
}

impl CoreMetrics {
    pub(crate) fn resolve(obs: &Obs) -> Self {
        CoreMetrics {
            run_cycle: obs.histogram("core", "run_cycle", ""),
            tick_apps: obs.histogram("core", "tick_apps", ""),
            events_translated: obs.counter("core", "events_translated", ""),
            dispatches: obs.counter("core", "dispatches", ""),
            commands_executed: obs.counter("core", "commands_executed", ""),
            window_fill: obs.histogram("core", "window_fill", ""),
            window_commit: obs.histogram("core", "window_commit", ""),
            window_queue_ns: obs.histogram("core", "window_queue_ns", ""),
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
    /// land in the right causal timeline.
    pub(crate) trace: Option<TraceId>,
}

/// One speculative in-flight (event, app) delivery to an isolated stub,
/// on its app's queue in [`Window`].
pub(crate) struct WindowEntry {
    /// The slot it delivers, counted from the start of the cycle.
    pub(crate) pos: usize,
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

/// The commit lane: the one place network effects happen. A panic on the
/// lane may leave a transaction open in `open`, and the lost engine's
/// drain aborts it before anything else commits.
pub(crate) struct CommitLane<'a> {
    pub(crate) net: &'a mut Network,
    pub(crate) netlog: &'a mut NetLog,
    /// The transaction being executed, from its begin to its commit.
    pub(crate) open: Option<Transaction>,
}

/// The runtime as seen while acting on one app: the roster plus the
/// stats sink and shared read-only policy knobs.
pub(crate) struct AppCtx<'a> {
    pub(crate) roster: &'a mut Roster,
    pub(crate) stats: &'a mut RuntimeStats,
    pub(crate) obs: &'a Obs,
    pub(crate) metrics: &'a CoreMetrics,
    pub(crate) shutdown_on_no_compromise: bool,
}

/// Subscription / status / event-budget gate for one app. Returns `true`
/// when the app should receive the event, charging the event to its
/// budget. The engine and the reference both use this, so selection (and
/// its suspension side effects) is identical across them.
pub(crate) fn select_app(cx: &mut AppCtx<'_>, local: usize, kind: EventKind) -> bool {
    let rec = &mut cx.roster.apps[local];
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

/// Settle one (event, app) position whose first transaction id is `tx`:
/// book the app's dispatch outcome — recovery counters, command-budget
/// suspension, app death — and commit what is left on the lane: its
/// commands in a NetLog transaction under the byzantine guard, or a
/// network shutdown. The engine and the reference both settle here, and
/// this is the one place a position's `commit` trace verdict is emitted.
/// Returns whether the commit was blocked as byzantine.
pub(crate) fn settle(
    cx: &mut AppCtx<'_>,
    lane: &mut CommitLane<'_>,
    local: usize,
    slot: &WindowSlot,
    result: DispatchResult,
    tx: TxId,
) -> bool {
    let (verdict, commands, recover) = match result {
        DispatchResult::Delivered(commands) => ("delivered", charge(cx, local, commands), true),
        DispatchResult::Recovered { commands, .. } => {
            cx.stats.failstop_recoveries += 1;
            cx.roster.apps[local].failstop_recoveries.inc();
            ("recovered", charge(cx, local, commands), false)
        }
        DispatchResult::AppDead { .. } => {
            mark_dead(cx, local);
            if shuts_network(cx, local, slot) {
                shutdown_network(lane.net);
            }
            ("app_dead", None, false)
        }
    };
    let id = cx.roster.apps[local].id;
    cx.obs.emit(Some(id), RecordKind::Step("commit", verdict));
    commands.is_some_and(|commands| execute_guarded(cx, lane, local, slot, commands, recover, tx))
}

/// The commands of one batch left to execute: none if it is empty, or if
/// it would overrun the app's command budget (which suspends the app and
/// counts the batch suppressed).
fn charge(cx: &mut AppCtx<'_>, local: usize, commands: Vec<Command>) -> Option<Vec<Command>> {
    if commands.is_empty() {
        return None;
    }
    let rec = &mut cx.roster.apps[local];
    if let Some(max) = rec.limits.max_commands {
        if rec.usage.commands_emitted + commands.len() as u64 > max {
            rec.status = AppStatus::Suspended("command budget exhausted");
            cx.stats.apps_suspended += 1;
            cx.stats.commands_suppressed += commands.len() as u64;
            return None;
        }
    }
    Some(commands)
}

/// Whether a failure of this app on this slot's event takes the network
/// down: its policy is No-Compromise and the runtime is configured to.
fn shuts_network(cx: &AppCtx<'_>, local: usize, slot: &WindowSlot) -> bool {
    let name = &cx.roster.apps[local].name;
    cx.shutdown_on_no_compromise
        && cx.roster.crashpad.policies.lookup(name, slot.event.kind())
            == CompromisePolicy::NoCompromise
}

/// Mark an app dead.
fn mark_dead(cx: &mut AppCtx<'_>, local: usize) {
    let rec = &mut cx.roster.apps[local];
    if rec.status != AppStatus::Dead {
        rec.status = AppStatus::Dead;
        cx.stats.apps_dead += 1;
    }
}

/// Execute an app's commands inside NetLog transaction `tx`, whose commit
/// is the byzantine gate. `recover` bounds the recursion: output from a
/// recovery path that is still byzantine is dropped, not re-recovered;
/// a recovered retry takes the next id. Ids are position-derived, so the
/// engine's txlog carries the reference's ids.
fn execute_guarded(
    cx: &mut AppCtx<'_>,
    lane: &mut CommitLane<'_>,
    local: usize,
    slot: &WindowSlot,
    commands: Vec<Command>,
    recover: bool,
    tx: TxId,
) -> bool {
    let txn = lane
        .open
        .insert(lane.netlog.begin_for_at(cx.roster.apps[local].id, tx));
    for c in &commands {
        #[cfg(test)]
        if txn.len() == 1 {
            fault(cx.roster, FaultPoint::Lane { tx: tx.0 });
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
            cx.roster.apps[local].byzantine_blocked.inc();
            if recover {
                let now = lane.net.now();
                let failure = FailureKind::Byzantine {
                    violations: check.violations.len(),
                };
                // Replay sees the views the event was dispatched with (the
                // windowed scheduler's translator has already advanced past
                // it by commit time).
                let result = cx.roster.with_app(local, |crashpad, app, id, name| {
                    let (event, topo, dev) = (&slot.event, &slot.topology, &slot.devices);
                    crashpad.recover(app, id, name, event, failure, topo, dev, now)
                });
                match result {
                    // Recovered output (a transformed event's; an ignored
                    // one's is empty) executes with recovery disabled.
                    DispatchResult::Recovered { commands, .. } => {
                        if let Some(commands) = charge(cx, local, commands) {
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
            cx.roster.apps[local].usage.commands_emitted += applied;
            false
        }
    }
}

/// The engine's buffers: the slots and one in-flight queue per app. The
/// runtime keeps them across cycles, so a cycle allocates none of them
/// anew; each cycle starts them empty.
#[derive(Default)]
pub(crate) struct Window {
    slots: VecDeque<WindowSlot>,
    /// Per app, indexed like the roster's `apps`: its stub's deliveries in
    /// flight, in the order its FIFO stream serves them. A queue's length
    /// is the app's in-flight count.
    inflight: Vec<VecDeque<WindowEntry>>,
}

/// One cycle of the dispatch engine (DESIGN.md §9), on the runtime
/// thread: a fill cursor queues deliveries to the isolated stubs up to
/// `depth` slots past the commit cursor, pulling the next raw off the
/// feed when the window runs short, and the commit cursor takes one
/// position at a time from harvest to commit, in (event, attach) order.
pub(crate) struct Engine<'a> {
    /// The slots the feed has yielded and the commit cursor has not
    /// passed: `slots[0]` is the commit cursor's.
    slots: &'a mut VecDeque<WindowSlot>,
    feed: &'a mut Feed,
    /// The feed has ended: nothing more to ask it for this cycle.
    fed_out: bool,
    d: Dispatch<'a>,
}

/// Everything an [`Engine`] acts with but its slots and their feed, so
/// a slot stays borrowed while this changes: the apps, the lane, the two
/// cursors and one in-flight queue per app.
struct Dispatch<'a> {
    cx: AppCtx<'a>,
    lane: CommitLane<'a>,
    depth: usize,
    /// First transaction id of the cycle (position 0, sub 0).
    tx_cycle_base: u64,
    /// Each app's stub entries in flight, by `pos`: a front entry whose
    /// `pos` is `commit_pos` is the commit cursor's.
    inflight: &'a mut [VecDeque<WindowEntry>],
    /// The next slot to send, counted from the start of the cycle.
    next_send: usize,
    /// The slot being committed, counted likewise.
    commit_pos: usize,
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        cx: AppCtx<'a>,
        lane: CommitLane<'a>,
        feed: &'a mut Feed,
        window: &'a mut Window,
        depth: usize,
        tx_cycle_base: u64,
    ) -> Self {
        let Window { slots, inflight } = window;
        // Apps attach between cycles.
        inflight.resize_with(cx.roster.apps.len(), VecDeque::new);
        Engine {
            slots,
            feed,
            fed_out: false,
            d: Dispatch {
                cx,
                lane,
                depth,
                tx_cycle_base,
                inflight,
                next_send: 0,
                commit_pos: 0,
            },
        }
    }

    /// Run the window over every app until the feed has ended and every
    /// slot it yielded is committed. A panic in the loop loses the engine
    /// ([`Engine::lose`]), and the loop runs again as its drain. A
    /// panic in the loss or the drain means the recovery path itself is
    /// broken and nothing is left to finish the cycle: the process
    /// aborts.
    pub(crate) fn run(mut self) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.run_loop())) {
            let drained = catch_unwind(AssertUnwindSafe(|| {
                self.lose(&panic_text(payload));
                #[cfg(test)]
                fault(self.d.cx.roster, FaultPoint::Drain);
                self.run_loop();
            }));
            if drained.is_err() {
                process::abort();
            }
        }
        self.d.cx.obs.trace_scope(None);
    }

    /// Book the engine as lost to a panic in its own loop: abort the
    /// transaction it left open on the lane, cancel its in-flight
    /// entries, and quarantine every app still running through Crash-Pad
    /// as [`FailureKind::WorkerLost`], whose verdict is always death. With
    /// no app running, the loop selects none, so every position it has
    /// left commits nothing: that is the drain.
    fn lose(&mut self, panic: &str) {
        let d = &mut self.d;
        if let Some(txn) = d.lane.open.take() {
            let _ = d.lane.netlog.abort(txn, d.lane.net);
        }
        // Deliveries sent but not yet harvested stay uncollected: their
        // apps are dead for good.
        for queue in d.inflight.iter_mut() {
            queue.clear();
        }
        let now = d.lane.net.now();
        let tick;
        let slot = match self.slots.front() {
            Some(slot) => slot,
            // No event was in hand: the engine lost its footing
            // translating the next one.
            None => {
                tick = WindowSlot {
                    event: Event::Tick(now),
                    topology: TopologyView::default(),
                    devices: DeviceView::default(),
                    now,
                    trace: None,
                };
                &tick
            }
        };
        d.cx.obs.trace_scope(slot.trace);
        let thread = std::thread::current();
        let panic_message = format!(
            "dispatch engine on thread {}: {panic}",
            thread.name().unwrap_or("<unnamed>")
        );
        for local in 0..d.cx.roster.apps.len() {
            if d.cx.roster.apps[local].status != AppStatus::Running {
                continue;
            }
            let failure = FailureKind::WorkerLost {
                panic_message: panic_message.clone(),
            };
            d.cx.roster.with_app(local, |crashpad, app, id, name| {
                let (event, topo, dev) = (&slot.event, &slot.topology, &slot.devices);
                crashpad.recover(app, id, name, event, failure, topo, dev, slot.now)
            });
            mark_dead(&mut d.cx, local);
        }
    }

    /// [`Engine::run`]'s loop.
    fn run_loop(&mut self) {
        loop {
            if !self.fed_out {
                self.fed_out = self.top_up();
            }
            // Topping up leaves a slot unless the feed has ended.
            if self.slots.is_empty() {
                return;
            }
            self.step();
        }
    }

    /// Pull raws off the feed until the window holds `depth` slots, and
    /// say whether the feed has ended. The engine translates just far
    /// enough to fill its window: a slot pins the views of its
    /// translation, and the next view change would have to copy them. An
    /// impure raw waits until every slot before it has committed, so the
    /// pull stops there and the commit cursor's slot is what comes next.
    fn top_up(&mut self) -> bool {
        while self.slots.len() < self.d.depth {
            let drained = self.slots.is_empty();
            let slots = &mut *self.slots;
            match self
                .feed
                .pull(self.d.lane.net, drained, |slot| slots.push_back(slot))
            {
                Pull::Fed => {}
                Pull::Drain => return false,
                Pull::End => return true,
            }
        }
        false
    }

    /// Queue deliveries for every slot inside the window, then commit the
    /// slot at the commit cursor and release it.
    fn step(&mut self) {
        let (slots, d) = (&*self.slots, &mut self.d);
        {
            let _span = d.cx.metrics.window_fill.start();
            let end = d.commit_pos + slots.len().min(d.depth);
            while d.next_send < end {
                d.send_slot(&slots[d.next_send - d.commit_pos]);
                d.next_send += 1;
            }
        }
        {
            let _span = d.cx.metrics.window_commit.start();
            d.commit_slot(slots);
        }
        d.commit_pos += 1;
        self.slots.pop_front();
    }
}

impl Dispatch<'_> {
    /// Speculatively select and queue one slot's deliveries to the
    /// isolated stubs (locals run inline at commit). Selection side
    /// effects (dispatch counters, event budgets, suspension) apply at
    /// send time and are rolled back entry-by-entry if a failure on an
    /// earlier slot cancels the entry.
    fn send_slot(&mut self, slot: &WindowSlot) {
        self.cx.obs.trace_scope(slot.trace);
        let kind = slot.event.kind();
        for local in 0..self.cx.roster.apps.len() {
            if !matches!(self.cx.roster.apps[local].host, Host::Isolated(_)) {
                continue;
            }
            #[cfg(test)]
            fault(
                self.cx.roster,
                FaultPoint::Fill {
                    slot: self.next_send,
                    local,
                },
            );
            if !select_app(&mut self.cx, local, kind) {
                continue;
            }
            self.queue_one(local, self.next_send, slot);
        }
    }

    /// Queue (snapshot-if-due, delivery) of slot `pos` for one selected
    /// stub app, onto the back of its in-flight queue. Snapshot due-ness
    /// is projected over the app's uncollected in-flight deliveries, its
    /// queue: a snapshot queued on the FIFO stream between deliveries *k*
    /// and *k+1* captures the state after *k* — exactly the pre-event
    /// checkpoint the sequential protocol takes.
    fn queue_one(&mut self, local: usize, pos: usize, slot: &WindowSlot) {
        let Roster {
            apps,
            crashpad,
            proxy,
            ..
        } = &mut *self.cx.roster;
        let rec = &apps[local];
        let Host::Isolated(handle) = rec.host else {
            unreachable!("windowed entries are stub-only");
        };
        let queue = &mut self.inflight[local];
        let snap = if crashpad
            .checkpoints
            .checkpoint_due_ahead(&rec.name, queue.len() as u64)
        {
            proxy.queue_snapshot(handle).ok().flatten()
        } else {
            None
        };
        let seq = proxy
            .queue_deliver(handle, &slot.event, &slot.topology, &slot.devices, slot.now)
            .ok()
            .flatten();
        queue.push_back(WindowEntry {
            pos,
            snap,
            seq,
            queued_at: Instant::now(),
        });
    }

    /// Commit the slot at the commit cursor, `slots[0]`: for each app in
    /// attach order, settle its position start to finish — a collected
    /// stub entry, an inline local-sandbox dispatch, or nothing at all —
    /// then repair the app's in-flight queue.
    fn commit_slot(&mut self, slots: &VecDeque<WindowSlot>) {
        let slot = &slots[0];
        self.cx.obs.trace_scope(slot.trace);
        let kind = slot.event.kind();
        let stride = self.cx.roster.apps.len();
        for local in 0..stride {
            #[cfg(test)]
            fault(
                self.cx.roster,
                FaultPoint::Harvest {
                    commit_pos: self.commit_pos,
                    local,
                },
            );
            let due = self.inflight[local].pop_front_if(|e| e.pos == self.commit_pos);
            let result = if let Some(entry) = due {
                self.harvest_entry(local, entry, slot)
            } else if matches!(self.cx.roster.apps[local].host, Host::Local(_))
                && select_app(&mut self.cx, local, kind)
            {
                // A local sandbox has no stub to overlap with: it runs
                // inline at commit, against the slot's captured views.
                self.deliver_local(local, slot)
            } else {
                continue;
            };
            let failed = !matches!(result, DispatchResult::Delivered(_));
            let running = self.cx.roster.apps[local].status == AppStatus::Running;
            let pos = (self.commit_pos * stride + local) as u64;
            let tx = TxId(self.tx_cycle_base + pos * TXS_PER_POS);
            let blocked = settle(&mut self.cx, &mut self.lane, local, slot, result, tx);
            let stopped = running && self.cx.roster.apps[local].status != AppStatus::Running;
            if matches!(self.cx.roster.apps[local].host, Host::Isolated(_))
                && (failed || blocked || stopped)
            {
                // The app's queued later deliveries ran from the wrong
                // state (restored mid-stream by a recovery or a byzantine
                // block), or sequential dispatch would not have made them
                // (the app stopped): drop them and re-select.
                self.requeue_app(local, slots);
                // The resend loop re-scoped the recorder to the refilled
                // slots; later positions still belong here.
                self.cx.obs.trace_scope(slot.trace);
            }
        }
    }

    /// Run one local-sandbox dispatch (checkpoint-if-due, deliver,
    /// gather/recover) against the slot's captured views.
    fn deliver_local(&mut self, local: usize, slot: &WindowSlot) -> DispatchResult {
        let obs = self.cx.obs;
        self.cx.roster.with_app(local, |crashpad, app, id, name| {
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

    /// Collect and gather app `local`'s in-flight entry for the commit
    /// cursor's slot: snapshot collect, delivery collect, and the
    /// Crash-Pad's completion/recovery. The app's later deliveries stay
    /// queued through a recovery: its restore is a later tag on the same
    /// FIFO stream, so their replies come first and are dropped as stale,
    /// and `commit_slot` requeues them once the position is settled.
    fn harvest_entry(
        &mut self,
        local: usize,
        entry: WindowEntry,
        slot: &WindowSlot,
    ) -> DispatchResult {
        let Roster {
            apps,
            crashpad,
            proxy,
            ..
        } = &mut *self.cx.roster;
        let Host::Isolated(handle) = apps[local].host else {
            unreachable!("windowed entries are stub-only");
        };

        // The snapshot queued before this delivery: collect and book it.
        // The recorded duration is the wait the proxy actually paid here —
        // near zero when the stub answered while the window was busy,
        // which is the cost this scheduler exists to hide.
        if let Some(tag) = entry.snap {
            let waited = Instant::now();
            if let Ok(bytes) = proxy.collect_snapshot(handle, tag) {
                let dur_ns = u64::try_from(waited.elapsed().as_nanos()).unwrap_or(u64::MAX);
                crashpad.record_prepared(apps[local].id, &apps[local].name, bytes.into(), dur_ns);
            }
        }

        let delivery = match entry.seq {
            Some(seq) => proxy
                .collect_deliver(handle, seq)
                .unwrap_or(DeliverOutcome::CommFailure),
            None => DeliverOutcome::CommFailure,
        };
        let queue_ns = u64::try_from(entry.queued_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.cx.metrics.window_queue_ns.observe(queue_ns);

        self.cx.roster.with_app(local, |crashpad, app, id, name| {
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

    /// Drop an app's in-flight entries beyond the commit cursor, rolling
    /// back their speculative selection, then re-run selection for every
    /// slot sent past the cursor (post-recovery state: a revived app is
    /// usually re-selected, a dead or suspended one is skipped and
    /// counted, just as sequential dispatch would) and queue fresh
    /// deliveries for the survivors.
    fn requeue_app(&mut self, local: usize, slots: &VecDeque<WindowSlot>) {
        let id = self.cx.roster.apps[local].id;
        while let Some(entry) = self.inflight[local].pop_front() {
            // Roll the speculative selection back. (The monotonic obs
            // dispatch counter keeps the cancelled send; RuntimeStats is
            // the determinism-bearing surface.)
            self.cx.stats.dispatches -= 1;
            self.cx.roster.apps[local].usage.events_consumed -= 1;
            // The cancellation belongs to the *cancelled* event's
            // timeline, not the failed one currently in scope.
            if let Some(tid) = slots[entry.pos - self.commit_pos].trace {
                let step = RecordKind::Step("cancel", "crash_upstream");
                self.cx.obs.emit_to(Some(tid), Some(id), step);
            }
        }
        for pos in self.commit_pos + 1..self.next_send {
            let slot = &slots[pos - self.commit_pos];
            // Re-queued work records into the re-sent event's trace.
            self.cx.obs.trace_scope(slot.trace);
            if !select_app(&mut self.cx, local, slot.event.kind()) {
                continue;
            }
            let step = RecordKind::Step("resend", "requeued");
            self.cx.obs.emit(Some(id), step);
            self.queue_one(local, pos, slot);
        }
    }
}
