//! The NetLog transaction engine (paper §3.2–§3.3).
//!
//! "The actions associated with any policy must be executed in an atomic
//! fashion, with all-or-nothing semantics. Failure of either an SDN-App or
//! an action generated by an SDN-App should trigger a network-wide
//! roll-back of all related actions of the concerned policy."
//!
//! Every command applies to the network as it arrives, and the engine
//! records its inverse (computed from the pre-state the switch reports) in
//! an undo log, so reads inside a transaction see its own writes. Abort
//! replays the undo log in reverse: a true network-wide rollback. A
//! transaction is one record — what it applied, its undo log, the flow
//! entries it touched — in vectors the engine hands from each finished
//! transaction to the next.
//!
//! An engine built with [`NetLog::with_checker`] also owns the byzantine guard
//! (§3.3: output that "violates network invariants, which can be detected
//! using policy checkers"): [`NetLog::commit`] checks the network a
//! state-altering transaction left behind, warm, and on a violation rolls
//! it back exactly as [`NetLog::abort`] does and returns
//! [`TxError::Blocked`]. Without a checker a commit seals what it is given.

use crate::counter_cache::CounterCache;
use legosdn_invariants::{CheckReport, CheckState, Checker};
use legosdn_netsim::{NetError, Network};
use legosdn_obs::{AppId, Counter, Obs, RecordKind};
use legosdn_openflow::inverse::{inverse_into, PreState};
use legosdn_openflow::messages::FlowModCommand;
use legosdn_openflow::prelude::{DatapathId, Match, Message};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Transaction execution mode. Apply-and-undo is the only one; the type
/// stays for callers outside this workspace that still name it.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxMode {
    /// Apply immediately, log inverses, roll back on abort.
    Immediate,
}

/// Transaction identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TxId(pub u64);

/// Transaction lifecycle state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxState {
    Open,
    Committed,
    Aborted,
}

/// One applied operation: its switch, and where its undo messages end in
/// the transaction's undo log. They begin where the previous operation's
/// end.
#[derive(Clone, Copy, Debug)]
struct Applied {
    dpid: DatapathId,
    undo_end: usize,
}

/// A flow entry an operation displaced — removed, overwrote or rewrote —
/// or created, with the counters it had then (zero for a created one).
#[derive(Clone, Debug)]
struct Touched {
    dpid: DatapathId,
    mat: Match,
    priority: u16,
    packets: u64,
    bytes: u64,
    /// No entry carries these counters on after the operation: it removed
    /// the entry, replaced it with a fresh one (an add over an identical
    /// entry), or created it. A modify rewrites an entry in place,
    /// counters and all.
    fresh: bool,
}

impl Touched {
    fn same_flow(&self, other: &Touched) -> bool {
        self.dpid == other.dpid && self.priority == other.priority && self.mat == other.mat
    }
}

/// What a transaction records as it runs, in vectors [`NetLog`] takes
/// back when the transaction finishes and hands to the next one it opens,
/// so a warm transaction allocates nothing for its own bookkeeping.
#[derive(Debug, Default)]
struct TxLog {
    applied: Vec<Applied>,
    /// Every operation's undo messages, oldest operation first, each
    /// operation's in the order they apply.
    undo: Vec<Message>,
    /// Every flow entry the operations displaced or created, in operation
    /// order: the counter-cache's input (paper §3.2).
    touched: Vec<Touched>,
}

impl TxLog {
    fn clear(&mut self) {
        self.applied.clear();
        self.undo.clear();
        self.touched.clear();
    }

    /// Note the entries a flow-mod displaced or created on `dpid`.
    fn touch(&mut self, dpid: DatapathId, msg: &Message, pre: &PreState) {
        let Message::FlowMod(fm) = msg else {
            return;
        };
        // An add displaces only an identical entry, and a modify that
        // matched nothing acts as an add: either created its entry when it
        // displaced nothing.
        let (flows, fresh, created) = match pre {
            PreState::DeletedFlows(flows) => (flows, true, false),
            PreState::DisplacedFlows(flows) => {
                (flows, fm.command == FlowModCommand::Add, flows.is_empty())
            }
            PreState::PortWasDown(_) => return,
        };
        self.touched.extend(flows.iter().map(|s| Touched {
            dpid,
            mat: s.mat.clone(),
            priority: s.priority,
            packets: s.packet_count,
            bytes: s.byte_count,
            fresh,
        }));
        if created {
            self.touched.push(Touched {
                dpid,
                mat: fm.mat.clone(),
                priority: fm.priority,
                packets: 0,
                bytes: 0,
                fresh: true,
            });
        }
    }
}

/// An in-flight transaction: one record of what it applied, what undoes
/// it and which flow entries it touched.
#[derive(Debug)]
pub struct Transaction {
    id: TxId,
    state: TxState,
    /// The app its journal records name, when opened for one.
    app: Option<AppId>,
    log: TxLog,
    /// Some executed command could alter network state, whether or not
    /// the network accepted it: what puts the commit under the guard.
    alters: bool,
    /// The id was chosen by the caller ([`NetLog::begin_at`]).
    pinned: bool,
}

impl Transaction {
    /// This transaction's id.
    #[must_use]
    pub fn id(&self) -> TxId {
        self.id
    }

    /// Lifecycle state.
    #[must_use]
    pub fn state(&self) -> TxState {
        self.state
    }

    /// Number of operations applied so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.log.applied.len()
    }

    /// True when no operations are applied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.log.applied.is_empty()
    }
}

/// Why an engine call failed.
#[derive(Clone, Debug, PartialEq)]
pub enum TxError {
    /// The transaction is not open.
    NotOpen(TxState),
    /// The network rejected an operation.
    Net(NetError),
    /// The guard found the committed state violating its invariants; the
    /// transaction was rolled back instead.
    Blocked(CheckReport),
}

impl fmt::Display for TxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxError::NotOpen(s) => write!(f, "transaction is {s:?}, not open"),
            TxError::Net(e) => write!(f, "network error: {e}"),
            TxError::Blocked(r) => write!(
                f,
                "blocked and rolled back: {} invariant violations",
                r.violations.len()
            ),
        }
    }
}

impl std::error::Error for TxError {}

/// Result of a commit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommitReport {
    pub ops_applied: usize,
}

/// Result of an abort/rollback.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RollbackReport {
    /// Operations undone.
    pub ops_rolled_back: usize,
    /// Undo messages applied to the network.
    pub undo_messages: usize,
    /// Undo messages the network rejected (should be zero; counted for
    /// diagnosis).
    pub undo_failures: usize,
}

/// Record of a finished transaction in the write-ahead log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxRecord {
    pub id: TxId,
    pub state: TxState,
    pub ops: usize,
}

/// Engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetLogStats {
    pub begun: u64,
    pub committed: u64,
    pub aborted: u64,
    pub ops_executed: u64,
    pub undo_messages_applied: u64,
}

/// The per-transaction metric handles, resolved once per [`Obs`] instance
/// so a transaction costs atomic adds, not registry lookups. The guard's
/// hit-ratio pair is resolved with or without a guard, so both series
/// exist from the moment an engine is handed an instance.
struct NetLogMetrics {
    txn_begun: Arc<Counter>,
    ops_executed: Arc<Counter>,
    inverse_ops_recorded: Arc<Counter>,
    txn_committed: Arc<Counter>,
    txn_aborted: Arc<Counter>,
    undo_messages: Arc<Counter>,
    counter_cache_hits: Arc<Counter>,
    pairs_reprobed: Arc<Counter>,
    pairs_reused: Arc<Counter>,
}

impl NetLogMetrics {
    fn resolve(obs: &Obs) -> Self {
        let counter = |name| obs.counter("netlog", name, "");
        NetLogMetrics {
            txn_begun: counter("txn_begun"),
            ops_executed: counter("ops_executed"),
            inverse_ops_recorded: counter("inverse_ops_recorded"),
            txn_committed: counter("txn_committed"),
            txn_aborted: counter("txn_aborted"),
            undo_messages: counter("undo_messages"),
            counter_cache_hits: counter("counter_cache_hits"),
            pairs_reprobed: obs.counter("invariants", "pairs_reprobed", ""),
            pairs_reused: obs.counter("invariants", "pairs_reused", ""),
        }
    }
}

/// The byzantine guard: the invariants a commit must keep, and the
/// checker's warm cache (DESIGN.md §13) for the network this engine
/// commits to. Whoever holds the engine holds it.
struct Guard {
    checker: Checker,
    state: CheckState,
}

/// The NetLog engine.
pub struct NetLog {
    next_id: u64,
    pub counter_cache: CounterCache,
    log: VecDeque<TxRecord>,
    log_capacity: usize,
    stats: NetLogStats,
    guard: Option<Guard>,
    obs: Obs,
    metrics: NetLogMetrics,
    /// The emptied record of the last finished transaction, for the next
    /// one to fill.
    spare: TxLog,
}

impl Default for NetLog {
    /// An engine without a guard.
    fn default() -> Self {
        NetLog::with_checker(None)
    }
}

impl NetLog {
    /// An engine without a guard. The mode is ignored: there is one.
    #[doc(hidden)]
    #[must_use]
    pub fn new(_mode: TxMode) -> Self {
        NetLog::default()
    }

    /// An engine whose every state-altering commit is checked against
    /// `checker`'s invariants (`None`: no guard), reporting to an
    /// [`Obs::disabled`] instance until [`NetLog::set_obs`] hands it one.
    #[must_use]
    pub fn with_checker(checker: Option<Checker>) -> Self {
        let obs = Obs::disabled();
        NetLog {
            next_id: 0,
            counter_cache: CounterCache::default(),
            log: VecDeque::new(),
            log_capacity: 65_536,
            stats: NetLogStats::default(),
            guard: checker.map(|checker| Guard {
                checker,
                state: CheckState::new(),
            }),
            metrics: NetLogMetrics::resolve(&obs),
            obs,
            spare: TxLog::default(),
        }
    }

    /// Report metrics and journal records to `obs`.
    pub fn set_obs(&mut self, obs: Obs) {
        self.metrics = NetLogMetrics::resolve(&obs);
        self.obs = obs;
    }

    /// Engine counters.
    #[must_use]
    pub fn stats(&self) -> NetLogStats {
        self.stats
    }

    /// The bounded write-ahead log of finished transactions.
    #[must_use]
    pub fn log(&self) -> &VecDeque<TxRecord> {
        &self.log
    }

    /// Open a transaction on the record the last finished one left.
    fn open(&mut self, id: TxId, pinned: bool) -> Transaction {
        self.stats.begun += 1;
        self.metrics.txn_begun.inc();
        Transaction {
            id,
            state: TxState::Open,
            app: None,
            log: std::mem::take(&mut self.spare),
            alters: false,
            pinned,
        }
    }

    /// Open a transaction.
    pub fn begin(&mut self) -> Transaction {
        self.next_id += 1;
        self.open(TxId(self.next_id), false)
    }

    /// Open a transaction on behalf of the app this engine's `Obs` knows
    /// as `app`: its commit or rollback record names the app, so the
    /// app's recovery timeline can claim it.
    pub fn begin_for(&mut self, app: &str) -> Transaction {
        let app = Some(self.obs.attach_app(app));
        Transaction {
            app,
            ..self.begin()
        }
    }

    /// Open a transaction with a caller-chosen id. The runtime derives ids
    /// from commit positions (DESIGN.md §9), so the engine's transactions
    /// carry the ids the sequential reference gives them. The id
    /// high-water mark advances past `id`, so later [`NetLog::begin`]
    /// calls never collide. Pinned transactions must finish in id order
    /// (the runtime commits in position order), so the log, which is in
    /// finishing order, reads in id order too.
    pub fn begin_at(&mut self, id: TxId) -> Transaction {
        self.next_id = self.next_id.max(id.0);
        self.open(id, true)
    }

    /// [`NetLog::begin_at`] on behalf of the app `Obs::attach_app` named
    /// `app`, as [`NetLog::begin_for`] is.
    pub fn begin_for_at(&mut self, app: AppId, id: TxId) -> Transaction {
        Transaction {
            app: Some(app),
            ..self.begin_at(id)
        }
    }

    /// Execute one command inside the transaction: apply it to the network
    /// now, recording its inverse. Returns the network's synchronous
    /// replies, so a read sees the transaction's own writes.
    pub fn execute(
        &mut self,
        tx: &mut Transaction,
        net: &mut Network,
        dpid: DatapathId,
        msg: &Message,
    ) -> Result<Vec<Message>, TxError> {
        if tx.state != TxState::Open {
            return Err(TxError::NotOpen(tx.state));
        }
        self.stats.ops_executed += 1;
        self.metrics.ops_executed.inc();
        tx.alters |= msg.alters_network_state();
        let outcome = net.apply(dpid, msg).map_err(TxError::Net)?;
        let log = &mut tx.log;
        let undo_start = log.undo.len();
        if let Some(pre) = &outcome.pre_state {
            inverse_into(msg, pre, &mut log.undo);
            log.touch(dpid, msg, pre);
        }
        let undo_end = log.undo.len();
        self.metrics
            .inverse_ops_recorded
            .add((undo_end - undo_start) as u64);
        log.applied.push(Applied { dpid, undo_end });
        Ok(outcome.replies)
    }

    /// Commit the transaction. Under a guard, a transaction that executed
    /// any state-altering command is checked first: on a violation it is
    /// rolled back as [`NetLog::abort`] would, and the check's report
    /// comes back as [`TxError::Blocked`]. Otherwise the log entry is
    /// sealed, every touched switch gets a barrier, so the all-or-nothing
    /// boundary is ordered on the wire, and the counter-cache forgets the
    /// baselines of flow entries the transaction removed or began afresh.
    pub fn commit(
        &mut self,
        mut tx: Transaction,
        net: &mut Network,
    ) -> Result<CommitReport, TxError> {
        if tx.state != TxState::Open {
            return Err(TxError::NotOpen(tx.state));
        }
        if let (true, Some(guard)) = (tx.alters, &mut self.guard) {
            let report = guard.state.check(&guard.checker, net);
            let reprobed = guard.state.last_reprobed();
            self.metrics.pairs_reprobed.add(reprobed as u64);
            self.metrics
                .pairs_reused
                .add((report.pairs_checked - reprobed) as u64);
            if !report.is_clean() {
                self.abort(tx, net)?;
                return Err(TxError::Blocked(report));
            }
        }
        let report = CommitReport {
            ops_applied: tx.log.applied.len(),
        };
        // One barrier per touched switch, ascending dpid: repeatedly pick
        // the smallest dpid above the last one served. A scan per distinct
        // switch, no buffer — transactions name a switch or two.
        let mut served: Option<DatapathId> = None;
        while let Some(dpid) = tx
            .log
            .applied
            .iter()
            .map(|op| op.dpid)
            .filter(|d| served.is_none_or(|s| *d > s))
            .min()
        {
            let _ = net.barrier(dpid);
            served = Some(dpid);
        }
        for t in tx.log.touched.iter().filter(|t| t.fresh) {
            self.flow_gone(t.dpid, &t.mat, t.priority);
        }
        tx.state = TxState::Committed;
        self.stats.committed += 1;
        self.metrics.txn_committed.inc();
        self.obs.emit(
            tx.app,
            RecordKind::TxnCommit {
                txn: tx.id.0,
                ops: report.ops_applied as u64,
            },
        );
        self.finish(tx, report.ops_applied);
        Ok(report)
    }

    /// Abort the transaction: roll the network back by applying the
    /// recorded inverses, the newest operation's first and each
    /// operation's in order. Every flow entry the rollback re-adds starts
    /// its counters afresh, so the counters it had before the transaction
    /// move into the counter-cache.
    pub fn abort(
        &mut self,
        mut tx: Transaction,
        net: &mut Network,
    ) -> Result<RollbackReport, TxError> {
        if tx.state != TxState::Open {
            return Err(TxError::NotOpen(tx.state));
        }
        let log = &tx.log;
        let mut report = RollbackReport::default();
        for (i, op) in log.applied.iter().enumerate().rev() {
            let undo_start = i
                .checked_sub(1)
                .map_or(0, |prev| log.applied[prev].undo_end);
            report.ops_rolled_back += 1;
            for undo in &log.undo[undo_start..op.undo_end] {
                report.undo_messages += 1;
                self.stats.undo_messages_applied += 1;
                match net.apply(op.dpid, undo) {
                    Ok(out) => {
                        if out.replies.iter().any(|m| matches!(m, Message::Error(_))) {
                            report.undo_failures += 1;
                        }
                    }
                    Err(_) => report.undo_failures += 1,
                }
            }
        }
        // The rollback leaves each flow entry as the first operation that
        // touched it found it: re-added with its counters then, or gone.
        for (i, t) in log.touched.iter().enumerate() {
            if (t.packets > 0 || t.bytes > 0) && !log.touched[..i].iter().any(|e| e.same_flow(t)) {
                self.counter_cache
                    .record(t.dpid, &t.mat, t.priority, t.packets, t.bytes);
            }
        }
        tx.state = TxState::Aborted;
        self.stats.aborted += 1;
        self.metrics.txn_aborted.inc();
        self.metrics.undo_messages.add(report.undo_messages as u64);
        self.obs.emit(
            tx.app,
            RecordKind::TxnRollback {
                txn: tx.id.0,
                undo_ops: report.undo_messages as u64,
            },
        );
        self.finish(tx, report.ops_rolled_back);
        Ok(report)
    }

    /// Append a finished transaction to the log, which is in finishing
    /// order, and keep its emptied record for the next one.
    fn finish(&mut self, mut tx: Transaction, ops: usize) {
        debug_assert!(
            !tx.pinned || self.log.back().is_none_or(|last| last.id < tx.id),
            "pinned transaction {:?} finished after {:?}",
            tx.id,
            self.log.back().map(|last| last.id)
        );
        if self.log.len() >= self.log_capacity {
            self.log.pop_front();
        }
        self.log.push_back(TxRecord {
            id: tx.id,
            state: tx.state,
            ops,
        });
        tx.log.clear();
        self.spare = tx.log;
    }

    /// Pass a switch's statistics reply through the counter-cache so
    /// restored flows report continuous counters.
    pub fn adjust_stats(
        &mut self,
        dpid: DatapathId,
        reply: &mut legosdn_openflow::messages::StatsReply,
    ) {
        let before = self.counter_cache.adjustments;
        self.counter_cache.adjust_stats_reply(dpid, reply);
        let hits = self.counter_cache.adjustments - before;
        if hits > 0 {
            self.metrics.counter_cache_hits.add(hits);
        }
    }

    /// Forget a flow's counter baseline: the flow expired, or a committed
    /// transaction removed it or began it afresh.
    pub fn flow_gone(&mut self, dpid: DatapathId, mat: &Match, priority: u16) {
        self.counter_cache.invalidate(dpid, mat, priority);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_netsim::{HostSpec, NetEvent, SimDuration, SimTime, Topology};
    use legosdn_openflow::prelude::*;

    fn net() -> Network {
        Network::new(&Topology::linear(2, 1))
    }

    fn flowmod(dst: u64, port: u16) -> Message {
        Message::FlowMod(
            FlowMod::add(Match::eth_dst(MacAddr::from_index(dst)))
                .action(Action::Output(PortNo::Phys(port))),
        )
    }

    fn table_len(net: &Network, d: u64) -> usize {
        net.switch(DatapathId(d)).unwrap().table().len()
    }

    #[test]
    fn immediate_execute_applies_now() {
        let mut nl = NetLog::default();
        let mut net = net();
        let mut tx = nl.begin();
        nl.execute(&mut tx, &mut net, DatapathId(1), &flowmod(9, 2))
            .unwrap();
        assert_eq!(table_len(&net, 1), 1);
        assert_eq!(tx.len(), 1);
        let report = nl.commit(tx, &mut net).unwrap();
        assert_eq!(report.ops_applied, 1);
        assert_eq!(table_len(&net, 1), 1);
    }

    #[test]
    fn immediate_abort_rolls_back_adds() {
        let mut nl = NetLog::default();
        let mut net = net();
        let mut tx = nl.begin();
        for i in 0..5 {
            nl.execute(&mut tx, &mut net, DatapathId(1), &flowmod(i, 2))
                .unwrap();
        }
        assert_eq!(table_len(&net, 1), 5);
        let report = nl.abort(tx, &mut net).unwrap();
        assert_eq!(report.ops_rolled_back, 5);
        assert_eq!(report.undo_failures, 0);
        assert_eq!(table_len(&net, 1), 0, "all adds undone");
    }

    #[test]
    fn immediate_abort_restores_deletes_with_timeouts() {
        let mut nl = NetLog::default();
        let mut net = net();
        // Pre-existing flow with a hard timeout, installed outside any tx.
        let fm = FlowMod::add(Match::eth_dst(MacAddr::from_index(1)))
            .hard_timeout(60)
            .action(Action::Output(PortNo::Phys(2)));
        net.apply(DatapathId(1), &Message::FlowMod(fm)).unwrap();
        net.tick(SimDuration::from_secs(18));
        // Transaction deletes it, then aborts.
        let mut tx = nl.begin();
        nl.execute(
            &mut tx,
            &mut net,
            DatapathId(1),
            &Message::FlowMod(FlowMod::delete(Match::any())),
        )
        .unwrap();
        assert_eq!(table_len(&net, 1), 0);
        nl.abort(tx, &mut net).unwrap();
        assert_eq!(table_len(&net, 1), 1);
        // The restored entry carries the REMAINING hard timeout (42s).
        let entry = net
            .switch(DatapathId(1))
            .unwrap()
            .table()
            .iter()
            .next()
            .unwrap()
            .clone();
        assert_eq!(entry.hard_timeout, 42);
        // It expires when the original would have: 18 + 42 = 60.
        net.tick(SimDuration::from_secs(41));
        assert_eq!(table_len(&net, 1), 1);
        net.tick(SimDuration::from_secs(1));
        assert_eq!(table_len(&net, 1), 0);
    }

    #[test]
    fn rollback_of_overwrite_restores_original_actions() {
        let mut nl = NetLog::default();
        let mut net = net();
        let m = Match::eth_dst(MacAddr::from_index(1));
        let original = FlowMod::add(m.clone())
            .priority(7)
            .action(Action::Output(PortNo::Phys(2)));
        net.apply(DatapathId(1), &Message::FlowMod(original))
            .unwrap();
        let mut tx = nl.begin();
        let overwrite = FlowMod::add(m.clone())
            .priority(7)
            .action(Action::Output(PortNo::Phys(3)));
        nl.execute(
            &mut tx,
            &mut net,
            DatapathId(1),
            &Message::FlowMod(overwrite),
        )
        .unwrap();
        nl.abort(tx, &mut net).unwrap();
        let entry = net
            .switch(DatapathId(1))
            .unwrap()
            .table()
            .iter()
            .next()
            .unwrap();
        assert_eq!(entry.actions, vec![Action::Output(PortNo::Phys(2))]);
        assert_eq!(table_len(&net, 1), 1);
    }

    #[test]
    fn counter_cache_populated_on_delete_and_adjusts_stats() {
        let mut nl = NetLog::default();
        let mut net = net();
        let host = net.hosts()[0].clone();
        // Install a flow and push traffic through it.
        let m = Match::eth_dst(MacAddr::from_index(99));
        let fm = FlowMod::add(m.clone()).action(Action::Output(PortNo::Phys(1)));
        net.apply(host.attach.dpid, &Message::FlowMod(fm)).unwrap();
        let pkt = Packet::ethernet(host.mac, MacAddr::from_index(99));
        for _ in 0..10 {
            net.inject(host.mac, pkt.clone()).unwrap();
        }
        // Delete inside a tx, then roll back.
        let mut tx = nl.begin();
        nl.execute(
            &mut tx,
            &mut net,
            host.attach.dpid,
            &Message::FlowMod(FlowMod::delete(m.clone())),
        )
        .unwrap();
        nl.abort(tx, &mut net).unwrap();
        // The restored entry's raw counters are zero...
        let entry = net
            .switch(host.attach.dpid)
            .unwrap()
            .table()
            .iter()
            .next()
            .unwrap();
        assert_eq!(entry.packet_count, 0);
        // ...but stats replies through NetLog are continuous.
        let out = net
            .apply(
                host.attach.dpid,
                &Message::StatsRequest(StatsRequest::Flow {
                    mat: Match::any(),
                    out_port: PortNo::None,
                }),
            )
            .unwrap();
        let mut reply = match &out.replies[0] {
            Message::StatsReply(sr) => sr.clone(),
            other => panic!("unexpected {other:?}"),
        };
        nl.adjust_stats(host.attach.dpid, &mut reply);
        match reply {
            StatsReply::Flow(flows) => {
                assert_eq!(flows.len(), 1);
                assert_eq!(flows[0].packet_count, 10, "baseline folded in");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A flow on the first host's switch with ten packets through it, the
    /// host, and the flow's match.
    fn flow_with_traffic(net: &mut Network) -> (HostSpec, Match) {
        let host = net.hosts()[0].clone();
        let m = Match::eth_dst(MacAddr::from_index(99));
        let fm = FlowMod::add(m.clone()).action(Action::Output(PortNo::Phys(1)));
        net.apply(host.attach.dpid, &Message::FlowMod(fm)).unwrap();
        let pkt = Packet::ethernet(host.mac, MacAddr::from_index(99));
        for _ in 0..10 {
            net.inject(host.mac, pkt.clone()).unwrap();
        }
        (host, m)
    }

    /// The packet count of the flow on `m`, as NetLog reports it.
    fn reported_packets(nl: &mut NetLog, net: &mut Network, dpid: DatapathId, m: &Match) -> u64 {
        let out = net
            .apply(
                dpid,
                &Message::StatsRequest(StatsRequest::Flow {
                    mat: m.clone(),
                    out_port: PortNo::None,
                }),
            )
            .unwrap();
        let Some(Message::StatsReply(mut reply)) = out.replies.into_iter().next() else {
            panic!("no stats reply");
        };
        nl.adjust_stats(dpid, &mut reply);
        match reply {
            StatsReply::Flow(flows) => {
                assert_eq!(flows.len(), 1);
                flows[0].packet_count
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_committed_delete_leaves_no_baseline_for_a_fresh_flow() {
        let mut nl = NetLog::default();
        let mut net = net();
        let (host, m) = flow_with_traffic(&mut net);
        let dpid = host.attach.dpid;
        // An earlier rollback left the flow a baseline of its own.
        let mut tx = nl.begin();
        nl.execute(
            &mut tx,
            &mut net,
            dpid,
            &Message::FlowMod(FlowMod::delete(m.clone())),
        )
        .unwrap();
        nl.abort(tx, &mut net).unwrap();
        assert_eq!(reported_packets(&mut nl, &mut net, dpid, &m), 10);
        // Deleted for real, then installed afresh: nothing carries over.
        let mut tx = nl.begin();
        nl.execute(
            &mut tx,
            &mut net,
            dpid,
            &Message::FlowMod(FlowMod::delete(m.clone())),
        )
        .unwrap();
        nl.commit(tx, &mut net).unwrap();
        let fm = FlowMod::add(m.clone()).action(Action::Output(PortNo::Phys(1)));
        net.apply(dpid, &Message::FlowMod(fm)).unwrap();
        assert_eq!(reported_packets(&mut nl, &mut net, dpid, &m), 0);
        assert!(nl.counter_cache.is_empty());
    }

    #[test]
    fn a_rolled_back_modify_keeps_the_flows_counters() {
        let mut nl = NetLog::default();
        let mut net = net();
        let (host, m) = flow_with_traffic(&mut net);
        let dpid = host.attach.dpid;
        let mut modify = FlowMod::add(m.clone()).action(Action::Output(PortNo::Phys(2)));
        modify.command = FlowModCommand::ModifyStrict;
        let overwrite = FlowMod::add(m.clone()).action(Action::Output(PortNo::Phys(2)));
        for msg in [modify, overwrite] {
            let mut tx = nl.begin();
            nl.execute(&mut tx, &mut net, dpid, &Message::FlowMod(msg))
                .unwrap();
            nl.abort(tx, &mut net).unwrap();
            assert_eq!(reported_packets(&mut nl, &mut net, dpid, &m), 10);
        }
        // A flow touched twice in one transaction is restored as the
        // first touch found it: one baseline, not two.
        let mut tx = nl.begin();
        for msg in [
            FlowMod::add(m.clone()).action(Action::Output(PortNo::Phys(3))),
            FlowMod::delete(m.clone()),
        ] {
            nl.execute(&mut tx, &mut net, dpid, &Message::FlowMod(msg))
                .unwrap();
        }
        nl.abort(tx, &mut net).unwrap();
        assert_eq!(reported_packets(&mut nl, &mut net, dpid, &m), 10);
        // A flow the transaction created leaves no baseline behind, even
        // one a packet hit before the transaction deleted it again.
        let fresh = Match::eth_dst(MacAddr::from_index(98));
        net.poll_events();
        net.inject(
            host.mac,
            Packet::ethernet(host.mac, MacAddr::from_index(98)),
        )
        .unwrap();
        let buffer_id = net
            .poll_events()
            .into_iter()
            .find_map(|e| match e {
                NetEvent::FromSwitch(_, Message::PacketIn(pi)) => Some(pi.buffer_id),
                _ => None,
            })
            .expect("a miss is buffered");
        let mut add = FlowMod::add(fresh.clone()).action(Action::Output(PortNo::Phys(1)));
        add.buffer_id = buffer_id;
        let priority = add.priority;
        let mut tx = nl.begin();
        for msg in [add, FlowMod::delete(fresh.clone())] {
            nl.execute(&mut tx, &mut net, dpid, &Message::FlowMod(msg))
                .unwrap();
        }
        nl.abort(tx, &mut net).unwrap();
        assert_eq!(nl.counter_cache.baseline(dpid, &fresh, priority), None);
    }

    #[test]
    fn commit_and_rollback_records_carry_their_app() {
        let mut nl = NetLog::default();
        let mut net = net();
        let obs = Obs::new();
        nl.set_obs(obs.clone());
        let writer = obs.attach_app("writer");
        let tx = nl.begin_for("writer");
        nl.commit(tx, &mut net).unwrap();
        let tx = nl.begin_for_at(writer, TxId(9));
        nl.abort(tx, &mut net).unwrap();
        let tx = nl.begin();
        nl.commit(tx, &mut net).unwrap();
        let apps: Vec<_> = obs.records().iter().map(|r| r.app).collect();
        assert_eq!(apps, vec![Some(writer), Some(writer), None]);
        assert!(matches!(
            obs.records()[1].kind,
            RecordKind::TxnRollback { txn: 9, .. }
        ));
    }

    #[test]
    fn a_finished_record_is_the_next_ones() {
        let mut nl = NetLog::default();
        let mut net = net();
        let mut tx = nl.begin();
        for i in 0..6 {
            nl.execute(&mut tx, &mut net, DatapathId(1), &flowmod(i, 2))
                .unwrap();
        }
        let held = (
            tx.log.applied.as_ptr(),
            tx.log.undo.as_ptr(),
            tx.log.touched.as_ptr(),
        );
        nl.abort(tx, &mut net).unwrap();
        let mut tx = nl.begin();
        assert!(tx.is_empty() && tx.log.undo.is_empty() && tx.log.touched.is_empty());
        nl.execute(&mut tx, &mut net, DatapathId(2), &flowmod(1, 2))
            .unwrap();
        assert_eq!(
            (
                tx.log.applied.as_ptr(),
                tx.log.undo.as_ptr(),
                tx.log.touched.as_ptr()
            ),
            held
        );
        nl.commit(tx, &mut net).unwrap();
        assert_eq!((table_len(&net, 1), table_len(&net, 2)), (0, 1));
    }

    #[test]
    fn finished_tx_rejects_operations() {
        let mut nl = NetLog::default();
        let mut net = net();
        let tx = nl.begin();
        let id = tx.id();
        nl.commit(tx, &mut net).unwrap();
        // A new tx gets a fresh id.
        let tx2 = nl.begin();
        assert!(tx2.id() > id);
    }

    #[test]
    fn wal_records_lifecycle() {
        let mut nl = NetLog::default();
        let mut net = net();
        let mut tx = nl.begin();
        nl.execute(&mut tx, &mut net, DatapathId(1), &flowmod(1, 2))
            .unwrap();
        nl.commit(tx, &mut net).unwrap();
        let tx = nl.begin();
        nl.abort(tx, &mut net).unwrap();
        let log: Vec<_> = nl.log().iter().collect();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].state, TxState::Committed);
        assert_eq!(log[1].state, TxState::Aborted);
        assert_eq!(nl.stats().committed, 1);
        assert_eq!(nl.stats().aborted, 1);
    }

    #[test]
    fn begin_at_pins_ids_and_the_high_water_mark() {
        let mut nl = NetLog::default();
        let mut net = net();
        let t5 = nl.begin_at(TxId(5));
        assert_eq!(t5.id(), TxId(5));
        nl.commit(t5, &mut net).unwrap();
        let t7 = nl.begin_for_at(nl.obs.attach_app("writer"), TxId(7));
        nl.abort(t7, &mut net).unwrap();
        let t9 = nl.begin_at(TxId(9));
        nl.commit(t9, &mut net).unwrap();
        let ids: Vec<u64> = nl.log().iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![5, 7, 9]);
        // The high-water mark advanced past the largest pinned id.
        assert!(nl.begin().id() > TxId(9));
        assert_eq!(nl.stats().begun, 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "finished after")]
    fn a_pinned_id_finishing_below_the_last_logged_one_trips_the_debug_check() {
        let mut nl = NetLog::default();
        let mut net = net();
        let t9 = nl.begin_at(TxId(9));
        let t5 = nl.begin_at(TxId(5));
        nl.commit(t9, &mut net).unwrap();
        let _ = nl.commit(t5, &mut net);
    }

    #[test]
    fn portmod_rolls_back() {
        let mut nl = NetLog::default();
        let mut net = net();
        let hw = net
            .switch(DatapathId(1))
            .unwrap()
            .port(1)
            .unwrap()
            .desc
            .hw_addr;
        let mut tx = nl.begin();
        let pm = Message::PortMod(PortMod {
            port_no: PortNo::Phys(1),
            hw_addr: hw,
            down: true,
        });
        nl.execute(&mut tx, &mut net, DatapathId(1), &pm).unwrap();
        assert!(
            net.switch(DatapathId(1))
                .unwrap()
                .port(1)
                .unwrap()
                .desc
                .config_down
        );
        nl.abort(tx, &mut net).unwrap();
        assert!(
            !net.switch(DatapathId(1))
                .unwrap()
                .port(1)
                .unwrap()
                .desc
                .config_down
        );
    }

    #[test]
    fn multi_switch_rollback_is_network_wide() {
        let mut nl = NetLog::default();
        let mut net = net();
        let mut tx = nl.begin();
        nl.execute(&mut tx, &mut net, DatapathId(1), &flowmod(1, 2))
            .unwrap();
        nl.execute(&mut tx, &mut net, DatapathId(2), &flowmod(1, 2))
            .unwrap();
        nl.execute(&mut tx, &mut net, DatapathId(1), &flowmod(2, 2))
            .unwrap();
        nl.abort(tx, &mut net).unwrap();
        assert_eq!(table_len(&net, 1), 0);
        assert_eq!(table_len(&net, 2), 0);
    }

    #[test]
    fn ephemeral_messages_produce_no_undo() {
        let mut nl = NetLog::default();
        let mut net = net();
        let host = net.hosts()[0].clone();
        let mut tx = nl.begin();
        let po = Message::PacketOut(PacketOut {
            buffer_id: BufferId::NONE,
            in_port: PortNo::None,
            actions: vec![Action::Output(PortNo::Phys(host.attach.port))],
            packet: Some(Packet::ethernet(MacAddr::from_index(5), host.mac)),
        });
        nl.execute(&mut tx, &mut net, host.attach.dpid, &po)
            .unwrap();
        let report = nl.abort(tx, &mut net).unwrap();
        assert_eq!(report.ops_rolled_back, 1);
        assert_eq!(report.undo_messages, 0, "packet-out is ephemeral");
        // The delivered packet is, correctly, not recalled.
        assert_eq!(net.delivery_counters().0, 1);
        let _ = SimTime::ZERO;
    }

    /// A seeded mix of committed and aborted transactions of 0–3 adds and
    /// deletes over both switches.
    fn drive(nl: &mut NetLog, net: &mut Network, seed: u64, txns: usize) {
        let mut rng = legosdn_testkit::Rng::seed_from_u64(seed);
        for _ in 0..txns {
            let mut tx = nl.begin_for("app");
            for _ in 0..rng.gen_range(0..4u32) {
                let dst = rng.gen_range(0..6u64);
                let msg = if rng.gen_bool(0.25) {
                    Message::FlowMod(FlowMod::delete(Match::eth_dst(MacAddr::from_index(dst))))
                } else {
                    flowmod(dst, 2)
                };
                let dpid = DatapathId(rng.gen_range(1..3u64));
                nl.execute(&mut tx, net, dpid, &msg).unwrap();
            }
            if rng.gen_bool(0.3) {
                nl.abort(tx, net).unwrap();
            } else {
                nl.commit(tx, net).unwrap();
            }
        }
    }

    /// The registry series that mirror a [`NetLogStats`] field.
    fn series(obs: &Obs) -> NetLogStats {
        let get = |name| obs.counter("netlog", name, "").get();
        NetLogStats {
            begun: get("txn_begun"),
            committed: get("txn_committed"),
            aborted: get("txn_aborted"),
            ops_executed: get("ops_executed"),
            undo_messages_applied: get("undo_messages"),
        }
    }

    /// Pass `n` aggregate replies from a switch the counter cache holds a
    /// baseline for through the engine: one cache hit each.
    fn adjust(nl: &mut NetLog, n: u64) {
        nl.counter_cache
            .record(DatapathId(1), &Match::any(), 0, 1, 1);
        for _ in 0..n {
            let mut reply = StatsReply::Aggregate {
                packet_count: 0,
                byte_count: 0,
                flow_count: 0,
            };
            nl.adjust_stats(DatapathId(1), &mut reply);
        }
    }

    fn cache_hits(obs: &Obs) -> u64 {
        obs.counter("netlog", "counter_cache_hits", "").get()
    }

    #[test]
    fn handles_count_what_stats_count_and_follow_set_obs() {
        let mut net = net();
        let mut nl = NetLog::default();
        let first = Obs::new();
        nl.set_obs(first.clone());
        drive(&mut nl, &mut net, 7, 200);
        adjust(&mut nl, 3);
        let at_switch = nl.stats();
        assert_eq!(series(&first), at_switch);
        assert!(at_switch.aborted > 0 && at_switch.undo_messages_applied > 0);
        assert!(first.counter("netlog", "inverse_ops_recorded", "").get() > 0);
        assert_eq!(cache_hits(&first), 3);

        // A fresh instance counts from zero; the old one stops.
        let second = Obs::new();
        nl.set_obs(second.clone());
        let lookups = second.registry_lookups();
        drive(&mut nl, &mut net, 11, 200);
        adjust(&mut nl, 2);
        assert_eq!(
            second.registry_lookups(),
            lookups,
            "no by-name lookup per transaction or stats reply"
        );
        assert_eq!(series(&first), at_switch);
        assert_eq!(cache_hits(&first), 3);
        assert_eq!(cache_hits(&second), 2);
        let total = nl.stats();
        let since = series(&second);
        assert_eq!(since.begun, total.begun - at_switch.begun);
        assert_eq!(since.committed, total.committed - at_switch.committed);
        assert_eq!(since.aborted, total.aborted - at_switch.aborted);
        assert_eq!(
            since.ops_executed,
            total.ops_executed - at_switch.ops_executed
        );
        assert_eq!(
            since.undo_messages_applied,
            total.undo_messages_applied - at_switch.undo_messages_applied
        );
    }
}
