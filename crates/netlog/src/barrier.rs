//! Cross-shard commit barrier (DESIGN.md §9).
//!
//! The worker-sharded runtime partitions apps across N workers, but the
//! network and the NetLog are shared, and the determinism contract says
//! the sharded runtime's output must be bit-identical to the sequential
//! reference. Every commit therefore carries a global *position* — the
//! index it would commit at under the sequential reference — and this
//! barrier admits commits in one of three ways:
//!
//! - **Elided**: the position produced no network transaction at all (the
//!   app was unselected, emitted nothing, or was cancelled). It is marked
//!   done without ever synchronizing.
//! - **Ordered**: the default. The committer waits until the barrier
//!   cursor reaches its position — exactly the sequential order.
//! - **Fastpath**: a commit whose declared *touch* provably cannot be
//!   observed out of order — every command is a plain `FlowMod Add`
//!   (no buffered packet to forward, so nothing is enqueued onto the
//!   controller's event queue) and every earlier not-yet-done position is
//!   declared empty or touches a disjoint switch set. Such a commit goes
//!   ahead of the cursor; the transaction id is position-derived so the
//!   txlog still reads in sequential order.
//!
//! Declarations happen after the (slow) stub collect and before any
//! waiting, so `acquire` at position *p* only ever waits on strictly
//! smaller positions — the wait graph is acyclic and the barrier cannot
//! deadlock.
//!
//! **Wake rule** (DESIGN.md §11's park-aware rule). A condvar notify is a
//! futex syscall whether or not anyone waits, so the barrier counts its
//! sleepers and every state change notifies only when the count is
//! non-zero. The invariant: *a waiter is counted only while it holds the
//! lock or sleeps in `cv.wait`* — it increments the count under the lock
//! right before the wait releases it and decrements it on the way out.
//! A waiter that is not counted therefore holds the lock or has yet to
//! take it, and either way it checks the state again before it sleeps,
//! so a change that skipped its notify cannot strand it.
//!
//! Two hazards disable the fastpath outright:
//!
//! - an invariant [checker] inspects live network state at commit time,
//!   so even disjoint-switch commits become observable out of order —
//!   the runtime constructs the barrier with `fastpath_enabled = false`;
//! - a `FlowMod` with `send_flow_removed` installs notify-on-removal
//!   entries, and a later plain Add that *displaces* such an entry would
//!   enqueue a `FlowRemoved` event. Declaring one poisons the fastpath
//!   for the rest of the cycle, and the runtime keeps the poison sticky
//!   across cycles (table entries outlive the cycle that installed them).
//!
//! [checker]: ../legosdn_invariants/index.html

use legosdn_openflow::prelude::DatapathId;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Condvar, Mutex, MutexGuard};

/// What a transaction at some position will touch, declared before the
/// committer asks for admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxTouch {
    /// No network transaction at this position.
    Empty,
    /// Flow-table writes confined to `dpids`. `add_only` is true only
    /// when every command is a `FlowMod Add` with no buffered packet and
    /// no `send_flow_removed` flag — the class that provably enqueues no
    /// controller events and is therefore fastpath-eligible.
    Flows {
        dpids: Vec<DatapathId>,
        add_only: bool,
    },
    /// Anything else (PacketOut walks the fabric, stats reads, port
    /// mods): effects are not confined to a switch set, so the commit
    /// must run in order.
    Unknown,
}

impl TxTouch {
    fn dpids(&self) -> Option<&[DatapathId]> {
        match self {
            TxTouch::Flows { dpids, .. } => Some(dpids),
            _ => None,
        }
    }
}

/// How the barrier admitted a commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admitted at the cursor — sequential order.
    Ordered,
    /// Admitted ahead of the cursor: disjoint add-only commit.
    Fastpath,
}

/// Barrier counters, exported into obs by the runtime after each cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BarrierStats {
    /// Commits admitted ahead of the cursor.
    pub fastpath_commits: u64,
    /// Commits that waited for (or arrived at) the cursor.
    pub ordered_commits: u64,
    /// Positions finished without a transaction (no synchronization).
    pub elided_positions: u64,
    /// Declarations that touched a switch another worker had already
    /// declared this cycle — the contention the tentpole is about.
    pub shared_switch_conflicts: u64,
}

#[derive(Debug, Default)]
struct State {
    /// Next position to commit in sequential order. Everything below is
    /// done.
    cursor: u64,
    /// Positions at or above the cursor that finished out of order.
    done: BTreeSet<u64>,
    /// Declared, not-yet-done positions.
    declared: BTreeMap<u64, TxTouch>,
    /// First worker to declare each switch this cycle, for conflict
    /// accounting.
    owners: HashMap<DatapathId, usize>,
    /// A notify-on-removal flow was declared: plain Adds can no longer be
    /// proven event-silent, so the fastpath is off for the rest of the
    /// cycle.
    poisoned: bool,
    /// Waiters asleep in `cv.wait` (see the wake rule in the module docs).
    sleepers: usize,
    stats: BarrierStats,
}

/// One cycle's commit-ordering barrier, shared by all worker shards.
#[derive(Debug)]
pub struct CommitBarrier {
    state: Mutex<State>,
    cv: Condvar,
    fastpath_enabled: bool,
}

impl CommitBarrier {
    /// A barrier starting at position 0. `fastpath_enabled` must be false
    /// when an invariant checker observes live network state at commit
    /// time, or when notify-on-removal flow entries may already exist in
    /// the network (see the module docs).
    #[must_use]
    pub fn new(fastpath_enabled: bool) -> Self {
        CommitBarrier {
            state: Mutex::new(State::default()),
            cv: Condvar::new(),
            fastpath_enabled,
        }
    }

    /// Declare what the transaction at `pos` will touch. Must be called
    /// (or [`CommitBarrier::finish_empty`] instead) exactly once per
    /// position, before that position's [`CommitBarrier::acquire`] —
    /// other positions' fastpath eligibility waits on it.
    pub fn declare(&self, pos: u64, worker: usize, touch: TxTouch) {
        let mut st = self.state.lock().unwrap();
        if let Some(dpids) = touch.dpids() {
            let mut conflicted = false;
            for d in dpids {
                match st.owners.get(d) {
                    Some(&w) if w != worker => conflicted = true,
                    Some(_) => {}
                    None => {
                        st.owners.insert(*d, worker);
                    }
                }
            }
            if conflicted {
                st.stats.shared_switch_conflicts += 1;
            }
        }
        st.declared.insert(pos, touch);
        self.wake(st);
    }

    /// Poison the fastpath for the rest of the cycle: a declared command
    /// installs notify-on-removal entries, so a later plain Add could
    /// displace one and enqueue a `FlowRemoved` out of order.
    pub fn poison_fastpath(&self) {
        let mut st = self.state.lock().expect("commit barrier poisoned");
        st.poisoned = true;
        self.wake(st);
    }

    /// Release the lock after a state change, and wake the waiters if any
    /// is asleep.
    fn wake(&self, st: MutexGuard<'_, State>) {
        let sleeping = st.sleepers > 0;
        drop(st);
        if sleeping {
            self.cv.notify_all();
        }
    }

    /// Sleep until the next state change, counted as a sleeper meanwhile.
    fn sleep<'a>(&self, mut st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        st.sleepers += 1;
        let mut st = self.cv.wait(st).expect("commit barrier poisoned");
        st.sleepers -= 1;
        st
    }

    /// True once [`CommitBarrier::poison_fastpath`] has been called. The
    /// runtime reads it after each sharded cycle and keeps it sticky in
    /// its `notify_flows_seen`, which turns every later cycle's fastpath
    /// off (table entries outlive the cycle that installed them).
    #[must_use]
    pub fn poisoned(&self) -> bool {
        self.state.lock().unwrap().poisoned
    }

    /// Mark `pos` done without a transaction: declares it [`TxTouch::Empty`]
    /// and completes it in one step. Other workers' fastpath checks and
    /// cursor advances see it immediately; the caller never waits.
    pub fn finish_empty(&self, pos: u64) {
        let mut st = self.state.lock().unwrap();
        st.stats.elided_positions += 1;
        Self::complete(&mut st, pos);
        self.wake(st);
    }

    /// Block until the commit at `pos` may run. [`Admission::Ordered`]
    /// means the cursor reached `pos`; [`Admission::Fastpath`] means every
    /// earlier unfinished position is declared disjoint with this
    /// position's add-only switch set, so committing now is unobservable.
    ///
    /// The caller must have declared `pos` and must call
    /// [`CommitBarrier::release`] afterwards.
    pub fn acquire(&self, pos: u64) -> Admission {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.cursor == pos {
                st.stats.ordered_commits += 1;
                return Admission::Ordered;
            }
            debug_assert!(st.cursor < pos, "position {pos} acquired twice");
            if self.fastpath_enabled && !st.poisoned && Self::fastpath_ok(&st, pos) {
                st.stats.fastpath_commits += 1;
                return Admission::Fastpath;
            }
            st = self.sleep(st);
        }
    }

    /// True when `pos` is declared add-only and every position in
    /// `[cursor, pos)` is done, declared empty, or declared on a disjoint
    /// switch set.
    fn fastpath_ok(st: &State, pos: u64) -> bool {
        let Some(TxTouch::Flows { dpids, add_only }) = st.declared.get(&pos) else {
            return false;
        };
        if !add_only {
            return false;
        }
        for q in st.cursor..pos {
            if st.done.contains(&q) {
                continue;
            }
            match st.declared.get(&q) {
                Some(TxTouch::Empty) => {}
                Some(TxTouch::Flows { dpids: theirs, .. }) => {
                    if theirs.iter().any(|d| dpids.contains(d)) {
                        return false;
                    }
                }
                Some(TxTouch::Unknown) => return false,
                // Not yet declared: its collect is still in flight and we
                // cannot know what it touches.
                None => return false,
            }
        }
        true
    }

    /// Mark `pos` committed and advance the cursor over every contiguous
    /// finished position.
    pub fn release(&self, pos: u64) {
        let mut st = self.state.lock().unwrap();
        Self::complete(&mut st, pos);
        self.wake(st);
    }

    fn complete(st: &mut State, pos: u64) {
        st.declared.remove(&pos);
        if pos == st.cursor {
            st.cursor += 1;
            while st.done.remove(&st.cursor) {
                st.cursor += 1;
            }
        } else {
            st.done.insert(pos);
        }
    }

    /// Counters so far (the runtime exports them after each cycle).
    #[must_use]
    pub fn stats(&self) -> BarrierStats {
        self.state.lock().unwrap().stats
    }

    /// The current cursor: every position below it is done. A worker
    /// topping up the window reads it, without blocking, to release the
    /// slots every worker is past and to learn whether the store has
    /// drained for an impure raw.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.state.lock().unwrap().cursor
    }

    /// Block until the cursor advances past `prev` (i.e. becomes
    /// `> prev`), returning the new cursor. Every advance happens under
    /// the lock and wakes every sleeper (the wake rule in the module
    /// docs), so a caller that read `cursor() == prev`, found no other
    /// work, and then waits here cannot miss an advance.
    pub fn wait_cursor_past(&self, prev: u64) -> u64 {
        let mut st = self.state.lock().unwrap();
        while st.cursor <= prev {
            st = self.sleep(st);
        }
        st.cursor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn dp(d: u64) -> DatapathId {
        DatapathId(d)
    }

    fn adds(dpids: &[u64]) -> TxTouch {
        TxTouch::Flows {
            dpids: dpids.iter().copied().map(DatapathId).collect(),
            add_only: true,
        }
    }

    #[test]
    fn ordered_commits_advance_the_cursor_in_sequence() {
        let b = CommitBarrier::new(false);
        for pos in 0..4 {
            b.declare(pos, 0, TxTouch::Unknown);
            assert_eq!(b.acquire(pos), Admission::Ordered);
            b.release(pos);
        }
        let s = b.stats();
        assert_eq!(s.ordered_commits, 4);
        assert_eq!(s.fastpath_commits, 0);
    }

    #[test]
    fn elided_positions_let_later_positions_through() {
        let b = CommitBarrier::new(false);
        b.finish_empty(0);
        b.finish_empty(1);
        b.declare(2, 0, TxTouch::Unknown);
        assert_eq!(b.acquire(2), Admission::Ordered);
        b.release(2);
        assert_eq!(b.stats().elided_positions, 2);
    }

    #[test]
    fn out_of_order_elision_still_advances_the_cursor() {
        let b = CommitBarrier::new(false);
        b.finish_empty(1);
        b.finish_empty(2);
        b.declare(3, 0, TxTouch::Unknown);
        b.finish_empty(0); // cursor jumps 0 → 3
        assert_eq!(b.acquire(3), Admission::Ordered);
        b.release(3);
    }

    #[test]
    fn disjoint_add_only_commit_takes_the_fastpath() {
        let b = CommitBarrier::new(true);
        b.declare(0, 0, adds(&[1]));
        b.declare(1, 1, adds(&[2]));
        // Position 1 may pass position 0: both add-only, disjoint dpids.
        assert_eq!(b.acquire(1), Admission::Fastpath);
        b.release(1);
        assert_eq!(b.acquire(0), Admission::Ordered);
        b.release(0);
        // Cursor swallowed both: position 2 is immediately ordered.
        b.declare(2, 0, adds(&[1]));
        assert_eq!(b.acquire(2), Admission::Ordered);
        let s = b.stats();
        assert_eq!(s.fastpath_commits, 1);
        assert_eq!(s.ordered_commits, 2);
    }

    #[test]
    fn overlapping_switch_sets_block_the_fastpath() {
        let b = Arc::new(CommitBarrier::new(true));
        b.declare(0, 0, adds(&[1, 2]));
        b.declare(1, 1, adds(&[2]));
        let order = Arc::new(AtomicUsize::new(0));
        let committed_second = {
            let (b, order) = (Arc::clone(&b), Arc::clone(&order));
            std::thread::spawn(move || {
                // Same dpid 2 → must wait for position 0 to release.
                assert_eq!(b.acquire(1), Admission::Ordered);
                let seen = order.fetch_add(1, Ordering::SeqCst);
                b.release(1);
                seen
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(b.acquire(0), Admission::Ordered);
        assert_eq!(order.fetch_add(1, Ordering::SeqCst), 0, "0 commits first");
        b.release(0);
        assert_eq!(committed_second.join().unwrap(), 1);
        assert_eq!(b.stats().shared_switch_conflicts, 1);
    }

    #[test]
    fn undeclared_earlier_position_blocks_the_fastpath() {
        let b = Arc::new(CommitBarrier::new(true));
        // Position 0's collect is still in flight: nothing declared.
        b.declare(1, 1, adds(&[9]));
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let adm = b.acquire(1);
                b.release(1);
                adm
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(!waiter.is_finished(), "must wait for position 0's declare");
        b.declare(0, 0, adds(&[8]));
        // Now disjoint-and-declared: the waiter unblocks on the fastpath.
        assert_eq!(waiter.join().unwrap(), Admission::Fastpath);
    }

    #[test]
    fn non_add_commands_and_disabled_barriers_stay_ordered() {
        let b = CommitBarrier::new(true);
        b.declare(0, 0, TxTouch::Unknown);
        b.declare(
            1,
            1,
            TxTouch::Flows {
                dpids: vec![dp(9)],
                add_only: false,
            },
        );
        b.declare(2, 1, adds(&[9]));
        // Position 2 overlaps position 1 (not add-only) → ordered; and a
        // fastpath-disabled barrier never admits early regardless.
        assert_eq!(b.acquire(0), Admission::Ordered);
        b.release(0);
        assert_eq!(b.acquire(1), Admission::Ordered);
        b.release(1);
        assert_eq!(b.acquire(2), Admission::Ordered);
        b.release(2);

        let off = CommitBarrier::new(false);
        off.declare(0, 0, adds(&[1]));
        off.declare(1, 1, adds(&[2]));
        let t = {
            let done = Arc::new(AtomicUsize::new(0));
            let d2 = Arc::clone(&done);
            let off = Arc::new(off);
            let o2 = Arc::clone(&off);
            let h = std::thread::spawn(move || {
                o2.acquire(1);
                d2.store(1, Ordering::SeqCst);
                o2.release(1);
            });
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(done.load(Ordering::SeqCst), 0, "fastpath disabled");
            off.acquire(0);
            off.release(0);
            h
        };
        t.join().unwrap();
    }

    #[test]
    fn poison_turns_the_fastpath_off_for_the_cycle() {
        let b = CommitBarrier::new(true);
        b.declare(0, 0, adds(&[1]));
        b.declare(1, 1, adds(&[2]));
        b.poison_fastpath();
        assert!(b.poisoned());
        let b = Arc::new(b);
        let waiter = {
            let b = Arc::clone(&b);
            std::thread::spawn(move || {
                let adm = b.acquire(1);
                b.release(1);
                adm
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            !waiter.is_finished(),
            "poisoned barrier admits in order only"
        );
        b.acquire(0);
        b.release(0);
        assert_eq!(waiter.join().unwrap(), Admission::Ordered);
    }

    #[test]
    fn threaded_shards_commit_every_position_exactly_once() {
        // 4 workers × 32 positions each, interleaved ownership, every 3rd
        // position elided, shared dpid every 8th: the cursor must reach
        // the end and admissions must sum to the position count.
        let b = Arc::new(CommitBarrier::new(true));
        let total = 128u64;
        let workers = 4u64;
        let mut handles = Vec::new();
        for w in 0..workers {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for pos in (w..total).step_by(workers as usize) {
                    if pos % 3 == 0 {
                        b.finish_empty(pos);
                        continue;
                    }
                    let dpid = if pos % 8 == 0 { 1 } else { 100 + pos };
                    b.declare(
                        pos,
                        w as usize,
                        TxTouch::Flows {
                            dpids: vec![DatapathId(dpid)],
                            add_only: true,
                        },
                    );
                    b.acquire(pos);
                    b.release(pos);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = b.stats();
        assert_eq!(
            s.elided_positions + s.ordered_commits + s.fastpath_commits,
            total
        );
        // The cursor consumed everything: the next position is ordered
        // immediately.
        b.declare(total, 0, TxTouch::Unknown);
        assert_eq!(b.acquire(total), Admission::Ordered);
    }

    const STRESS_POSITIONS: u64 = 120_000;

    /// `workers` threads own the positions round-robin, as shards do, and
    /// drive each through the barrier: about a third are elided, a sixth
    /// first sleep on the cursor as a worker waiting on the feed does,
    /// and the rest declare, acquire and release. A fixed scramble of the
    /// position picks its path, so every local run of paths occurs. A
    /// waiter whose wake was skipped sleeps for good (nothing here times
    /// out), so the run has a hard deadline.
    fn lost_wake_stress(workers: u64, fastpath: bool) {
        let b = Arc::new(CommitBarrier::new(fastpath));
        let (done, finished) = std::sync::mpsc::channel();
        for w in 0..workers {
            let (b, done) = (Arc::clone(&b), done.clone());
            std::thread::spawn(move || {
                for pos in (w..STRESS_POSITIONS).step_by(workers as usize) {
                    let roll = pos.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58;
                    if roll < 21 {
                        b.finish_empty(pos);
                        continue;
                    }
                    if roll < 32 && pos > 0 {
                        b.wait_cursor_past(pos - 1);
                    }
                    let touch = if roll % 8 == 0 {
                        TxTouch::Unknown
                    } else {
                        adds(&[roll % 4])
                    };
                    b.declare(pos, w as usize, touch);
                    b.acquire(pos);
                    b.release(pos);
                }
                done.send(()).unwrap();
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        for _ in 0..workers {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            finished.recv_timeout(left).unwrap_or_else(|_| {
                panic!("{workers} workers, fastpath {fastpath}: a waiter was never woken")
            });
        }
        assert_eq!(b.cursor(), STRESS_POSITIONS);
        let s = b.stats();
        assert_eq!(
            s.elided_positions + s.ordered_commits + s.fastpath_commits,
            STRESS_POSITIONS
        );
    }

    #[test]
    fn lost_wake_stress_two_workers_ordered() {
        lost_wake_stress(2, false);
    }

    #[test]
    fn lost_wake_stress_two_workers_fastpath() {
        lost_wake_stress(2, true);
    }

    #[test]
    fn lost_wake_stress_four_workers_ordered() {
        lost_wake_stress(4, false);
    }

    #[test]
    fn lost_wake_stress_four_workers_fastpath() {
        lost_wake_stress(4, true);
    }
}
