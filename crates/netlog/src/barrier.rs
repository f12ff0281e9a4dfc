//! Cross-shard commit barrier (DESIGN.md §9).
//!
//! The worker-sharded runtime partitions apps across N workers, but the
//! network and the NetLog are shared, and the determinism contract says
//! the sharded runtime's output must be bit-identical to the sequential
//! reference. Every commit therefore carries a global *position* — the
//! index it would commit at under the sequential reference — and this
//! barrier admits commits in exactly that order. Each position is one of:
//!
//! - **Elided**: it produced no network transaction (the app was
//!   unselected, emitted nothing, or was cancelled). It is marked done
//!   without ever waiting.
//! - **Ordered**: its committer waits until the cursor reaches it, commits,
//!   and releases it.
//!
//! `acquire` at position *p* waits only for positions below *p*, so the
//! wait graph is acyclic and the barrier cannot deadlock.
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
//! **A poisoned lock is still a sound one.** Every critical section either
//! panics before it mutates the state (`acquire` of a position the cursor
//! has passed) or cannot panic at all, so a panic on one worker's thread
//! never leaves the state half-changed. Each lock therefore takes the
//! state back from a [`PoisonError`], as appvisor's `ParkLock` does, and
//! the other workers keep committing.

use legosdn_openflow::prelude::DatapathId;
use std::collections::BTreeSet;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A transaction's switch footprint, the argument of
/// [`CommitBarrier::declare`], which ignores it.
#[doc(hidden)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxTouch {
    Flows {
        dpids: Vec<DatapathId>,
        add_only: bool,
    },
}

/// Barrier counters, exported into obs by the runtime after each cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BarrierStats {
    /// Commits admitted when the cursor reached them.
    pub ordered_commits: u64,
    /// Positions finished without a transaction (no synchronization).
    pub elided_positions: u64,
}

#[derive(Debug, Default)]
struct State {
    /// Next position to commit in sequential order. Everything below is
    /// done.
    cursor: u64,
    /// Positions above the cursor that finished out of order.
    done: BTreeSet<u64>,
    /// Waiters asleep in `cv.wait` (see the wake rule in the module docs).
    sleepers: usize,
    stats: BarrierStats,
}

/// One cycle's commit-ordering barrier, shared by all worker shards. It
/// starts at position 0.
#[derive(Debug, Default)]
pub struct CommitBarrier {
    state: Mutex<State>,
    cv: Condvar,
}

impl CommitBarrier {
    /// [`CommitBarrier::default`]; the argument is ignored.
    #[doc(hidden)]
    #[must_use]
    pub fn new(_ignored: bool) -> Self {
        Self::default()
    }

    /// Does nothing: admission depends on the position alone.
    #[doc(hidden)]
    pub fn declare(&self, _pos: u64, _worker: usize, _touch: TxTouch) {}

    /// The state, whether or not a panicking holder poisoned the lock
    /// (sound by the module docs' argument).
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
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
        let mut st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        st.sleepers -= 1;
        st
    }

    /// Mark `pos` done without a transaction. Cursor advances see it
    /// immediately; the caller never waits. A position already done is
    /// left as it is: a lost shard's drain finishes every position of its
    /// own it reaches, whichever of them it had finished before it lost
    /// its footing.
    pub fn finish_empty(&self, pos: u64) {
        let mut st = self.lock();
        if Self::complete(&mut st, pos) {
            st.stats.elided_positions += 1;
        }
        self.wake(st);
    }

    /// Block until the cursor reaches `pos`: every earlier position is
    /// done, so committing now is the sequential order. The caller must
    /// call [`CommitBarrier::release`] afterwards.
    ///
    /// # Panics
    ///
    /// If the cursor has already passed `pos` — acquired twice, or after
    /// [`CommitBarrier::finish_empty`] — which would otherwise sleep
    /// forever. It panics before it changes anything.
    pub fn acquire(&self, pos: u64) {
        let mut st = self.lock();
        while st.cursor != pos {
            assert!(st.cursor < pos, "position {pos} acquired twice");
            st = self.sleep(st);
        }
        st.stats.ordered_commits += 1;
    }

    /// Mark `pos` committed and advance the cursor over every contiguous
    /// finished position.
    pub fn release(&self, pos: u64) {
        let mut st = self.lock();
        Self::complete(&mut st, pos);
        self.wake(st);
    }

    /// Mark `pos` done; whether it was not done already.
    fn complete(st: &mut State, pos: u64) -> bool {
        if pos < st.cursor {
            return false;
        }
        if pos > st.cursor {
            return st.done.insert(pos);
        }
        st.cursor += 1;
        while st.done.remove(&st.cursor) {
            st.cursor += 1;
        }
        true
    }

    /// Counters so far (the runtime exports them after each cycle).
    #[must_use]
    pub fn stats(&self) -> BarrierStats {
        self.lock().stats
    }

    /// The current cursor: every position below it is done. A worker
    /// topping up the window reads it, without blocking, to release the
    /// slots every worker is past and to learn whether the store has
    /// drained for an impure raw.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.lock().cursor
    }

    /// Block until the cursor advances past `prev` (i.e. becomes
    /// `> prev`), returning the new cursor. Every advance happens under
    /// the lock and wakes every sleeper (the wake rule in the module
    /// docs), so a caller that read `cursor() == prev`, found no other
    /// work, and then waits here cannot miss an advance.
    pub fn wait_cursor_past(&self, prev: u64) -> u64 {
        let mut st = self.lock();
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

    #[test]
    fn ordered_commits_advance_the_cursor_in_sequence() {
        let b = CommitBarrier::default();
        for pos in 0..4 {
            b.acquire(pos);
            b.release(pos);
        }
        assert_eq!(b.cursor(), 4);
        assert_eq!(b.stats().ordered_commits, 4);
    }

    #[test]
    fn elided_positions_let_later_positions_through() {
        let b = CommitBarrier::default();
        b.finish_empty(0);
        b.finish_empty(1);
        b.acquire(2);
        b.release(2);
        assert_eq!(b.stats().elided_positions, 2);
    }

    #[test]
    fn out_of_order_elision_still_advances_the_cursor() {
        let b = CommitBarrier::default();
        b.finish_empty(1);
        b.finish_empty(2);
        b.finish_empty(0); // cursor jumps 0 → 3
        assert_eq!(b.cursor(), 3);
        b.acquire(3);
        b.release(3);
    }

    #[test]
    fn a_later_position_waits_until_the_cursor_reaches_it() {
        let b = Arc::new(CommitBarrier::default());
        let order = Arc::new(AtomicUsize::new(0));
        let committed_second = {
            let (b, order) = (Arc::clone(&b), Arc::clone(&order));
            std::thread::spawn(move || {
                b.acquire(1);
                let seen = order.fetch_add(1, Ordering::SeqCst);
                b.release(1);
                seen
            })
        };
        // Let position 1's committer fall asleep on the cursor first.
        while b.lock().sleepers == 0 {
            std::thread::yield_now();
        }
        b.acquire(0);
        assert_eq!(order.fetch_add(1, Ordering::SeqCst), 0, "0 commits first");
        b.release(0);
        assert_eq!(committed_second.join().unwrap(), 1);
    }

    #[test]
    fn a_panic_under_the_lock_leaves_the_barrier_working() {
        let b = CommitBarrier::default();
        b.acquire(0);
        b.release(0);
        // Re-acquiring a released position panics while holding the lock,
        // which poisons it: a worker thread dying mid-commit.
        let again = std::thread::scope(|s| s.spawn(|| b.acquire(0)).join());
        assert!(again.is_err(), "a passed position was admitted again");
        assert!(b.state.is_poisoned());
        assert_eq!(b.cursor(), 1);
        b.finish_empty(2);
        b.acquire(1);
        b.release(1);
        assert_eq!(b.cursor(), 3);
        assert_eq!(
            b.stats(),
            BarrierStats {
                ordered_commits: 2,
                elided_positions: 1,
            }
        );
    }

    #[test]
    fn finishing_a_finished_position_again_changes_nothing() {
        let b = CommitBarrier::default();
        b.finish_empty(0);
        b.finish_empty(2);
        b.finish_empty(0); // passed by the cursor
        b.finish_empty(2); // waiting above it
        assert_eq!(b.cursor(), 1);
        b.acquire(1);
        b.release(1);
        b.finish_empty(2);
        b.finish_empty(1); // acquired and released
        assert_eq!(b.cursor(), 3);
        assert!(b.lock().done.is_empty(), "a stale done entry");
        assert_eq!(
            b.stats(),
            BarrierStats {
                ordered_commits: 1,
                elided_positions: 2,
            }
        );
    }

    #[test]
    fn threaded_shards_commit_every_position_exactly_once() {
        // 4 workers × 32 positions each, interleaved ownership, every 3rd
        // position elided: the cursor must reach the end and admissions
        // must sum to the position count.
        let b = Arc::new(CommitBarrier::default());
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
                    b.acquire(pos);
                    b.release(pos);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = b.stats();
        assert_eq!(s.elided_positions + s.ordered_commits, total);
        assert_eq!(b.cursor(), total);
    }

    const STRESS_POSITIONS: u64 = 120_000;

    /// `workers` threads own the positions round-robin, as shards do, and
    /// drive each through the barrier: about a third are elided, a sixth
    /// first sleep on the cursor as a worker waiting on the feed does,
    /// and the rest acquire and release. A fixed scramble of the position
    /// picks its path, so every local run of paths occurs. A waiter whose
    /// wake was skipped sleeps for good (nothing here times out), so the
    /// run has a hard deadline.
    fn lost_wake_stress(workers: u64) {
        let b = Arc::new(CommitBarrier::default());
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
                    b.acquire(pos);
                    b.release(pos);
                }
                done.send(()).unwrap();
            });
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        for _ in 0..workers {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            finished
                .recv_timeout(left)
                .unwrap_or_else(|_| panic!("{workers} workers: a waiter was never woken"));
        }
        assert_eq!(b.cursor(), STRESS_POSITIONS);
        let s = b.stats();
        assert_eq!(s.elided_positions + s.ordered_commits, STRESS_POSITIONS);
    }

    #[test]
    fn lost_wake_stress_two_workers_ordered() {
        lost_wake_stress(2);
    }

    #[test]
    fn lost_wake_stress_four_workers_ordered() {
        lost_wake_stress(4);
    }
}
