//! A commit-order cursor, kept for callers outside this workspace.
//!
//! The runtime commits on one thread in (event, attach) position order
//! (DESIGN.md §9), so nothing in the workspace waits on a commit order.
//! Only the benchmark's `netlog.barrier_ns_per_pos` probe calls this, and
//! it goes when the benchmark stops measuring it.

use legosdn_openflow::prelude::DatapathId;
use std::cell::Cell;

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

/// A single-threaded position cursor: a commit at position *p* is
/// admitted when no position at or above *p* has committed yet, and
/// skipping positions is free. It starts at position 0.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct CommitBarrier {
    /// Next position that may commit. Everything below is done.
    cursor: Cell<u64>,
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

    /// Admit a commit at `pos`. The caller calls
    /// [`CommitBarrier::release`] afterwards.
    ///
    /// # Panics
    ///
    /// If the cursor has already passed `pos`: a position committed
    /// twice, or out of order.
    pub fn acquire(&self, pos: u64) {
        assert!(self.cursor.get() <= pos, "position {pos} acquired twice");
    }

    /// Mark `pos` committed: the cursor moves past it.
    pub fn release(&self, pos: u64) {
        self.cursor.set(pos + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_commits_advance_the_cursor_in_sequence() {
        let b = CommitBarrier::default();
        for pos in 0..4 {
            b.acquire(pos);
            b.release(pos);
        }
        assert_eq!(b.cursor.get(), 4);
    }

    #[test]
    fn elided_positions_let_later_positions_through() {
        // Positions 0 and 1 commit nothing: 2 is admitted at once.
        let b = CommitBarrier::new(true);
        b.acquire(2);
        b.release(2);
        assert_eq!(b.cursor.get(), 3);
        let passed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.acquire(1)));
        assert!(passed.is_err(), "a passed position was admitted");
    }
}
