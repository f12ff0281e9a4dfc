//! Bounded ring-buffer journal of structured recovery-lifecycle records.
//!
//! Every record carries a monotonic sequence number (assigned under the
//! ring lock, so sequence order equals journal order) and a timestamp in
//! nanoseconds relative to the owning `Obs`'s start instant. The journal is
//! the raw material the [`crate::timeline`] reconstructor stitches into
//! per-incident reports.

use std::collections::VecDeque;
use std::sync::Mutex;

/// What happened. App-scoped kinds name the app; transaction kinds name
/// the NetLog transaction id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// An app panicked while handling an event (fail-stop detection).
    AppCrash { app: String, detail: String },
    /// The proxy lost contact with an app's stub (timeout / disconnect).
    CommFailure { app: String },
    /// The invariant checker vetoed an app's commands.
    ByzantineBlocked { app: String, violations: u64 },
    /// A liveness sweep found an app's heartbeat stale.
    HeartbeatMiss { app: String },
    /// Crash-Pad serialized an app snapshot.
    CheckpointTaken {
        app: String,
        bytes: u64,
        dur_ns: u64,
    },
    /// Crash-Pad restored an app from its last snapshot.
    CheckpointRestored {
        app: String,
        bytes: u64,
        dur_ns: u64,
    },
    /// Post-restore event replay finished.
    ReplayDone {
        app: String,
        events_replayed: u64,
        dur_ns: u64,
    },
    /// A NetLog transaction opened.
    TxnBegin { txn: u64, app: String },
    /// A NetLog transaction committed.
    TxnCommit { txn: u64, ops: u64 },
    /// A NetLog transaction rolled back, undoing `undo_ops` network ops.
    TxnRollback { txn: u64, undo_ops: u64 },
    /// The compromise-policy engine chose a recovery action.
    PolicyDecision {
        app: String,
        policy: String,
        verdict: String,
    },
    /// An event was rewritten into an equivalent one during recovery.
    EventTransformed { app: String },
    /// An event was dropped to get past a deterministic crash.
    EventDropped { app: String },
    /// A problem ticket was filed (incident closes).
    TicketFiled { app: String, failure: String },
    /// The app was declared dead (incident closes without a ticket).
    AppDead { app: String },
}

impl RecordKind {
    /// The app this record belongs to, if app-scoped.
    #[must_use]
    pub fn app(&self) -> Option<&str> {
        match self {
            RecordKind::AppCrash { app, .. }
            | RecordKind::CommFailure { app }
            | RecordKind::ByzantineBlocked { app, .. }
            | RecordKind::HeartbeatMiss { app }
            | RecordKind::CheckpointTaken { app, .. }
            | RecordKind::CheckpointRestored { app, .. }
            | RecordKind::ReplayDone { app, .. }
            | RecordKind::TxnBegin { app, .. }
            | RecordKind::PolicyDecision { app, .. }
            | RecordKind::EventTransformed { app }
            | RecordKind::EventDropped { app }
            | RecordKind::TicketFiled { app, .. }
            | RecordKind::AppDead { app } => Some(app),
            RecordKind::TxnCommit { .. } | RecordKind::TxnRollback { .. } => None,
        }
    }

    /// Whether this record opens an incident (a failure detection).
    #[must_use]
    pub fn is_detection(&self) -> bool {
        matches!(
            self,
            RecordKind::AppCrash { .. }
                | RecordKind::CommFailure { .. }
                | RecordKind::ByzantineBlocked { .. }
                | RecordKind::HeartbeatMiss { .. }
        )
    }

    /// Short stable name for exports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            RecordKind::AppCrash { .. } => "app_crash",
            RecordKind::CommFailure { .. } => "comm_failure",
            RecordKind::ByzantineBlocked { .. } => "byzantine_blocked",
            RecordKind::HeartbeatMiss { .. } => "heartbeat_miss",
            RecordKind::CheckpointTaken { .. } => "checkpoint_taken",
            RecordKind::CheckpointRestored { .. } => "checkpoint_restored",
            RecordKind::ReplayDone { .. } => "replay_done",
            RecordKind::TxnBegin { .. } => "txn_begin",
            RecordKind::TxnCommit { .. } => "txn_commit",
            RecordKind::TxnRollback { .. } => "txn_rollback",
            RecordKind::PolicyDecision { .. } => "policy_decision",
            RecordKind::EventTransformed { .. } => "event_transformed",
            RecordKind::EventDropped { .. } => "event_dropped",
            RecordKind::TicketFiled { .. } => "ticket_filed",
            RecordKind::AppDead { .. } => "app_dead",
        }
    }
}

/// One journal entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Monotonic sequence number; total order over all records.
    pub seq: u64,
    /// Nanoseconds since the owning `Obs` was created.
    pub at_ns: u64,
    pub kind: RecordKind,
}

/// Fixed-capacity ring of [`Record`]s; oldest entries are evicted first.
#[derive(Debug)]
pub struct Journal {
    inner: Mutex<Ring>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct Ring {
    records: VecDeque<Record>,
    next_seq: u64,
    evicted: u64,
}

impl Journal {
    /// A journal holding at most `capacity` records.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Journal {
            inner: Mutex::new(Ring::default()),
            capacity: capacity.max(1),
        }
    }

    /// Append a record stamped `at_ns`; returns its sequence number.
    pub fn record_at(&self, at_ns: u64, kind: RecordKind) -> u64 {
        self.record_at_evicting(at_ns, kind).0
    }

    /// Append a record and report whether the ring dropped its oldest
    /// record to make room — [`crate::Obs::record`] mirrors that bit into
    /// the `journal_dropped` counter so silent eviction shows up in
    /// `/metrics`, not just in [`Journal::evicted`].
    pub fn record_at_evicting(&self, at_ns: u64, kind: RecordKind) -> (u64, bool) {
        let mut ring = self.inner.lock().unwrap();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        let mut dropped = false;
        if ring.records.len() == self.capacity {
            ring.records.pop_front();
            ring.evicted += 1;
            dropped = true;
        }
        ring.records.push_back(Record { seq, at_ns, kind });
        (seq, dropped)
    }

    /// Snapshot of the retained records, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Record> {
        self.inner.lock().unwrap().records.iter().cloned().collect()
    }

    /// Total records ever appended (including evicted ones).
    #[must_use]
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().unwrap().next_seq
    }

    /// Records lost to ring eviction.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.inner.lock().unwrap().evicted
    }

    /// Maximum records retained.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash(app: &str) -> RecordKind {
        RecordKind::AppCrash {
            app: app.into(),
            detail: "panic".into(),
        }
    }

    #[test]
    fn sequence_numbers_are_monotonic_and_dense() {
        let j = Journal::new(16);
        for i in 0..10 {
            assert_eq!(j.record_at(i, crash("a")), i);
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 10);
        for (i, rec) in snap.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
        }
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let j = Journal::new(4);
        for i in 0..10u64 {
            j.record_at(
                i,
                RecordKind::TxnBegin {
                    txn: i,
                    app: "a".into(),
                },
            );
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.first().unwrap().seq, 6, "oldest retained");
        assert_eq!(snap.last().unwrap().seq, 9, "newest retained");
        assert_eq!(j.evicted(), 6);
        assert_eq!(j.total_recorded(), 10);
        // Still dense and ordered after wrap.
        for w in snap.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
    }

    #[test]
    fn record_at_evicting_reports_the_drop() {
        let j = Journal::new(2);
        assert_eq!(j.record_at_evicting(0, crash("a")), (0, false));
        assert_eq!(j.record_at_evicting(1, crash("a")), (1, false));
        assert_eq!(j.record_at_evicting(2, crash("a")), (2, true));
        assert_eq!(j.evicted(), 1);
    }

    #[test]
    fn capacity_of_zero_is_clamped_to_one() {
        let j = Journal::new(0);
        j.record_at(0, crash("a"));
        j.record_at(1, crash("b"));
        assert_eq!(j.snapshot().len(), 1);
    }

    #[test]
    fn kind_app_scoping() {
        assert_eq!(crash("x").app(), Some("x"));
        assert_eq!(RecordKind::TxnCommit { txn: 1, ops: 2 }.app(), None);
        assert!(crash("x").is_detection());
        assert!(!RecordKind::TicketFiled {
            app: "x".into(),
            failure: "f".into()
        }
        .is_detection());
    }
}
