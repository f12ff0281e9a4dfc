//! The one typed record the stack emits, and the journal: the retention
//! policy that keeps recent recovery-lifecycle records.
//!
//! A [`Record`] is one moment a layer reports, emitted once through
//! [`crate::Obs::emit`]. It carries numbers and ids, never names: an app
//! is an [`AppId`] into its `Obs`'s name table, and outcomes such as
//! `txn=7 ops=2` are rendered at export. Only failure text (a panic
//! message) is a `String`, on the failure path. The journal keeps the
//! [`RecordKind::journaled`] kinds in a bounded ring with dense sequence
//! numbers, for [`crate::timeline`]; the flight recorder
//! ([`crate::trace`]) keeps the steps of sampled traces.

use std::collections::VecDeque;
use std::fmt;

use crate::trace::TraceId;

/// An attached app as one `Obs`'s records name it: an index into that
/// instance's name table, handed out by [`crate::Obs::attach_app`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub u16);

/// What the compromise-policy engine did with an offending event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ignored,
    Transformed,
    LetDie,
    NoCheckpointLetDie,
}

impl Verdict {
    /// Every verdict, in discriminant order.
    pub const ALL: [Verdict; 4] = [
        Verdict::Ignored,
        Verdict::Transformed,
        Verdict::LetDie,
        Verdict::NoCheckpointLetDie,
    ];

    /// Stable export name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ignored => "ignored",
            Verdict::Transformed => "transformed",
            Verdict::LetDie => "let_die",
            Verdict::NoCheckpointLetDie => "no_checkpoint_let_die",
        }
    }
}

/// What happened. Every kind but [`RecordKind::Step`] is journaled; the
/// app it concerns is the record's [`Record::app`], and transaction kinds
/// name the NetLog transaction id (and carry the app it ran for, when it
/// ran for one).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// An app panicked while handling an event (fail-stop detection).
    AppCrash { detail: String },
    /// The proxy lost contact with an app's stub (timeout / disconnect).
    CommFailure,
    /// The invariant checker vetoed an app's commands.
    ByzantineBlocked { violations: u64 },
    /// Crash-Pad serialized an app snapshot.
    CheckpointTaken { bytes: u64, dur_ns: u64 },
    /// Crash-Pad restored an app from its last snapshot.
    CheckpointRestored { bytes: u64, dur_ns: u64 },
    /// Post-restore event replay finished.
    ReplayDone { events_replayed: u64, dur_ns: u64 },
    /// A NetLog transaction committed.
    TxnCommit { txn: u64, ops: u64 },
    /// A NetLog transaction rolled back, undoing `undo_ops` network ops.
    TxnRollback { txn: u64, undo_ops: u64 },
    /// The compromise-policy engine chose a recovery action.
    PolicyDecision {
        policy: &'static str,
        verdict: Verdict,
    },
    /// An event was rewritten into an equivalent one during recovery.
    EventTransformed,
    /// An event was dropped to get past a deterministic crash.
    EventDropped,
    /// A problem ticket was filed (incident closes).
    TicketFiled { failure: &'static str },
    /// The app was declared dead (incident closes without a ticket).
    AppDead,
    /// A dispatch step only the flight recorder keeps: `(phase, outcome)`,
    /// such as `("fill", "selected")` or `("collect", "crashed")`.
    Step(&'static str, &'static str),
}

impl RecordKind {
    /// Whether this record opens an incident (a failure detection).
    #[must_use]
    pub fn is_detection(&self) -> bool {
        matches!(
            self,
            RecordKind::AppCrash { .. }
                | RecordKind::CommFailure
                | RecordKind::ByzantineBlocked { .. }
        )
    }

    /// Whether the journal keeps this kind.
    #[must_use]
    pub fn journaled(&self) -> bool {
        !matches!(self, RecordKind::Step(..))
    }

    /// Render the flight-recorder steps this record reads as, in order,
    /// through `step(phase, outcome)`; nothing is formatted unless `step`
    /// formats it. A verdict that rewrites the event or ends the app reads
    /// as that step first, then as the verdict.
    pub(crate) fn steps(&self, mut step: impl FnMut(&'static str, &dyn fmt::Display)) {
        match self {
            RecordKind::AppCrash { .. } => step("deliver_fail", &"crash"),
            RecordKind::CommFailure => step("deliver_fail", &"comm_failure"),
            RecordKind::ByzantineBlocked { .. } => step("deliver_fail", &"byzantine"),
            RecordKind::CheckpointRestored { .. } => step("restore", &"ok"),
            RecordKind::ReplayDone {
                events_replayed, ..
            } => step("replay", &format_args!("replayed={events_replayed}")),
            RecordKind::TxnCommit { txn, ops } => {
                step("tx_commit", &format_args!("txn={txn} ops={ops}"));
            }
            RecordKind::TxnRollback { txn, undo_ops } => {
                step(
                    "tx_rollback",
                    &format_args!("txn={txn} undo_ops={undo_ops}"),
                );
            }
            RecordKind::PolicyDecision { verdict, .. } => {
                match verdict {
                    Verdict::Transformed => step("transform", &"equivalents_ok"),
                    Verdict::LetDie => step("app_dead", &"let_die"),
                    Verdict::NoCheckpointLetDie => step("app_dead", &"no_checkpoint"),
                    Verdict::Ignored => {}
                }
                step("policy", &verdict.name());
            }
            RecordKind::Step(phase, outcome) => step(phase, outcome),
            _ => {}
        }
    }

    /// How many flight-recorder steps this record reads as.
    pub(crate) fn step_count(&self) -> u64 {
        let mut n = 0;
        self.steps(|_, _| n += 1);
        n
    }
}

/// One emitted moment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record {
    /// Journal sequence number: dense, and a total order over the journal.
    pub seq: u64,
    /// Nanoseconds since the owning `Obs` was created.
    pub at_ns: u64,
    /// The sampled trace in scope when it was emitted.
    pub trace: Option<TraceId>,
    /// The app it concerns; `None` for transaction outcomes, which name
    /// their transaction instead.
    pub app: Option<AppId>,
    pub kind: RecordKind,
}

/// Fixed-capacity ring of journaled [`Record`]s; oldest entries are
/// evicted first.
#[derive(Debug)]
pub struct Journal {
    records: VecDeque<Record>,
    capacity: usize,
    /// Records ever appended, evicted ones included.
    pub(crate) total: u64,
    /// Records lost to ring eviction.
    pub(crate) evicted: u64,
}

impl Journal {
    /// A journal holding at most `capacity` records.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Journal {
            records: VecDeque::new(),
            capacity: capacity.max(1),
            total: 0,
            evicted: 0,
        }
    }

    /// Append a record stamped `at_ns` under the next sequence number, and
    /// report whether the ring dropped its oldest record to make room.
    pub fn push(
        &mut self,
        at_ns: u64,
        trace: Option<TraceId>,
        app: Option<AppId>,
        kind: RecordKind,
    ) -> bool {
        let dropped = self.records.len() == self.capacity;
        if dropped {
            self.records.pop_front();
            self.evicted += 1;
        }
        self.records.push_back(Record {
            seq: self.total,
            at_ns,
            trace,
            app,
            kind,
        });
        self.total += 1;
        dropped
    }

    /// Copy of the retained records, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Record> {
        self.records.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crash() -> RecordKind {
        RecordKind::AppCrash {
            detail: "panic".into(),
        }
    }

    #[test]
    fn sequence_numbers_are_monotonic_and_dense() {
        let mut j = Journal::new(16);
        for i in 0..10 {
            j.push(i, None, Some(AppId(0)), crash());
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 10);
        for (i, rec) in snap.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
        }
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let mut j = Journal::new(4);
        for i in 0..10u64 {
            j.push(
                i,
                None,
                Some(AppId(0)),
                RecordKind::TxnCommit { txn: i, ops: 1 },
            );
        }
        let snap = j.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap.first().unwrap().seq, 6, "oldest retained");
        assert_eq!(snap.last().unwrap().seq, 9, "newest retained");
        assert_eq!((j.evicted, j.total), (6, 10));
        // Still dense and ordered after wrap.
        for w in snap.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
    }

    #[test]
    fn push_reports_the_drop() {
        let mut j = Journal::new(2);
        assert!(!j.push(0, None, None, crash()));
        assert!(!j.push(1, None, None, crash()));
        assert!(j.push(2, None, None, crash()));
        assert_eq!(j.evicted, 1);
    }

    #[test]
    fn capacity_of_zero_is_clamped_to_one() {
        let mut j = Journal::new(0);
        j.push(0, None, Some(AppId(0)), crash());
        j.push(1, None, Some(AppId(1)), crash());
        assert_eq!(j.snapshot().len(), 1);
    }

    #[test]
    fn kind_app_scoping() {
        assert!(crash().is_detection());
        assert!(crash().journaled());
        assert!(!RecordKind::TicketFiled { failure: "f" }.is_detection());
        let step = RecordKind::Step("fill", "selected");
        assert!(!step.journaled() && !step.is_detection());
        assert_eq!(step.step_count(), 1);
        assert_eq!(RecordKind::AppDead.step_count(), 0, "journal only");
        let verdict = |verdict| RecordKind::PolicyDecision {
            policy: "absolute",
            verdict,
        };
        assert_eq!(verdict(Verdict::Ignored).step_count(), 1);
        let mut rendered = Vec::new();
        verdict(Verdict::LetDie).steps(|p, o| rendered.push(format!("{p}/{o}")));
        RecordKind::TxnCommit { txn: 7, ops: 2 }.steps(|p, o| rendered.push(format!("{p}/{o}")));
        assert_eq!(
            rendered,
            [
                "app_dead/let_die",
                "policy/let_die",
                "tx_commit/txn=7 ops=2"
            ]
        );
    }
}
