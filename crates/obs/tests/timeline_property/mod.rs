//! The recovery-timeline property, shared by `prop_timeline.rs` and
//! `proptest_timeline.rs`: for ANY interleaving of journal records —
//! multiple apps, interleaved transactions, arbitrary kinds in arbitrary
//! order — the reconstructor yields incident timelines that are fully
//! ordered by detection sequence and non-overlapping per app, with every
//! attributed record inside its incident's `[detection_seq, end_seq]`
//! range, at most one unresolved incident per app, and a result that
//! depends on the record set alone.

use legosdn_obs::{reconstruct, AppId, Journal, RecordKind, Resolution, Verdict};
use legosdn_testkit::{forall, Rng};

/// Transactions begun so far, each with the app it ran for (`None`: an
/// engine-level `begin()`). Beginning one journals nothing. `open` ones
/// end at most once, while any `begun` one may be named again — a
/// duplicate or late outcome.
#[derive(Default)]
struct Txns {
    next: u64,
    open: Vec<(u64, Option<AppId>)>,
    begun: Vec<(u64, Option<AppId>)>,
}

impl Txns {
    /// Begin a transaction for `app`, or for no app one time in five.
    fn begin(&mut self, rng: &mut Rng, app: Option<AppId>) {
        let txn = (self.next, app.filter(|_| !rng.gen_bool(0.2)));
        self.next += 1;
        self.open.push(txn);
        self.begun.push(txn);
    }

    /// A transaction for an outcome record: usually a still-open one
    /// (which it closes), sometimes any begun one; `None` before any
    /// transaction has begun.
    fn pick(&mut self, rng: &mut Rng) -> Option<(u64, Option<AppId>)> {
        if !self.open.is_empty() && rng.gen_bool(0.75) {
            return Some(self.open.remove(rng.gen_range(0..self.open.len())));
        }
        (!self.begun.is_empty()).then(|| *rng.pick(&self.begun))
    }
}

/// One random record; a transaction's outcome names the app it ran for,
/// or none.
fn arb_record(rng: &mut Rng, apps: usize, txns: &mut Txns) -> (Option<AppId>, RecordKind) {
    let app = Some(AppId(rng.gen_range(0..apps as u16)));
    let kind = match rng.gen_range(0u32..15) {
        0 => RecordKind::AppCrash {
            detail: rng.gen_name(0..6),
        },
        1 => RecordKind::CommFailure,
        2 => RecordKind::ByzantineBlocked {
            violations: rng.gen_range(1u64..5),
        },
        3 => RecordKind::CommFailure,
        4 => RecordKind::CheckpointTaken {
            bytes: rng.gen_range(1u64..4096),
            dur_ns: rng.gen_range(1u64..100_000),
        },
        5 => RecordKind::CheckpointRestored {
            bytes: rng.gen_range(1u64..4096),
            dur_ns: rng.gen_range(1u64..100_000),
        },
        6 => RecordKind::ReplayDone {
            events_replayed: rng.gen_range(0u64..10),
            dur_ns: rng.gen_range(1u64..100_000),
        },
        7..=9 => {
            if rng.gen_bool(0.5) {
                txns.begin(rng, app);
            }
            match txns.pick(rng) {
                Some((txn, app)) if rng.gen_bool(0.5) => {
                    let ops = rng.gen_range(0u64..8);
                    return (app, RecordKind::TxnCommit { txn, ops });
                }
                Some((txn, app)) => {
                    let undo_ops = rng.gen_range(0u64..8);
                    return (app, RecordKind::TxnRollback { txn, undo_ops });
                }
                None => RecordKind::EventTransformed,
            }
        }
        10 => RecordKind::PolicyDecision {
            policy: ["absolute", "equivalence", "no-compromise"][rng.gen_range(0usize..3)],
            verdict: Verdict::ALL[rng.gen_range(0usize..4)],
        },
        11 => RecordKind::EventTransformed,
        12 => RecordKind::EventDropped,
        13 => RecordKind::TicketFiled {
            failure: ["fail_stop", "byzantine"][rng.gen_range(0usize..2)],
        },
        _ => RecordKind::AppDead,
    };
    (app, kind)
}

/// Runs the property over `cases` journals of up to `max_records`
/// records for `apps`, kept in a ring of `capacity` records.
pub fn check(cases: u32, apps: &[&str], capacity: usize, max_records: usize) {
    forall(cases, |rng| {
        let mut journal = Journal::new(capacity);
        let names: Vec<String> = apps.iter().map(|a| a.to_string()).collect();
        let mut txns = Txns::default();
        let n = rng.gen_range(0usize..max_records);
        let mut t = 0u64;
        for _ in 0..n {
            t += rng.gen_range(1u64..5_000);
            let (app, kind) = arb_record(rng, apps.len(), &mut txns);
            journal.push(t, None, app, kind);
        }

        let records = journal.snapshot();
        let incidents = reconstruct(&records, &names);

        // Fully ordered by detection seq, globally.
        for w in incidents.windows(2) {
            assert!(
                w[0].detection_seq < w[1].detection_seq,
                "incidents out of order: {} !< {}",
                w[0].detection_seq,
                w[1].detection_seq
            );
        }

        for inc in &incidents {
            // An incident's range is well-formed and time-consistent.
            assert!(inc.detection_seq <= inc.end_seq);
            assert!(inc.detection_at_ns <= inc.end_at_ns);
            // Every incident starts at a detection record for its own app.
            let det = records.iter().find(|r| r.seq == inc.detection_seq).unwrap();
            assert!(det.kind.is_detection());
            assert_eq!(
                det.app.map(|a| apps[usize::from(a.0)]),
                Some(inc.app.as_str())
            );
        }

        // Per app: non-overlapping [detection_seq, end_seq] ranges, and at
        // most one unresolved (Open) incident — the last one.
        for &app in apps {
            let mut per_app: Vec<_> = incidents.iter().filter(|i| i.app == app).collect();
            per_app.sort_by_key(|i| i.detection_seq);
            for w in per_app.windows(2) {
                assert!(
                    w[0].end_seq < w[1].detection_seq,
                    "app {app}: incident [{}, {}] overlaps [{}, {}]",
                    w[0].detection_seq,
                    w[0].end_seq,
                    w[1].detection_seq,
                    w[1].end_seq
                );
            }
            let open = per_app
                .iter()
                .filter(|i| i.resolution == Resolution::Open)
                .count();
            assert!(open <= 1, "app {app}: {open} open incidents");
            if open == 1 {
                assert_eq!(per_app.last().unwrap().resolution, Resolution::Open);
            }
        }

        // Incident count equals detection-record count (each detection
        // opens exactly one incident).
        let detections = records.iter().filter(|r| r.kind.is_detection()).count();
        assert_eq!(incidents.len(), detections);

        // Reconstruction is deterministic, and a pure function of the
        // record set: shuffling the input order changes nothing.
        assert_eq!(reconstruct(&records, &names), incidents);
        let mut shuffled = records.clone();
        for i in (1..shuffled.len()).rev() {
            let j = rng.gen_range(0usize..i + 1);
            shuffled.swap(i, j);
        }
        assert_eq!(reconstruct(&shuffled, &names), incidents);
    });
}
