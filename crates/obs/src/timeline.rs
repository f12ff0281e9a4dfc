//! Recovery-timeline reconstruction: stitch raw journal records into
//! per-incident reports.
//!
//! This is the observable form of the paper's problem tickets — for each
//! detected failure it answers *how long* detection→restore→replay took,
//! *how many* network rules NetLog rolled back, and *what* the
//! compromise-policy engine decided.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::journal::{AppId, Record, RecordKind};

/// How an incident ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Resolution {
    /// A problem ticket was filed; `failure` is its failure class.
    Ticketed { failure: &'static str },
    /// The app was declared dead (NoCompromise policy or repeated failure).
    AppDead,
    /// A new detection for the same app arrived before this one resolved.
    Superseded,
    /// The journal ended while the incident was still in flight.
    Open,
}

/// Crash-Pad restore details attached to an incident.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RestoreInfo {
    pub at_ns: u64,
    pub dur_ns: u64,
    pub bytes: u64,
}

/// Event-replay details attached to an incident.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayInfo {
    pub at_ns: u64,
    pub dur_ns: u64,
    pub events_replayed: u64,
}

/// One reconstructed failure→recovery incident.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IncidentReport {
    pub app: String,
    /// Stable name of the detection record (`app_crash`, `comm_failure`,
    /// `byzantine_blocked`).
    pub detected_by: &'static str,
    pub detection_detail: String,
    pub detection_seq: u64,
    pub detection_at_ns: u64,
    pub restore: Option<RestoreInfo>,
    pub replay: Option<ReplayInfo>,
    /// Network ops undone by NetLog rollbacks during this incident.
    pub rules_rolled_back: u64,
    pub events_transformed: u64,
    pub events_dropped: u64,
    /// `(policy, verdict)` from the compromise-policy engine.
    pub policy: Option<(&'static str, &'static str)>,
    pub resolution: Resolution,
    /// Sequence number of the last record attributed to this incident.
    pub end_seq: u64,
    pub end_at_ns: u64,
}

impl IncidentReport {
    fn open(app: &str, rec: &Record) -> Self {
        let (detected_by, detail) = match &rec.kind {
            RecordKind::AppCrash { detail } => ("app_crash", detail.clone()),
            RecordKind::CommFailure => ("comm_failure", String::new()),
            RecordKind::ByzantineBlocked { violations } => (
                "byzantine_blocked",
                format!("{violations} invariant violation(s)"),
            ),
            _ => unreachable!("only a detection opens an incident"),
        };
        IncidentReport {
            app: app.to_string(),
            detected_by,
            detection_detail: detail,
            detection_seq: rec.seq,
            detection_at_ns: rec.at_ns,
            restore: None,
            replay: None,
            rules_rolled_back: 0,
            events_transformed: 0,
            events_dropped: 0,
            policy: None,
            resolution: Resolution::Open,
            end_seq: rec.seq,
            end_at_ns: rec.at_ns,
        }
    }

    fn attach(&mut self, rec: &Record) {
        self.end_seq = rec.seq;
        self.end_at_ns = self.end_at_ns.max(rec.at_ns);
    }

    /// Detection → restore-complete latency, if a restore happened.
    #[must_use]
    pub fn detection_to_restore_ns(&self) -> Option<u64> {
        self.restore
            .as_ref()
            .map(|r| r.at_ns.saturating_sub(self.detection_at_ns))
    }

    /// Detection → replay-complete latency, if a replay happened.
    #[must_use]
    pub fn detection_to_replay_ns(&self) -> Option<u64> {
        self.replay
            .as_ref()
            .map(|r| r.at_ns.saturating_sub(self.detection_at_ns))
    }

    /// Detection → resolution latency.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.end_at_ns.saturating_sub(self.detection_at_ns)
    }

    /// Multi-line human-readable report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "incident app={} detected_by={} seq={} t+{}us",
            self.app,
            self.detected_by,
            self.detection_seq,
            self.detection_at_ns / 1_000
        );
        if !self.detection_detail.is_empty() {
            let _ = writeln!(s, "  detail: {}", self.detection_detail);
        }
        if let Some((policy, verdict)) = &self.policy {
            let _ = writeln!(s, "  policy: {policy} -> {verdict}");
        }
        if let Some(r) = &self.restore {
            let _ = writeln!(
                s,
                "  restore: {} bytes in {}us ({}us after detection)",
                r.bytes,
                r.dur_ns / 1_000,
                self.detection_to_restore_ns().unwrap_or(0) / 1_000
            );
        }
        if let Some(r) = &self.replay {
            let _ = writeln!(
                s,
                "  replay: {} event(s) in {}us ({}us after detection)",
                r.events_replayed,
                r.dur_ns / 1_000,
                self.detection_to_replay_ns().unwrap_or(0) / 1_000
            );
        }
        let _ = writeln!(
            s,
            "  rolled back {} rule(s); {} event(s) transformed, {} dropped",
            self.rules_rolled_back, self.events_transformed, self.events_dropped
        );
        let resolution = match &self.resolution {
            Resolution::Ticketed { failure } => format!("ticket filed ({failure})"),
            Resolution::AppDead => "app declared dead".to_string(),
            Resolution::Superseded => "superseded by a new detection".to_string(),
            Resolution::Open => "still open".to_string(),
        };
        let _ = writeln!(
            s,
            "  resolution: {resolution} at seq={} (total {}us)",
            self.end_seq,
            self.total_ns() / 1_000
        );
        s
    }
}

/// Stitch journal records (any subset, in any order) into incidents,
/// naming each app by its id's entry in `names`.
///
/// Guarantees, for any input:
/// - incidents are returned ordered by `detection_seq`;
/// - per app, incident `[detection_seq, end_seq]` ranges never overlap;
/// - every record between a detection and its resolution that names the
///   same app (a NetLog commit or rollback names the app it ran for) is
///   attributed to exactly that incident.
#[must_use]
pub fn reconstruct(records: &[Record], names: &[String]) -> Vec<IncidentReport> {
    let mut sorted: Vec<&Record> = records.iter().collect();
    sorted.sort_by_key(|r| r.seq);

    let mut done: Vec<IncidentReport> = Vec::new();
    let mut open: HashMap<AppId, IncidentReport> = HashMap::new();

    for rec in sorted {
        let Some(app) = rec.app else { continue };

        if rec.kind.is_detection() {
            if let Some(mut prev) = open.remove(&app) {
                prev.resolution = Resolution::Superseded;
                done.push(prev);
            }
            let name = names.get(usize::from(app.0)).map_or("?", String::as_str);
            open.insert(app, IncidentReport::open(name, rec));
            continue;
        }

        let Some(incident) = open.get_mut(&app) else {
            continue;
        };
        incident.attach(rec);
        match &rec.kind {
            RecordKind::CheckpointRestored { bytes, dur_ns } => {
                incident.restore = Some(RestoreInfo {
                    at_ns: rec.at_ns,
                    dur_ns: *dur_ns,
                    bytes: *bytes,
                });
            }
            RecordKind::ReplayDone {
                events_replayed,
                dur_ns,
            } => {
                incident.replay = Some(ReplayInfo {
                    at_ns: rec.at_ns,
                    dur_ns: *dur_ns,
                    events_replayed: *events_replayed,
                });
            }
            RecordKind::TxnRollback { undo_ops, .. } => {
                incident.rules_rolled_back += undo_ops;
            }
            RecordKind::PolicyDecision { policy, verdict } => {
                incident.policy = Some((*policy, verdict.name()));
            }
            RecordKind::EventTransformed => incident.events_transformed += 1,
            RecordKind::EventDropped => incident.events_dropped += 1,
            RecordKind::TicketFiled { failure } => {
                let mut inc = open.remove(&app).expect("attached above");
                inc.resolution = Resolution::Ticketed { failure };
                done.push(inc);
            }
            RecordKind::AppDead => {
                let mut inc = open.remove(&app).expect("attached above");
                inc.resolution = Resolution::AppDead;
                done.push(inc);
            }
            _ => {}
        }
    }

    done.extend(open.into_values());
    done.sort_by_key(|i| i.detection_seq);
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, Verdict};

    const A: Option<AppId> = Some(AppId(0));
    const B: Option<AppId> = Some(AppId(1));

    fn names() -> Vec<String> {
        vec!["fwd".into(), "b".into()]
    }

    #[test]
    fn full_recovery_timeline_end_to_end() {
        let mut j = Journal::new(64);
        j.push(
            1_000,
            None,
            A,
            RecordKind::AppCrash {
                detail: "index oob".into(),
            },
        );
        j.push(
            1_100,
            None,
            A,
            RecordKind::TxnRollback {
                txn: 1,
                undo_ops: 3,
            },
        );
        j.push(
            1_200,
            None,
            A,
            RecordKind::PolicyDecision {
                policy: "absolute",
                verdict: Verdict::Ignored,
            },
        );
        j.push(
            5_000,
            None,
            A,
            RecordKind::CheckpointRestored {
                bytes: 512,
                dur_ns: 900,
            },
        );
        j.push(
            9_000,
            None,
            A,
            RecordKind::ReplayDone {
                events_replayed: 2,
                dur_ns: 3_000,
            },
        );
        j.push(
            9_500,
            None,
            A,
            RecordKind::TicketFiled {
                failure: "fail_stop",
            },
        );

        let incidents = reconstruct(&j.snapshot(), &names());
        assert_eq!(incidents.len(), 1);
        let inc = &incidents[0];
        assert_eq!(inc.app, "fwd");
        assert_eq!(inc.detected_by, "app_crash");
        assert_eq!(inc.detection_to_restore_ns(), Some(4_000));
        assert_eq!(inc.detection_to_replay_ns(), Some(8_000));
        assert_eq!(inc.rules_rolled_back, 3);
        assert_eq!(inc.replay.as_ref().unwrap().events_replayed, 2);
        assert_eq!(inc.policy, Some(("absolute", "ignored")));
        assert_eq!(
            inc.resolution,
            Resolution::Ticketed {
                failure: "fail_stop"
            }
        );
        assert_eq!(inc.total_ns(), 8_500);
        assert!(inc.render().contains("incident app=fwd"));
    }

    #[test]
    fn records_for_other_apps_do_not_leak_in() {
        let mut j = Journal::new(64);
        j.push(
            0,
            None,
            A,
            RecordKind::AppCrash {
                detail: String::new(),
            },
        );
        j.push(
            2,
            None,
            B,
            RecordKind::TxnRollback {
                txn: 7,
                undo_ops: 5,
            },
        );
        j.push(3, None, B, RecordKind::EventDropped);
        j.push(4, None, A, RecordKind::TicketFiled { failure: "x" });

        let incidents = reconstruct(&j.snapshot(), &names());
        assert_eq!(incidents.len(), 1);
        assert_eq!(
            incidents[0].rules_rolled_back, 0,
            "b's rollback not charged to a"
        );
        assert_eq!(incidents[0].events_dropped, 0);
    }

    #[test]
    fn redetection_supersedes_open_incident() {
        let mut j = Journal::new(64);
        j.push(
            0,
            None,
            A,
            RecordKind::AppCrash {
                detail: String::new(),
            },
        );
        j.push(1, None, A, RecordKind::CommFailure);
        j.push(2, None, A, RecordKind::AppDead);

        let incidents = reconstruct(&j.snapshot(), &names());
        assert_eq!(incidents.len(), 2);
        assert_eq!(incidents[0].resolution, Resolution::Superseded);
        assert_eq!(incidents[1].resolution, Resolution::AppDead);
        // Non-overlapping: first ends before second begins.
        assert!(incidents[0].end_seq < incidents[1].detection_seq);
    }

    #[test]
    fn unresolved_incident_stays_open() {
        let mut j = Journal::new(64);
        j.push(0, None, A, RecordKind::CommFailure);
        let incidents = reconstruct(&j.snapshot(), &names());
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].resolution, Resolution::Open);
    }

    #[test]
    fn non_incident_records_alone_yield_nothing() {
        let mut j = Journal::new(64);
        j.push(1, None, A, RecordKind::TxnCommit { txn: 1, ops: 4 });
        j.push(
            2,
            None,
            A,
            RecordKind::CheckpointTaken {
                bytes: 10,
                dur_ns: 5,
            },
        );
        assert!(reconstruct(&j.snapshot(), &names()).is_empty());
    }
}
