//! Problem tickets (paper §3.3).
//!
//! "When subverting a failure, Crash-Pad will generate a problem ticket
//! from the captured stack-traces generated by the SDN-App, controller logs
//! and the offending event. The problem ticket can help developers to
//! triage the SDN-App's bug." The agenda: make the *apps*, not the
//! developers, oblivious to failures.

use legosdn_codec::Codec;
use legosdn_controller::event::Event;
use legosdn_netsim::SimTime;
use legosdn_obs::RecordKind;
use std::collections::VecDeque;

/// How the failure was detected.
#[derive(Clone, Debug, PartialEq, Eq, Codec)]
pub enum FailureKind {
    /// The app's handler panicked (explicit crash report).
    FailStop { panic_message: String },
    /// The stub stopped answering — a communication failure.
    CommFailure,
    /// The app's output violated network invariants.
    Byzantine { violations: usize },
    /// The dispatch engine panicked in the runtime's own code; the text
    /// names the engine's thread and the panic.
    WorkerLost { panic_message: String },
}

impl FailureKind {
    /// The record that opens an incident for this failure.
    pub(crate) fn detection(&self) -> RecordKind {
        match self {
            FailureKind::FailStop { panic_message } | FailureKind::WorkerLost { panic_message } => {
                RecordKind::AppCrash {
                    detail: panic_message.clone(),
                }
            }
            FailureKind::CommFailure => RecordKind::CommFailure,
            FailureKind::Byzantine { violations } => RecordKind::ByzantineBlocked {
                violations: *violations as u64,
            },
        }
    }

    /// Stable export name (matches journal conventions).
    pub(crate) fn class(&self) -> &'static str {
        match self {
            FailureKind::FailStop { .. } => "fail_stop",
            FailureKind::CommFailure => "comm_failure",
            FailureKind::Byzantine { .. } => "byzantine",
            FailureKind::WorkerLost { .. } => "worker_lost",
        }
    }

    /// The ticket's text for this failure.
    pub(crate) fn describe(&self) -> String {
        match self {
            FailureKind::FailStop { panic_message } => format!("fail-stop: {panic_message}"),
            FailureKind::CommFailure => "communication failure with stub".to_string(),
            FailureKind::Byzantine { violations } => {
                format!("byzantine output: {violations} invariant violation(s)")
            }
            FailureKind::WorkerLost { panic_message } => format!("worker lost: {panic_message}"),
        }
    }
}

/// The recovery Crash-Pad took.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Codec)]
pub enum RecoveryTaken {
    /// Restored and ignored the offending event (Absolute Compromise).
    Ignored,
    /// Restored and delivered transformed events (Equivalence Compromise).
    Transformed,
    /// Left the app dead (No Compromise).
    LetDie,
}

/// One problem ticket.
#[derive(Clone, Debug, PartialEq, Codec)]
pub struct ProblemTicket {
    pub id: u64,
    pub at: SimTime,
    pub app: String,
    /// The offending event — "the last event processed by the SDN-App
    /// before failure".
    pub offending_event: Event,
    pub failure: FailureKind,
    /// Diagnostic log lines captured around the failure.
    pub log_excerpt: Vec<String>,
    pub recovery: RecoveryTaken,
}

impl ProblemTicket {
    /// Render the ticket for an operator/report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "TICKET #{id} [{at}] app={app}\n  failure: {failure}\n  offending event: {ev:?}\n  recovery: {rec:?}\n",
            id = self.id,
            at = self.at,
            app = self.app,
            failure = self.failure.describe(),
            ev = self.offending_event.kind(),
            rec = self.recovery,
        );
        for line in &self.log_excerpt {
            out.push_str("  | ");
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// Bounded ticket store.
#[derive(Clone, Debug)]
pub struct TicketStore {
    tickets: VecDeque<ProblemTicket>,
    capacity: usize,
    next_id: u64,
}

impl Default for TicketStore {
    fn default() -> Self {
        TicketStore {
            tickets: VecDeque::new(),
            capacity: 10_000,
            next_id: 0,
        }
    }
}

impl TicketStore {
    /// A store bounded at `capacity` tickets.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        TicketStore {
            capacity,
            ..TicketStore::default()
        }
    }

    /// File a ticket; returns its id.
    pub fn file(
        &mut self,
        at: SimTime,
        app: &str,
        offending_event: Event,
        failure: FailureKind,
        log_excerpt: Vec<String>,
        recovery: RecoveryTaken,
    ) -> u64 {
        self.next_id += 1;
        if self.tickets.len() >= self.capacity {
            self.tickets.pop_front();
        }
        self.tickets.push_back(ProblemTicket {
            id: self.next_id,
            at,
            app: app.to_string(),
            offending_event,
            failure,
            log_excerpt,
            recovery,
        });
        self.next_id
    }

    /// Number of filed tickets currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tickets.len()
    }

    /// Is the store empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tickets.is_empty()
    }

    /// Look a ticket up by id.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<&ProblemTicket> {
        self.tickets.iter().find(|t| t.id == id)
    }

    /// All tickets for an app.
    #[must_use]
    pub fn for_app(&self, app: &str) -> Vec<&ProblemTicket> {
        self.tickets.iter().filter(|t| t.app == app).collect()
    }

    /// Iterate over all retained tickets, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &ProblemTicket> {
        self.tickets.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_openflow::prelude::DatapathId;

    fn file_one(store: &mut TicketStore, app: &str) -> u64 {
        store.file(
            SimTime::from_secs(1),
            app,
            Event::SwitchDown(DatapathId(3)),
            FailureKind::FailStop {
                panic_message: "index out of bounds".into(),
            },
            vec!["dispatching SwitchDown(3)".into(), "app panicked".into()],
            RecoveryTaken::Ignored,
        )
    }

    #[test]
    fn tickets_get_sequential_ids() {
        let mut s = TicketStore::default();
        assert_eq!(file_one(&mut s, "a"), 1);
        assert_eq!(file_one(&mut s, "b"), 2);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn lookup_and_filter() {
        let mut s = TicketStore::default();
        let id = file_one(&mut s, "router");
        file_one(&mut s, "hub");
        let t = s.get(id).unwrap();
        assert_eq!(t.app, "router");
        assert_eq!(s.for_app("hub").len(), 1);
        assert!(s.get(999).is_none());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut s = TicketStore::with_capacity(2);
        let first = file_one(&mut s, "a");
        file_one(&mut s, "b");
        file_one(&mut s, "c");
        assert_eq!(s.len(), 2);
        assert!(s.get(first).is_none());
    }

    #[test]
    fn render_contains_triage_material() {
        let mut s = TicketStore::default();
        let id = file_one(&mut s, "router");
        let text = s.get(id).unwrap().render();
        assert!(text.contains("router"));
        assert!(text.contains("index out of bounds"));
        assert!(text.contains("SwitchDown"));
        assert!(text.contains("Ignored"));
        assert!(text.contains("| app panicked"));
    }

    #[test]
    fn every_failure_kind_opens_an_incident_under_its_export_label() {
        let kinds = [
            (
                FailureKind::FailStop {
                    panic_message: "boom".into(),
                },
                "fail_stop",
            ),
            (FailureKind::CommFailure, "comm_failure"),
            (FailureKind::Byzantine { violations: 2 }, "byzantine"),
            (
                FailureKind::WorkerLost {
                    panic_message: "dispatch engine on thread main: boom".into(),
                },
                "worker_lost",
            ),
        ];
        for (kind, label) in kinds {
            // A new kind must join the list above.
            match kind {
                FailureKind::FailStop { .. }
                | FailureKind::CommFailure
                | FailureKind::Byzantine { .. }
                | FailureKind::WorkerLost { .. } => {}
            }
            assert!(kind.detection().is_detection(), "{kind:?}");
            assert_eq!(kind.class(), label);
        }
    }

    #[test]
    fn byzantine_render() {
        let mut s = TicketStore::default();
        let id = s.file(
            SimTime::ZERO,
            "lb",
            Event::SwitchUp(DatapathId(1)),
            FailureKind::Byzantine { violations: 3 },
            vec![],
            RecoveryTaken::LetDie,
        );
        assert!(s
            .get(id)
            .unwrap()
            .render()
            .contains("3 invariant violation"));
    }
}
