//! STS-guided crash diagnosis (paper §5).
//!
//! "If the failure is induced as a cumulation of events, we plan on
//! extending LegoSDN to read a history of snapshots (or checkpoints of the
//! SDN-App) and use techniques like STS to detect the exact set of events
//! that induced the crash. STS allows us to determine which checkpoint to
//! roll back the application to."
//!
//! [`CrashPad::diagnose`] implements exactly that loop: walk backwards
//! through the retained checkpoints, replay each archived suffix (plus the
//! offending event) to find the first checkpoint from which the crash
//! reproduces, then run ddmin to extract the minimal causal sequence. The
//! app is restored to its pre-diagnosis state before returning — diagnosis
//! is a read-only operation from the outside.

use crate::engine::{CrashPad, DeliveryResult, RecoverableApp};
use legosdn_controller::event::Event;
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_netsim::SimTime;
use legosdn_sts::{ddmin, MinimizeError, ReplayOracle};
use std::fmt;

/// A successful diagnosis.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnosis {
    /// How many checkpoints back the reproducing snapshot is (0 = latest).
    pub checkpoints_back: usize,
    /// Length of the replayed suffix (offending event included).
    pub suffix_len: usize,
    /// The minimal causal sequence that still reproduces the crash.
    pub minimal: Vec<Event>,
    /// Replays the search consumed.
    pub replays: usize,
}

/// Why diagnosis failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiagnoseError {
    /// No checkpoints retained for this app.
    NoHistory,
    /// The crash does not reproduce from any retained checkpoint — the bug
    /// is non-deterministic, or its causes predate the archive.
    NotReproducible,
    /// The app's current state could not be captured/restored around the
    /// diagnosis (it stays restored to the newest reproducing checkpoint).
    RestoreFailed(String),
}

impl fmt::Display for DiagnoseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagnoseError::NoHistory => write!(f, "no checkpoints retained"),
            DiagnoseError::NotReproducible => {
                write!(f, "crash does not reproduce from any retained checkpoint")
            }
            DiagnoseError::RestoreFailed(e) => write!(f, "restore around diagnosis failed: {e}"),
        }
    }
}

/// Oracle that replays candidate subsequences into the real app, restored
/// from a fixed snapshot before each attempt.
struct SnapshotOracle<'a> {
    live: &'a mut dyn RecoverableApp,
    snapshot: &'a [u8],
    topology: &'a TopologyView,
    devices: &'a DeviceView,
    now: SimTime,
}

impl ReplayOracle for SnapshotOracle<'_> {
    fn reproduces(&mut self, events: &[Event]) -> bool {
        if self.live.restore(self.snapshot).is_err() {
            return false;
        }
        for ev in events {
            match self.live.deliver(ev, self.topology, self.devices, self.now) {
                DeliveryResult::Ok(_) => {}
                _ => return true,
            }
        }
        false
    }
}

impl CrashPad {
    /// Search the checkpoint history for the snapshot from which replaying
    /// the archived event suffix plus `offending` reproduces the crash;
    /// minimize that suffix with ddmin.
    ///
    /// The search starts at the newest checkpoint and walks backwards —
    /// exactly the §5 "which checkpoint to roll back to" question. On
    /// success (and on `NotReproducible`) the app is restored to the state
    /// it had when `diagnose` was called; a dead app is revived to its
    /// newest checkpoint first so its state can be captured.
    pub fn diagnose(
        &mut self,
        app: &mut dyn RecoverableApp,
        name: &str,
        offending: &Event,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> Result<Diagnosis, DiagnoseError> {
        let history_len = self.checkpoints.history_len(name);
        if history_len == 0 {
            return Err(DiagnoseError::NoHistory);
        }
        // Capture the state to come back to. A dead app can't snapshot;
        // revive it at the newest checkpoint first.
        let resume_state = match app.snapshot() {
            Ok(bytes) => bytes,
            Err(_) => {
                let plan = self
                    .checkpoints
                    .recovery_plan(name)
                    .ok_or(DiagnoseError::NoHistory)?;
                app.restore(&plan.snapshot.bytes)
                    .map_err(DiagnoseError::RestoreFailed)?;
                app.snapshot().map_err(DiagnoseError::RestoreFailed)?
            }
        };

        let mut result = Err(DiagnoseError::NotReproducible);
        for extra in 0..history_len {
            let Some(plan) = self.checkpoints.historical_plan(name, extra) else {
                continue;
            };
            let mut suffix = plan.replay.clone();
            suffix.push(offending.clone());
            let mut oracle = SnapshotOracle {
                live: app,
                snapshot: &plan.snapshot.bytes,
                topology,
                devices,
                now,
            };
            match ddmin(&suffix, &mut oracle) {
                Ok(report) => {
                    result = Ok(Diagnosis {
                        checkpoints_back: extra,
                        suffix_len: suffix.len(),
                        minimal: report.minimal,
                        replays: report.replays,
                    });
                    break;
                }
                Err(MinimizeError::NotReproducible | MinimizeError::EmptyHistory) => {}
            }
        }

        app.restore(&resume_state)
            .map_err(DiagnoseError::RestoreFailed)?;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckpointPolicy, CompromisePolicy, CrashPadConfig, PolicyTable};
    use legosdn_controller::app::{Ctx, RestoreError, SdnApp};
    use legosdn_controller::event::EventKind;
    use legosdn_controller::sandbox::Sandbox;
    use legosdn_openflow::prelude::DatapathId;

    /// Crashes once it has accumulated `fuse` switch-downs.
    struct FuseApp {
        seen: u32,
        fuse: u32,
    }

    impl SdnApp for FuseApp {
        fn name(&self) -> &str {
            "fuse"
        }
        fn subscriptions(&self) -> Vec<EventKind> {
            EventKind::ALL.to_vec()
        }
        fn on_event(&mut self, event: &Event, _ctx: &mut Ctx<'_>) {
            if matches!(event, Event::SwitchDown(_)) {
                self.seen += 1;
                if self.seen >= self.fuse {
                    panic!("fuse blown");
                }
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            self.seen.to_be_bytes().to_vec()
        }
        fn restore(&mut self, b: &[u8]) -> Result<(), RestoreError> {
            self.seen = u32::from_be_bytes(b.try_into().map_err(|_| RestoreError("len".into()))?);
            Ok(())
        }
    }

    fn pad() -> CrashPad {
        CrashPad::new(CrashPadConfig {
            checkpoints: CheckpointPolicy {
                interval: 4,
                history: 16,
                archive: 256,
            },
            policies: PolicyTable::with_default(CompromisePolicy::Absolute),
            transform_direction: crate::TransformDirection::Decompose,
        })
    }

    fn up(d: u64) -> Event {
        Event::SwitchUp(DatapathId(d))
    }

    fn down(d: u64) -> Event {
        Event::SwitchDown(DatapathId(d))
    }

    #[test]
    fn cumulative_bug_is_localized_to_the_right_checkpoint() {
        // Fuse = 3: two switch-downs accumulate harmlessly, the third (the
        // offending event) blows. The latest checkpoint was taken after
        // both priors, so replay-from-latest DOES reproduce (seen=2 in the
        // snapshot); but roll back far enough and the minimal sequence
        // includes the earlier switch-downs.
        let mut pad = pad();
        let mut sandbox = Sandbox::new(Box::new(FuseApp { seen: 0, fuse: 3 }));
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        // 20 noise events with 2 switch-downs buried at positions 5 and 13.
        for i in 0..20u64 {
            let ev = if i == 5 || i == 13 { down(i) } else { up(i) };
            let r = pad.dispatch(&mut sandbox, "fuse", &ev, &topo, &dev, SimTime::ZERO);
            assert!(
                matches!(r, crate::DispatchResult::Delivered(_)),
                "event {i}: {r:?}"
            );
        }
        // The offending third switch-down.
        let offending = down(99);
        let diagnosis = pad
            .diagnose(&mut sandbox, "fuse", &offending, &topo, &dev, SimTime::ZERO)
            .expect("must reproduce");
        // From the newest checkpoint (seen already == 2) the single
        // offending event suffices: minimal == [offending].
        assert_eq!(diagnosis.checkpoints_back, 0);
        assert_eq!(diagnosis.minimal, vec![offending.clone()]);
        // Diagnosis left the app in its pre-diagnosis state: alive, seen=2.
        assert!(!sandbox.is_dead());
        let state = sandbox.capture().unwrap();
        assert_eq!(u32::from_be_bytes(state.try_into().unwrap()), 2);
    }

    #[test]
    fn diagnosis_finds_multi_event_cause_from_older_checkpoint() {
        // Checkpoint interval 4, fuse 2, both culprits inside ONE
        // checkpoint window, crash on the second: from the latest
        // checkpoint the pre-state may already hold seen=1; roll back far
        // enough and ddmin must pick up the in-window switch-down too.
        let mut pad = CrashPad::new(CrashPadConfig {
            checkpoints: CheckpointPolicy {
                interval: 8,
                history: 16,
                archive: 256,
            },
            policies: PolicyTable::with_default(CompromisePolicy::Absolute),
            transform_direction: crate::TransformDirection::Decompose,
        });
        let mut sandbox = Sandbox::new(Box::new(FuseApp { seen: 0, fuse: 2 }));
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        // 6 events (inside the first window): one switch-down at pos 3.
        for i in 0..6u64 {
            let ev = if i == 3 { down(i) } else { up(i) };
            pad.dispatch(&mut sandbox, "fuse", &ev, &topo, &dev, SimTime::ZERO);
        }
        let offending = down(99);
        let diagnosis = pad
            .diagnose(&mut sandbox, "fuse", &offending, &topo, &dev, SimTime::ZERO)
            .expect("must reproduce");
        // The minimal causal sequence is the in-window switch-down plus the
        // offending one.
        assert_eq!(diagnosis.minimal.len(), 2, "{:?}", diagnosis.minimal);
        assert!(diagnosis.minimal.contains(&down(3)));
        assert!(diagnosis.minimal.contains(&offending));
    }

    #[test]
    fn dead_app_is_revived_for_diagnosis() {
        let mut pad = pad();
        let mut sandbox = Sandbox::new(Box::new(FuseApp { seen: 0, fuse: 1 }));
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        pad.dispatch(&mut sandbox, "fuse", &up(1), &topo, &dev, SimTime::ZERO);
        // Kill it outside Crash-Pad's recovery (No-Compromise style).
        let r = sandbox.deliver(&down(9), &topo, &dev, SimTime::ZERO);
        assert!(matches!(r, DeliveryResult::Crashed { .. }));
        assert!(sandbox.is_dead());
        let diagnosis = pad
            .diagnose(&mut sandbox, "fuse", &down(9), &topo, &dev, SimTime::ZERO)
            .expect("must reproduce");
        assert_eq!(diagnosis.minimal, vec![down(9)]);
        assert!(!sandbox.is_dead(), "diagnosis revives and restores");
    }

    #[test]
    fn nondeterministic_crash_reports_not_reproducible() {
        // An app that never crashes on replay: the "offending" event is
        // benign, so nothing reproduces.
        let mut pad = pad();
        let mut sandbox = Sandbox::new(Box::new(FuseApp { seen: 0, fuse: 100 }));
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        pad.dispatch(&mut sandbox, "fuse", &up(1), &topo, &dev, SimTime::ZERO);
        let err = pad
            .diagnose(&mut sandbox, "fuse", &up(2), &topo, &dev, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, DiagnoseError::NotReproducible);
    }

    #[test]
    fn no_history_is_reported() {
        let mut pad = pad();
        let mut sandbox = Sandbox::new(Box::new(FuseApp { seen: 0, fuse: 1 }));
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        let err = pad
            .diagnose(&mut sandbox, "ghost", &down(1), &topo, &dev, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, DiagnoseError::NoHistory);
    }
}
