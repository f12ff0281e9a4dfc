//! Replay oracles: decide whether an event subsequence reproduces a crash.

use legosdn_controller::app::{Ctx, SdnApp};
use legosdn_controller::event::Event;
use legosdn_controller::sandbox::Sandbox;
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_netsim::SimTime;

/// Answers "does replaying these events reproduce the failure?".
pub trait ReplayOracle {
    /// Replay `events` against a fresh copy of the failure context.
    fn reproduces(&mut self, events: &[Event]) -> bool;
}

/// An oracle that replays candidate subsequences into app instances built
/// by a factory — optionally seeded from a checkpoint, which is exactly how
/// §5 combines STS with the checkpoint history ("STS allows us to determine
/// which checkpoint to roll back the application to").
pub struct AppReplayOracle<F>
where
    F: FnMut() -> Box<dyn SdnApp>,
{
    factory: F,
    /// Snapshot to restore into each fresh instance before replay (`None`
    /// replays from the app's initial state).
    pub start_from: Option<Vec<u8>>,
    pub topology: TopologyView,
    pub devices: DeviceView,
    /// Replays performed so far.
    pub replays: usize,
}

impl<F> AppReplayOracle<F>
where
    F: FnMut() -> Box<dyn SdnApp>,
{
    /// An oracle over fresh instances from `factory`.
    pub fn new(factory: F, topology: TopologyView, devices: DeviceView) -> Self {
        AppReplayOracle {
            factory,
            start_from: None,
            topology,
            devices,
            replays: 0,
        }
    }

    /// Seed each replay from a checkpoint.
    #[must_use]
    pub fn starting_from(mut self, snapshot: Vec<u8>) -> Self {
        self.start_from = Some(snapshot);
        self
    }
}

impl<F> ReplayOracle for AppReplayOracle<F>
where
    F: FnMut() -> Box<dyn SdnApp>,
{
    /// A panic in `on_event` reproduces the crash; one while restoring
    /// the checkpoint means the replay never started, so it does not.
    fn reproduces(&mut self, events: &[Event]) -> bool {
        self.replays += 1;
        let mut app = Sandbox::new((self.factory)());
        if let Some(snapshot) = &self.start_from {
            if app.revive(snapshot).is_err() {
                return false;
            }
        }
        events.iter().any(|ev| {
            let mut ctx = Ctx::new(SimTime::ZERO, &self.topology, &self.devices);
            app.on_event(ev, &mut ctx).is_err()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddmin::ddmin;
    use legosdn_controller::app::RestoreError;
    use legosdn_controller::event::EventKind;
    use legosdn_openflow::prelude::DatapathId;

    /// Crashes when it has seen `fuse` switch-down events (a cumulative,
    /// multi-event bug — the §5 motivating case).
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
                    panic!("fuse blown at {}", self.seen);
                }
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            self.seen.to_be_bytes().to_vec()
        }
        fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
            self.seen =
                u32::from_be_bytes(bytes.try_into().map_err(|_| RestoreError("len".into()))?);
            Ok(())
        }
    }

    fn mixed_history() -> Vec<Event> {
        // 3 switch-downs buried in noise.
        let mut h = Vec::new();
        for i in 0..30u64 {
            h.push(Event::SwitchUp(DatapathId(i)));
            if i % 10 == 3 {
                h.push(Event::SwitchDown(DatapathId(i)));
            }
        }
        h
    }

    #[test]
    fn cumulative_bug_minimizes_to_the_fuse_count() {
        let history = mixed_history();
        let mut oracle = AppReplayOracle::new(
            || Box::new(FuseApp { seen: 0, fuse: 3 }),
            TopologyView::default(),
            DeviceView::default(),
        );
        let report = ddmin(&history, &mut oracle).unwrap();
        // Minimal sequence: exactly the 3 switch-downs.
        assert_eq!(report.minimal.len(), 3);
        assert!(report
            .minimal
            .iter()
            .all(|e| matches!(e, Event::SwitchDown(_))));
        assert!(oracle.replays > 0);
    }

    #[test]
    fn checkpoint_seeded_replay_needs_fewer_events() {
        // Seed from a checkpoint where 2 switch-downs were already seen:
        // one more reproduces the crash.
        let history = mixed_history();
        let snapshot = 2u32.to_be_bytes().to_vec();
        let mut oracle = AppReplayOracle::new(
            || Box::new(FuseApp { seen: 0, fuse: 3 }),
            TopologyView::default(),
            DeviceView::default(),
        )
        .starting_from(snapshot);
        let report = ddmin(&history, &mut oracle).unwrap();
        assert_eq!(report.minimal.len(), 1, "{:?}", report.minimal);
    }

    #[test]
    fn healthy_app_is_not_reproducible() {
        let history = vec![Event::SwitchUp(DatapathId(1))];
        let mut oracle = AppReplayOracle::new(
            || Box::new(FuseApp { seen: 0, fuse: 100 }),
            TopologyView::default(),
            DeviceView::default(),
        );
        assert!(ddmin(&history, &mut oracle).is_err());
    }

    #[test]
    fn a_checkpoint_that_panics_on_restore_reproduces_nothing() {
        struct RestoreBomb;
        impl SdnApp for RestoreBomb {
            fn name(&self) -> &str {
                "restore-bomb"
            }
            fn subscriptions(&self) -> Vec<EventKind> {
                EventKind::ALL.to_vec()
            }
            fn on_event(&mut self, _: &Event, _: &mut Ctx<'_>) {
                panic!("crashes on everything");
            }
            fn snapshot(&self) -> Vec<u8> {
                Vec::new()
            }
            fn restore(&mut self, _: &[u8]) -> Result<(), RestoreError> {
                panic!("restore bomb");
            }
        }
        let mut oracle = AppReplayOracle::new(
            || Box::new(RestoreBomb),
            TopologyView::default(),
            DeviceView::default(),
        )
        .starting_from(Vec::new());
        assert!(!oracle.reproduces(&mixed_history()));
        assert!(ddmin(&mixed_history(), &mut oracle).is_err());
    }
}
