//! The checkpoint store — Crash-Pad's CRIU stand-in (paper §4.1, DESIGN.md
//! §2).
//!
//! "The proxy creates a checkpoint of an SDN-App process prior to
//! dispatching every message. In a normal scenario [...] the proxy simply
//! ignores the checkpoint created. In the event of crash, however, the
//! proxy restores the SDN-App to the checkpoint."
//!
//! §5 refines this: per-event checkpointing is "prohibitively expensive",
//! so the store supports checkpoint-every-N with an event replay buffer —
//! recovery restores the last snapshot and replays the events delivered
//! since. A bounded history of older checkpoints supports the STS-guided
//! multi-transaction rollback (§5).
//!
//! **Elision.** A snapshot whose bytes equal the latest stored checkpoint's
//! is not stored again: the store re-dates that checkpoint to the current
//! event index and clears the replay buffer, which is the same recovery
//! plan at no copy and no history slot. The test is a byte comparison —
//! exact, and for the usual unequal case over at the length or the first
//! differing byte. What makes the snapshot itself cheap is upstream: apps
//! keep their large state in memoized segments (`legosdn_codec::Memo`,
//! DESIGN.md §15), so `snapshot()` re-encodes only what the last event
//! wrote and copies the rest.
//!
//! **Footprint.** Stored checkpoints are trimmed to their length: an
//! encoder grows its buffer by doubling, and `history` slots of up-to-2×
//! slack is what the store would otherwise hold.

use legosdn_codec::Codec;
use legosdn_controller::event::Event;
use std::collections::{BTreeMap, VecDeque};

/// How often to checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Codec)]
pub struct CheckpointPolicy {
    /// Take a snapshot before every `interval`-th event. `1` is the paper
    /// prototype (checkpoint before every event).
    pub interval: u64,
    /// How many past checkpoints to retain for history-based rollback.
    pub history: usize,
    /// How many delivered events to archive for STS-guided diagnosis.
    pub archive: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            interval: 1,
            history: 8,
            archive: 1024,
        }
    }
}

/// One retained checkpoint.
#[derive(Clone, Debug, PartialEq, Codec)]
pub struct Checkpoint {
    /// Index of the first event delivered *after* this snapshot.
    pub event_index: u64,
    /// Serialized app state.
    pub bytes: Vec<u8>,
}

/// A recovery plan: restore `snapshot`, then replay `replay` in order.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryPlan {
    pub snapshot: Checkpoint,
    pub replay: Vec<Event>,
}

#[derive(Clone, Debug, Default, Codec)]
struct AppCheckpoints {
    /// Most recent first is at the back.
    history: VecDeque<Checkpoint>,
    /// Events delivered since the latest snapshot.
    replay_buffer: Vec<Event>,
    /// Total events delivered to this app.
    events_delivered: u64,
    /// Bounded archive of delivered events, spanning (at least) the
    /// retained checkpoint history — what §5's STS-guided diagnosis
    /// replays. `archive[0]` is event index `archive_start`.
    archive: VecDeque<Event>,
    archive_start: u64,
}

/// Per-app checkpoint bookkeeping.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    pub policy: CheckpointPolicy,
    apps: BTreeMap<String, AppCheckpoints>,
    /// Lifetime snapshots taken (the cost driver in E3).
    pub snapshots_taken: u64,
    /// Lifetime bytes snapshotted.
    pub bytes_snapshotted: u64,
    /// Snapshots elided because the serialized state was unchanged since
    /// the previous one (see [`CheckpointStore::record_snapshot`]).
    pub snapshots_elided: u64,
}

impl CheckpointStore {
    /// A store with the given policy.
    #[must_use]
    pub fn new(policy: CheckpointPolicy) -> Self {
        CheckpointStore {
            policy,
            apps: BTreeMap::new(),
            snapshots_taken: 0,
            bytes_snapshotted: 0,
            snapshots_elided: 0,
        }
    }

    /// Is a checkpoint due before delivering the app's next event?
    #[must_use]
    pub fn checkpoint_due(&self, app: &str) -> bool {
        self.checkpoint_due_ahead(app, 0)
    }

    /// Is a checkpoint due before the app's (next + `ahead`)-th event?
    /// The windowed dispatcher asks this speculatively while `ahead`
    /// earlier deliveries are still in flight; `ahead = 0` is the plain
    /// [`CheckpointStore::checkpoint_due`] question.
    #[must_use]
    pub fn checkpoint_due_ahead(&self, app: &str, ahead: u64) -> bool {
        let interval = self.policy.interval.max(1);
        match self.apps.get(app) {
            // First contact: the very first event always snapshots first,
            // later window slots follow the interval from zero.
            None => ahead.is_multiple_of(interval),
            Some(a) => (a.events_delivered + ahead).is_multiple_of(interval),
        }
    }

    /// The app's bookkeeping, created on first contact — the only time
    /// the name is copied.
    fn entry(&mut self, app: &str) -> &mut AppCheckpoints {
        if !self.apps.contains_key(app) {
            self.apps.insert(app.to_string(), AppCheckpoints::default());
        }
        self.apps.get_mut(app).expect("inserted above")
    }

    /// Record a snapshot taken before the app's next event. Returns `true`
    /// if the snapshot was stored, `false` if it was *elided*: when the
    /// bytes equal the latest stored snapshot's, the store just re-dates
    /// that checkpoint (`event_index` := now) and clears the replay
    /// buffer — restore + empty replay reproduces the current state
    /// exactly, so recovery plans stay correct while the copy and its
    /// history slot are saved.
    pub fn record_snapshot(&mut self, app: &str, bytes: Vec<u8>) -> bool {
        let history_cap = self.policy.history.max(1);
        let entry = self.entry(app);
        entry.replay_buffer.clear();
        if let Some(latest) = entry.history.back_mut() {
            if latest.bytes == bytes {
                latest.event_index = entry.events_delivered;
                self.snapshots_elided += 1;
                return false;
            }
        }
        let checkpoint = Checkpoint {
            event_index: entry.events_delivered,
            // Exact capacity: the encoder's doubling slack is not kept.
            bytes: bytes.into_boxed_slice().into_vec(),
        };
        let size = checkpoint.bytes.len() as u64;
        entry.history.push_back(checkpoint);
        while entry.history.len() > history_cap {
            entry.history.pop_front();
        }
        self.snapshots_taken += 1;
        self.bytes_snapshotted += size;
        true
    }

    /// Record that an event was (successfully) delivered to the app.
    pub fn record_delivered(&mut self, app: &str, event: &Event) {
        let cap = self.policy.archive.max(1);
        let entry = self.entry(app);
        entry.events_delivered += 1;
        entry.replay_buffer.push(event.clone());
        entry.archive.push_back(event.clone());
        while entry.archive.len() > cap {
            entry.archive.pop_front();
            entry.archive_start += 1;
        }
    }

    /// Events delivered to the app so far.
    #[must_use]
    pub fn events_delivered(&self, app: &str) -> u64 {
        self.apps.get(app).map_or(0, |a| a.events_delivered)
    }

    /// The plan to recover the app to its state just before the offending
    /// event: the latest snapshot plus the events delivered since.
    #[must_use]
    pub fn recovery_plan(&self, app: &str) -> Option<RecoveryPlan> {
        let a = self.apps.get(app)?;
        let snapshot = a.history.back()?.clone();
        Some(RecoveryPlan {
            snapshot,
            replay: a.replay_buffer.clone(),
        })
    }

    /// A plan rolling back `extra` checkpoints further than the latest —
    /// the §5 "read a history of snapshots" mechanism for failures that
    /// span multiple events. Replay comes from the event archive: every
    /// event delivered after that snapshot, in order (empty if the archive
    /// has already evicted that span).
    #[must_use]
    pub fn historical_plan(&self, app: &str, extra: usize) -> Option<RecoveryPlan> {
        let a = self.apps.get(app)?;
        if extra == 0 {
            return self.recovery_plan(app);
        }
        let idx = a.history.len().checked_sub(1 + extra)?;
        let snapshot = a.history[idx].clone();
        let replay = if snapshot.event_index >= a.archive_start {
            let skip = (snapshot.event_index - a.archive_start) as usize;
            a.archive.iter().skip(skip).cloned().collect()
        } else {
            Vec::new()
        };
        Some(RecoveryPlan { snapshot, replay })
    }

    /// Number of retained checkpoints for an app.
    #[must_use]
    pub fn history_len(&self, app: &str) -> usize {
        self.apps.get(app).map_or(0, |a| a.history.len())
    }

    /// Retained checkpoints for an app (oldest first).
    #[must_use]
    pub fn history(&self, app: &str) -> Vec<&Checkpoint> {
        self.apps
            .get(app)
            .map(|a| a.history.iter().collect())
            .unwrap_or_default()
    }

    /// Forget an app entirely (it was detached).
    pub fn forget(&mut self, app: &str) {
        self.apps.remove(app);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_controller::event::Event;
    use legosdn_openflow::prelude::DatapathId;

    fn ev(d: u64) -> Event {
        Event::SwitchUp(DatapathId(d))
    }

    #[test]
    fn per_event_policy_checkpoints_every_time() {
        let mut store = CheckpointStore::new(CheckpointPolicy {
            interval: 1,
            history: 4,
            ..CheckpointPolicy::default()
        });
        for i in 0..5u64 {
            assert!(store.checkpoint_due("a"), "event {i}");
            store.record_snapshot("a", vec![i as u8]);
            store.record_delivered("a", &ev(i));
        }
        assert_eq!(store.snapshots_taken, 5);
        assert_eq!(store.events_delivered("a"), 5);
    }

    #[test]
    fn interval_policy_checkpoints_every_n() {
        let mut store = CheckpointStore::new(CheckpointPolicy {
            interval: 3,
            history: 4,
            ..CheckpointPolicy::default()
        });
        let mut taken = 0;
        for i in 0..9u64 {
            if store.checkpoint_due("a") {
                store.record_snapshot("a", vec![i as u8]);
                taken += 1;
            }
            store.record_delivered("a", &ev(i));
        }
        assert_eq!(taken, 3, "events 0, 3, 6");
    }

    #[test]
    fn recovery_plan_carries_replay_buffer() {
        let mut store = CheckpointStore::new(CheckpointPolicy {
            interval: 4,
            history: 4,
            ..CheckpointPolicy::default()
        });
        store.record_snapshot("a", vec![0xaa]);
        store.record_delivered("a", &ev(1));
        store.record_delivered("a", &ev(2));
        let plan = store.recovery_plan("a").unwrap();
        assert_eq!(plan.snapshot.bytes, vec![0xaa]);
        assert_eq!(plan.replay, vec![ev(1), ev(2)]);
        // A fresh snapshot clears the buffer.
        store.record_snapshot("a", vec![0xbb]);
        let plan = store.recovery_plan("a").unwrap();
        assert!(plan.replay.is_empty());
        assert_eq!(plan.snapshot.bytes, vec![0xbb]);
    }

    #[test]
    fn history_is_bounded_and_ordered() {
        let mut store = CheckpointStore::new(CheckpointPolicy {
            interval: 1,
            history: 3,
            ..CheckpointPolicy::default()
        });
        for i in 0..5u8 {
            store.record_snapshot("a", vec![i]);
            store.record_delivered("a", &ev(u64::from(i)));
        }
        let hist = store.history("a");
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[0].bytes, vec![2]);
        assert_eq!(hist[2].bytes, vec![4]);
    }

    #[test]
    fn historical_plan_reaches_back() {
        let mut store = CheckpointStore::new(CheckpointPolicy {
            interval: 1,
            history: 4,
            ..CheckpointPolicy::default()
        });
        for i in 0..4u8 {
            store.record_snapshot("a", vec![i]);
            store.record_delivered("a", &ev(u64::from(i)));
        }
        assert_eq!(
            store.historical_plan("a", 0).unwrap().snapshot.bytes,
            vec![3]
        );
        assert_eq!(
            store.historical_plan("a", 2).unwrap().snapshot.bytes,
            vec![1]
        );
        assert!(store.historical_plan("a", 9).is_none());
    }

    #[test]
    fn unchanged_state_elides_the_snapshot_but_keeps_plans_correct() {
        let mut store = CheckpointStore::new(CheckpointPolicy {
            interval: 1,
            history: 4,
            ..CheckpointPolicy::default()
        });
        assert!(store.record_snapshot("a", vec![7, 7]));
        store.record_delivered("a", &ev(0));
        // State unchanged: elide, but the retained checkpoint must now
        // cover event 1 onward with nothing to replay.
        assert!(!store.record_snapshot("a", vec![7, 7]));
        store.record_delivered("a", &ev(1));
        assert_eq!(store.snapshots_taken, 1);
        assert_eq!(store.snapshots_elided, 1);
        assert_eq!(store.bytes_snapshotted, 2);
        assert_eq!(store.history_len("a"), 1);
        let plan = store.recovery_plan("a").unwrap();
        assert_eq!(plan.snapshot.event_index, 1);
        assert_eq!(plan.snapshot.bytes, vec![7, 7]);
        assert_eq!(plan.replay, vec![ev(1)]);
        // State changed again: stored as usual.
        assert!(store.record_snapshot("a", vec![7, 8]));
        assert_eq!(store.snapshots_taken, 2);
        assert_eq!(store.history_len("a"), 2);
    }

    #[test]
    fn same_length_different_content_is_stored_not_elided() {
        let mut store = CheckpointStore::new(CheckpointPolicy::default());
        assert!(store.record_snapshot("a", vec![1, 2, 3, 4]));
        store.record_delivered("a", &ev(0));
        // Differs only in its last byte — where an app's counters sit.
        assert!(store.record_snapshot("a", vec![1, 2, 3, 5]));
        store.record_delivered("a", &ev(1));
        assert_eq!(store.snapshots_elided, 0);
        let hist = store.history("a");
        assert_eq!(hist.len(), 2);
        assert_eq!(
            (hist[0].event_index, &hist[0].bytes),
            (0, &vec![1, 2, 3, 4])
        );
        assert_eq!(
            (hist[1].event_index, &hist[1].bytes),
            (1, &vec![1, 2, 3, 5])
        );
        // Identical to the latest: elided, and the latest is re-dated.
        assert!(!store.record_snapshot("a", vec![1, 2, 3, 5]));
        assert_eq!(store.snapshots_elided, 1);
        let hist = store.history("a");
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[1].event_index, 2);
        assert!(store.recovery_plan("a").unwrap().replay.is_empty());
        // Equal to an *older* checkpoint only: stored.
        assert!(store.record_snapshot("a", vec![1, 2, 3, 4]));
        assert_eq!(store.history_len("a"), 3);
    }

    #[test]
    fn stored_checkpoints_carry_no_slack_capacity() {
        let mut store = CheckpointStore::new(CheckpointPolicy::default());
        // Grown the way an encoder grows it: by doubling from empty.
        let mut bytes = Vec::new();
        for i in 0..1000u32 {
            bytes.extend_from_slice(&i.to_le_bytes());
        }
        assert!(bytes.capacity() > bytes.len(), "test needs slack to trim");
        assert!(store.record_snapshot("a", bytes.clone()));
        let mut roomy = Vec::with_capacity(64);
        roomy.push(9u8);
        assert!(store.record_snapshot("a", roomy));
        for checkpoint in store.history("a") {
            assert_eq!(checkpoint.bytes.capacity(), checkpoint.bytes.len());
        }
        assert_eq!(store.history("a")[0].bytes, bytes);
    }

    #[test]
    fn elision_is_per_app() {
        let mut store = CheckpointStore::new(CheckpointPolicy::default());
        assert!(store.record_snapshot("a", vec![1]));
        // Same bytes, different app: no cross-talk.
        assert!(store.record_snapshot("b", vec![1]));
        assert!(!store.record_snapshot("a", vec![1]));
        assert_eq!(store.snapshots_elided, 1);
    }

    #[test]
    fn due_ahead_projects_the_interval_over_in_flight_deliveries() {
        let mut store = CheckpointStore::new(CheckpointPolicy {
            interval: 3,
            ..CheckpointPolicy::default()
        });
        // Nothing delivered yet: due at slots 0, 3, 6...
        assert!(store.checkpoint_due_ahead("a", 0));
        assert!(!store.checkpoint_due_ahead("a", 1));
        assert!(!store.checkpoint_due_ahead("a", 2));
        assert!(store.checkpoint_due_ahead("a", 3));
        for i in 0..2 {
            store.record_delivered("a", &ev(i));
        }
        // Two delivered: the next (ahead=0) is index 2, due at ahead=1.
        assert!(!store.checkpoint_due_ahead("a", 0));
        assert!(store.checkpoint_due_ahead("a", 1));
        assert_eq!(
            store.checkpoint_due("a"),
            store.checkpoint_due_ahead("a", 0)
        );
    }

    #[test]
    fn unknown_app_has_no_plan() {
        let store = CheckpointStore::new(CheckpointPolicy::default());
        assert!(store.recovery_plan("ghost").is_none());
        assert_eq!(store.events_delivered("ghost"), 0);
        assert!(
            store.checkpoint_due("ghost"),
            "first event always snapshots"
        );
    }

    #[test]
    fn forget_drops_state() {
        let mut store = CheckpointStore::new(CheckpointPolicy::default());
        store.record_snapshot("a", vec![1]);
        store.forget("a");
        assert!(store.recovery_plan("a").is_none());
    }
}
