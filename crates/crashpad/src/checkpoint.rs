//! The checkpoint store — Crash-Pad's CRIU stand-in (paper §4.1, DESIGN.md
//! §2).
//!
//! "The proxy creates a checkpoint of an SDN-App process prior to
//! dispatching every message. In a normal scenario [...] the proxy simply
//! ignores the checkpoint created. In the event of crash, however, the
//! proxy restores the SDN-App to the checkpoint."
//!
//! §5 refines this: per-event checkpointing is "prohibitively expensive",
//! so the store supports checkpoint-every-N — recovery restores the last
//! snapshot and replays the events delivered since. A bounded history of
//! older checkpoints supports the STS-guided multi-transaction rollback
//! (§5).
//!
//! **One event log.** Every delivered event is kept once, in the app's
//! archive. A recovery plan's replay is the archive's suffix past the
//! latest checkpoint, and the archive never evicts that suffix, whatever
//! its bound: the bound trims only events older than the latest
//! checkpoint, which only a historical plan reads.
//!
//! **Elision.** A snapshot whose bytes equal the latest stored checkpoint's
//! is not stored again: the store re-dates that checkpoint to the current
//! event index, which empties the replay suffix — the same recovery plan
//! at no copy and no history slot. The test is exact byte equality
//! ([`Snapshot`]'s `==`), however the two are stored.
//!
//! **Sharing.** A checkpoint is a [`Snapshot`]: one byte sequence, stored
//! as the app's few plain bytes with its memoized segments
//! (`legosdn_codec::Memo`, DESIGN.md §15) held by handle. A snapshot
//! re-encodes only what the last event wrote, and the store keeps the
//! rest shared with the app and with the checkpoints before it. Its
//! plain bytes are held at their length, so a stored checkpoint keeps no
//! slack.

use legosdn_codec::{Codec, Snapshot};
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
    pub bytes: Snapshot,
}

/// A recovery plan: restore `snapshot`, then replay `replay` in order.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryPlan {
    pub snapshot: Checkpoint,
    pub replay: Vec<Event>,
}

#[derive(Clone, Debug, Default)]
struct AppCheckpoints {
    /// Most recent first is at the back.
    history: VecDeque<Checkpoint>,
    /// Total events delivered to this app.
    events_delivered: u64,
    /// The delivered events: every one since the latest checkpoint, and
    /// older ones up to the policy's `archive` bound — what recovery and
    /// §5's STS-guided diagnosis replay. `archive[0]` is event index
    /// `archive_start`.
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
    /// that checkpoint (`event_index` := now), which empties its replay
    /// suffix — restore + empty replay reproduces the current state
    /// exactly, so recovery plans stay correct while the copy and its
    /// history slot are saved.
    pub fn record_snapshot(&mut self, app: &str, bytes: Snapshot) -> bool {
        let history_cap = self.policy.history.max(1);
        let entry = self.entry(app);
        if let Some(latest) = entry.history.back_mut() {
            if latest.bytes == bytes {
                latest.event_index = entry.events_delivered;
                self.snapshots_elided += 1;
                return false;
            }
        }
        let checkpoint = Checkpoint {
            event_index: entry.events_delivered,
            bytes,
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
        entry.archive.push_back(event.clone());
        // Evict down to the bound, but never the latest checkpoint's
        // replay suffix.
        let keep_from = entry.history.back().map_or(u64::MAX, |c| c.event_index);
        while entry.archive.len() > cap && entry.archive_start < keep_from {
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
        self.historical_plan(app, 0)
    }

    /// A plan rolling back `extra` checkpoints further than the latest —
    /// the §5 "read a history of snapshots" mechanism for failures that
    /// span multiple events. Replay comes from the event archive: every
    /// event delivered after that snapshot, in order (empty if the archive
    /// has already evicted that span, which it never does for the latest).
    #[must_use]
    pub fn historical_plan(&self, app: &str, extra: usize) -> Option<RecoveryPlan> {
        let a = self.apps.get(app)?;
        let idx = a.history.len().checked_sub(1 + extra)?;
        let snapshot = a.history[idx].clone();
        let replay = match snapshot.event_index.checked_sub(a.archive_start) {
            Some(skip) => a.archive.range(skip as usize..).cloned().collect(),
            None => Vec::new(),
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
    use legosdn_codec::Memo;
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
            store.record_snapshot("a", vec![i as u8].into());
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
                store.record_snapshot("a", vec![i as u8].into());
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
        store.record_snapshot("a", vec![0xaa].into());
        store.record_delivered("a", &ev(1));
        store.record_delivered("a", &ev(2));
        let plan = store.recovery_plan("a").unwrap();
        assert_eq!(plan.snapshot.bytes, vec![0xaa]);
        assert_eq!(plan.replay, vec![ev(1), ev(2)]);
        // A fresh snapshot leaves nothing to replay.
        store.record_snapshot("a", vec![0xbb].into());
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
            store.record_snapshot("a", vec![i].into());
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
            store.record_snapshot("a", vec![i].into());
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
        assert!(store.record_snapshot("a", vec![7, 7].into()));
        store.record_delivered("a", &ev(0));
        // State unchanged: elide, but the retained checkpoint must now
        // cover event 1 onward with nothing to replay.
        assert!(!store.record_snapshot("a", vec![7, 7].into()));
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
        assert!(store.record_snapshot("a", vec![7, 8].into()));
        assert_eq!(store.snapshots_taken, 2);
        assert_eq!(store.history_len("a"), 2);
    }

    #[test]
    fn same_length_different_content_is_stored_not_elided() {
        let mut store = CheckpointStore::new(CheckpointPolicy::default());
        assert!(store.record_snapshot("a", vec![1, 2, 3, 4].into()));
        store.record_delivered("a", &ev(0));
        // Differs only in its last byte — where an app's counters sit.
        assert!(store.record_snapshot("a", vec![1, 2, 3, 5].into()));
        store.record_delivered("a", &ev(1));
        assert_eq!(store.snapshots_elided, 0);
        let hist = store.history("a");
        assert_eq!(hist.len(), 2);
        assert_eq!(
            (hist[0].event_index, hist[0].bytes.to_vec()),
            (0, vec![1, 2, 3, 4])
        );
        assert_eq!(
            (hist[1].event_index, hist[1].bytes.to_vec()),
            (1, vec![1, 2, 3, 5])
        );
        // Identical to the latest: elided, and the latest is re-dated.
        assert!(!store.record_snapshot("a", vec![1, 2, 3, 5].into()));
        assert_eq!(store.snapshots_elided, 1);
        let hist = store.history("a");
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[1].event_index, 2);
        assert!(store.recovery_plan("a").unwrap().replay.is_empty());
        // Equal to an *older* checkpoint only: stored.
        assert!(store.record_snapshot("a", vec![1, 2, 3, 4].into()));
        assert_eq!(store.history_len("a"), 3);
    }

    #[test]
    fn elision_compares_bytes_not_storage() {
        #[derive(Codec)]
        struct Model {
            table: Memo<Vec<u32>>,
            tail: u8,
        }
        let model = |tail| Model {
            table: Memo::new((0..1000).collect()),
            tail,
        };
        let mut store = CheckpointStore::new(CheckpointPolicy::default());
        let warm = model(1);
        assert!(store.record_snapshot("a", Snapshot::of(&warm)));
        // The same memo by the same handle; an equal memo by a handle of
        // its own; the same bytes with no memo cut out at all.
        assert!(!store.record_snapshot("a", Snapshot::of(&warm)));
        assert!(!store.record_snapshot("a", Snapshot::of(&model(1))));
        let flat = legosdn_codec::to_bytes(&warm).unwrap();
        assert!(!store.record_snapshot("a", flat.clone().into()));
        assert_eq!(store.snapshots_elided, 3);
        // A different tail behind an equal segment is stored.
        assert!(store.record_snapshot("a", Snapshot::of(&model(2))));
        assert_eq!(store.history("a")[0].bytes, flat);
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
        assert!(store.record_snapshot("a", bytes.clone().into()));
        let mut roomy = Vec::with_capacity(64);
        roomy.push(9u8);
        assert!(store.record_snapshot("a", roomy.into()));
        let hist = store.history("a");
        let (big, small) = (&hist[0].bytes, &hist[1].bytes);
        // Many bytes are one boxed slice, which has no room beyond its
        // length (`tests/alloc_budget.rs` counts the bytes it holds).
        let pieces: Vec<&[u8]> = big.chunks().filter(|c| !c.is_empty()).collect();
        assert_eq!(pieces.len(), 1, "one piece, not a Vec with room");
        assert_eq!(pieces[0].len(), bytes.len());
        assert_eq!(*big, bytes);
        // A few live in the checkpoint itself: nothing on the heap at all.
        let home = std::ptr::from_ref(small) as usize;
        let at = small.flat().as_ptr() as usize;
        assert!((home..home + std::mem::size_of::<Snapshot>()).contains(&at));
        assert_eq!(*small, vec![9]);
    }

    #[test]
    fn elision_is_per_app() {
        let mut store = CheckpointStore::new(CheckpointPolicy::default());
        assert!(store.record_snapshot("a", vec![1].into()));
        // Same bytes, different app: no cross-talk.
        assert!(store.record_snapshot("b", vec![1].into()));
        assert!(!store.record_snapshot("a", vec![1].into()));
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

    /// The store as it was with a replay buffer beside the archive: the
    /// reference the one-event-log store must agree with.
    struct Reference {
        /// `(event_index, bytes)`, oldest first, at most `history`.
        history: VecDeque<(u64, Vec<u8>)>,
        /// Events delivered since the latest snapshot.
        since_snapshot: Vec<Event>,
        /// Every event ever delivered.
        delivered: Vec<Event>,
        policy: CheckpointPolicy,
    }

    impl Reference {
        fn snapshot(&mut self, bytes: Vec<u8>) {
            self.since_snapshot.clear();
            let now = self.delivered.len() as u64;
            match self.history.back_mut() {
                Some(latest) if latest.1 == bytes => latest.0 = now,
                _ => {
                    self.history.push_back((now, bytes));
                    if self.history.len() > self.policy.history.max(1) {
                        self.history.pop_front();
                    }
                }
            }
        }

        fn deliver(&mut self, event: Event) {
            self.since_snapshot.push(event.clone());
            self.delivered.push(event);
        }

        /// A historical plan over an archive that evicts strictly to
        /// its bound.
        fn historical(&self, extra: usize) -> Option<(u64, Vec<u8>, Vec<Event>)> {
            let (index, bytes) = self
                .history
                .get(self.history.len().checked_sub(1 + extra)?)?;
            let archive_start = self
                .delivered
                .len()
                .saturating_sub(self.policy.archive.max(1));
            let replay = if extra == 0 {
                self.since_snapshot.clone()
            } else if *index as usize >= archive_start {
                self.delivered[*index as usize..].to_vec()
            } else {
                Vec::new()
            };
            Some((*index, bytes.clone(), replay))
        }
    }

    /// An app state with a memoized segment before its counter.
    #[derive(Codec)]
    struct Shaped {
        head: Memo<Vec<u8>>,
        tail: u8,
    }

    /// Drive a store and the reference through one seeded run: due
    /// snapshots that are stored, elided (state unchanged) or never
    /// taken (the capture failed), and the plans compared after every
    /// step.
    fn one_event_log_run(interval: u64, archive: usize, seed: u64) {
        let policy = CheckpointPolicy {
            interval,
            history: 3,
            archive,
        };
        let mut store = CheckpointStore::new(policy);
        let mut reference = Reference {
            history: VecDeque::new(),
            since_snapshot: Vec::new(),
            delivered: Vec::new(),
            policy,
        };
        let mut rng = legosdn_testkit::Rng::seed_from_u64(seed);
        let mut state = Shaped {
            head: Memo::new(vec![0x5a; 100]),
            tail: 0,
        };
        for i in 0..200u64 {
            if store.checkpoint_due("a") {
                // Unchanged state is elided; a change lands in the last 64
                // bytes (where counters sit) or only before them.
                match rng.gen_range(0u32..4) {
                    0 => state.head.make_mut()[0] = state.head[0].wrapping_add(1),
                    1 | 2 => state.tail = state.tail.wrapping_add(1),
                    _ => {}
                }
                if rng.gen_bool(0.85) {
                    let bytes = legosdn_codec::to_bytes(&state).unwrap();
                    // Stored shared, by the memo's own handle or by a new
                    // one over equal bytes, or flat: equality is the bytes.
                    let snapshot = match rng.gen_range(0u32..3) {
                        0 => Snapshot::of(&state),
                        1 => Snapshot::of(&Shaped {
                            head: Memo::new(state.head.to_vec()),
                            tail: state.tail,
                        }),
                        _ => Snapshot::from(bytes.clone()),
                    };
                    store.record_snapshot("a", snapshot);
                    reference.snapshot(bytes);
                }
            }
            store.record_delivered("a", &ev(i));
            reference.deliver(ev(i));
            let plan = store.recovery_plan("a");
            let since = reference.history.back().map(|(at, _)| *at);
            assert_eq!(
                plan.as_ref().map(|p| &p.replay),
                since.map(|_| &reference.since_snapshot),
                "interval {interval}, archive {archive}, event {i}: replay"
            );
            if let (Some(plan), Some(since)) = (plan, since) {
                assert_eq!(plan.snapshot.event_index, since);
                assert_eq!(plan.replay, reference.delivered[since as usize..]);
            }
            for extra in 0..=policy.history {
                let plan = store
                    .historical_plan("a", extra)
                    .map(|p| (p.snapshot.event_index, p.snapshot.bytes.to_vec(), p.replay));
                assert_eq!(
                    plan,
                    reference.historical(extra),
                    "interval {interval}, archive {archive}, event {i}, extra {extra}"
                );
            }
        }
    }

    #[test]
    fn replay_is_the_archive_past_the_latest_checkpoint() {
        for interval in [1, 4, 16] {
            for archive in [1, 4, 1024] {
                for seed in 0..4 {
                    one_event_log_run(interval, archive, seed);
                }
            }
        }
    }

    #[test]
    fn a_failed_due_snapshot_keeps_replaying_from_the_last_good_one() {
        let mut store = CheckpointStore::new(CheckpointPolicy {
            interval: 2,
            history: 2,
            archive: 1,
        });
        store.record_snapshot("a", vec![1].into());
        for i in 0..5 {
            // Due at 2 and 4, but the captures fail: nothing recorded.
            store.record_delivered("a", &ev(i));
        }
        let plan = store.recovery_plan("a").unwrap();
        assert_eq!(plan.snapshot.event_index, 0);
        assert_eq!(plan.replay, (0..5).map(ev).collect::<Vec<_>>());
        // A later snapshot succeeds: the archive may shrink to its bound.
        store.record_snapshot("a", vec![2].into());
        store.record_delivered("a", &ev(5));
        store.record_delivered("a", &ev(6));
        assert_eq!(store.recovery_plan("a").unwrap().replay, vec![ev(5), ev(6)]);
        assert!(store.historical_plan("a", 1).unwrap().replay.is_empty());
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
        store.record_snapshot("a", vec![1].into());
        store.forget("a");
        assert!(store.recovery_plan("a").is_none());
    }
}
