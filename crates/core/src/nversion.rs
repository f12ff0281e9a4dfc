//! N-version groups (paper §3.4, §5): versions of one app fed the same
//! events, one output kept. [`NVersionApp::new`] takes "a majority vote on
//! the outputs from the different versions" (§3.4). [`NVersionApp::standby`]
//! runs "a clone [...] in parallel to the actual SDN-App" for "an easy
//! switch-over operation to the clone, when the primary fails" (§5): the
//! lowest-indexed version that survives an event answers it, and the
//! versions that died on it are revived from the answer's state.
//!
//! A group is itself an [`SdnApp`], so it is sandboxed, checkpointed and
//! policed like any single app. Each version runs in a [`Sandbox`] of its
//! own; one that panics being checkpointed, or voting, stops answering
//! until the group is restored. When no version answers an event, the
//! group panics with the last version's fault, as one app would: its own
//! sandbox reports the crash, and Crash-Pad's restore of the group's
//! pre-event checkpoint revives every version.

use legosdn_codec::Codec;
use legosdn_controller::app::{Command, Ctx, RestoreError, SdnApp, Snapshot};
use legosdn_controller::event::{Event, EventKind};
use legosdn_controller::sandbox::{Fault, Sandbox};
use legosdn_controller::snapshot;
use std::collections::BTreeMap;

/// Vote bookkeeping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Codec)]
pub struct VoteStats {
    /// Events where all live versions agreed.
    pub unanimous: u64,
    /// Events decided by a strict majority over disagreement.
    pub majority_overrides: u64,
    /// Events the answers split on with no strict majority (output
    /// dropped for safety).
    pub no_majority: u64,
    /// Per-event version crashes (contained).
    pub version_crashes: u64,
    /// Standby rule: events answered by a version other than the first
    /// one live before the event.
    pub switchovers: u64,
}

#[derive(Codec)]
struct Saved {
    stats: VoteStats,
    dead: Vec<bool>,
    versions: Vec<Snapshot>,
}

/// A group of versions of one app, keeping one output per event.
pub struct NVersionApp {
    name: String,
    versions: Vec<Sandbox>,
    /// The standby rule; otherwise the majority rule.
    standby: bool,
    stats: VoteStats,
}

impl NVersionApp {
    /// Group `versions` under `name`; a strict majority of the versions
    /// that answer an event decides its output.
    ///
    /// # Panics
    /// If `versions` is empty.
    #[must_use]
    pub fn new(name: &str, versions: Vec<Box<dyn SdnApp>>) -> Self {
        assert!(
            !versions.is_empty(),
            "n-version group needs at least one version"
        );
        NVersionApp {
            name: name.to_string(),
            versions: versions.into_iter().map(Sandbox::new).collect(),
            standby: false,
            stats: VoteStats::default(),
        }
    }

    /// Group `versions` under `name` as a primary and its hot standbys:
    /// the first version to survive an event supplies the output, even
    /// over disagreement, and revives the versions that died on it (so
    /// they must share a snapshot format).
    ///
    /// # Panics
    /// If `versions` is empty.
    #[must_use]
    pub fn standby(name: &str, versions: Vec<Box<dyn SdnApp>>) -> Self {
        NVersionApp {
            standby: true,
            ..Self::new(name, versions)
        }
    }

    /// Voting statistics.
    #[must_use]
    pub fn vote_stats(&self) -> VoteStats {
        self.stats
    }

    /// Number of versions still live.
    #[must_use]
    pub fn live_versions(&self) -> usize {
        self.versions.iter().filter(|v| !v.is_dead()).count()
    }

    /// The majority rule: the output a strict majority of `answers`
    /// agrees on, or `None` rather than something wrong.
    fn vote(&mut self, answers: Vec<(usize, Vec<Command>)>) -> Option<Vec<Command>> {
        let voters = answers.len();
        let mut ballots: BTreeMap<Vec<u8>, (usize, Vec<Command>)> = BTreeMap::new();
        for (_, commands) in answers {
            let key = snapshot::to_bytes(&commands).unwrap_or_default();
            ballots.entry(key).or_insert((0, commands)).0 += 1;
        }
        let (count, winner) = ballots.into_values().max_by_key(|(count, _)| *count)?;
        if count == voters {
            self.stats.unanimous += 1;
        } else if count * 2 > voters {
            self.stats.majority_overrides += 1;
        } else {
            self.stats.no_majority += 1;
            return None;
        }
        Some(winner)
    }
}

impl SdnApp for NVersionApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        let mut subs: Vec<EventKind> = Vec::new();
        for (_, kinds) in self.versions.iter().filter_map(|v| v.identity().ok()) {
            for k in kinds {
                if !subs.contains(&k) {
                    subs.push(k);
                }
            }
        }
        subs
    }

    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        let first_live = self.versions.iter().position(|v| !v.is_dead());
        let mut answers = Vec::new();
        let (mut crashed, mut fault) = (Vec::new(), String::new());
        for (i, version) in self.versions.iter_mut().enumerate() {
            let mut vctx = Ctx::new(ctx.now, ctx.topology, ctx.devices);
            match version.on_event(event, &mut vctx) {
                Ok(()) => answers.push((i, vctx.into_commands())),
                Err(f) => {
                    if matches!(f, Fault::Panicked(_)) {
                        self.stats.version_crashes += 1;
                        crashed.push(i);
                    }
                    fault = f.into();
                }
            }
        }
        let Some(&(first, _)) = answers.first() else {
            panic!("{fault}");
        };
        let winner = if self.standby {
            self.stats.switchovers += u64::from(Some(first) != first_live);
            if let Ok(state) = self.versions[first].capture() {
                for i in crashed {
                    let _ = self.versions[i].revive(&state.flat());
                }
            }
            answers.swap_remove(0).1
        } else {
            self.vote(answers).unwrap_or_default()
        };
        for c in winner {
            ctx.send(c.dpid, c.msg);
        }
    }

    fn snapshot(&self) -> Snapshot {
        let states: Vec<Option<Snapshot>> =
            self.versions.iter().map(|v| v.capture().ok()).collect();
        let saved = Saved {
            stats: self.stats,
            dead: states.iter().map(Option::is_none).collect(),
            versions: states.into_iter().map(Option::unwrap_or_default).collect(),
        };
        Snapshot::of(&saved)
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        let saved: Saved = snapshot::from_bytes(bytes).map_err(|e| RestoreError(e.to_string()))?;
        if saved.versions.len() != self.versions.len() {
            return Err(RestoreError(format!(
                "snapshot has {} versions, group has {}",
                saved.versions.len(),
                self.versions.len()
            )));
        }
        for ((v, s), dead) in self
            .versions
            .iter_mut()
            .zip(&saved.versions)
            .zip(saved.dead)
        {
            if dead {
                v.kill("dead in the restored group checkpoint");
            } else if let Err(Fault::Rejected(e)) = v.revive(&s.flat()) {
                return Err(e);
            }
        }
        self.stats = saved.stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_apps::{BugEffect, BugTrigger, FaultyApp, Hub};
    use legosdn_controller::services::{DeviceView, TopologyView};
    use legosdn_netsim::SimTime;
    use legosdn_openflow::prelude::*;

    fn pin(dst: u64) -> Event {
        Event::PacketIn(
            DatapathId(1),
            PacketIn {
                buffer_id: BufferId::NONE,
                in_port: PortNo::Phys(1),
                reason: PacketInReason::NoMatch,
                packet: Packet::ethernet(MacAddr::from_index(1), MacAddr::from_index(dst)),
            },
        )
    }

    fn deliver(app: &mut NVersionApp, ev: &Event) -> Vec<Command> {
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        app.on_event(ev, &mut ctx);
        ctx.into_commands()
    }

    fn three_hubs_one_buggy(effect: BugEffect) -> NVersionApp {
        NVersionApp::new(
            "hub-nv",
            vec![
                Box::new(Hub::new()),
                Box::new(Hub::new()),
                Box::new(FaultyApp::new(
                    Box::new(Hub::new()),
                    BugTrigger::OnPacketToMac(MacAddr::from_index(13)),
                    effect,
                )),
            ],
        )
    }

    #[test]
    fn unanimous_versions_pass_output_through() {
        let mut nv = three_hubs_one_buggy(BugEffect::Crash);
        let cmds = deliver(&mut nv, &pin(2));
        assert_eq!(cmds.len(), 1, "one flood voted through");
        assert_eq!(nv.vote_stats().unanimous, 1);
        assert_eq!(nv.live_versions(), 3);
    }

    #[test]
    fn crashed_version_is_outvoted_and_group_survives() {
        let mut nv = three_hubs_one_buggy(BugEffect::Crash);
        let cmds = deliver(&mut nv, &pin(13)); // poisons version 3
        assert_eq!(cmds.len(), 1, "majority still floods");
        assert_eq!(nv.vote_stats().version_crashes, 1);
        assert_eq!(nv.live_versions(), 2);
        // Subsequent events keep working on the surviving majority.
        let cmds = deliver(&mut nv, &pin(2));
        assert_eq!(cmds.len(), 1);
    }

    #[test]
    fn byzantine_version_is_outvoted() {
        let mut nv = three_hubs_one_buggy(BugEffect::Blackhole);
        let cmds = deliver(&mut nv, &pin(13));
        // The buggy version emitted blackhole+flood; the two clean hubs
        // agreed on flood-only. Majority wins: exactly one packet-out, no
        // blackhole flow-mod.
        assert_eq!(cmds.len(), 1);
        assert!(matches!(cmds[0].msg, Message::PacketOut(_)));
        assert_eq!(nv.vote_stats().majority_overrides, 1);
        assert_eq!(nv.live_versions(), 3, "byzantine version keeps running");
    }

    /// The fault text `FaultyApp` panics with on a packet-in.
    const BUG_TEXT: &str = "injected bug in hub#buggy";

    fn crash_on(trigger: BugTrigger) -> Box<dyn SdnApp> {
        Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            trigger,
            BugEffect::Crash,
        ))
    }

    fn deliver_walled(group: &mut Sandbox, ev: &Event) -> Result<Vec<Command>, Fault> {
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        group.on_event(ev, &mut ctx)?;
        Ok(ctx.into_commands())
    }

    #[test]
    #[should_panic(expected = "injected bug in hub#buggy")]
    fn a_group_no_version_answers_panics_with_the_last_fault() {
        let all_buggy = || crash_on(BugTrigger::OnEventKind(EventKind::PacketIn));
        let mut nv = NVersionApp::new("all-buggy", vec![all_buggy(), all_buggy()]);
        deliver(&mut nv, &pin(2));
    }

    #[test]
    fn a_silent_group_is_a_crash_and_its_restore_revives_every_version() {
        let poisoned = || crash_on(BugTrigger::OnPacketToMac(MacAddr::from_index(13)));
        let mut group = Sandbox::new(Box::new(NVersionApp::new(
            "all-buggy",
            vec![poisoned(), poisoned(), poisoned()],
        )));
        let before = group.capture().unwrap();
        assert!(matches!(
            deliver_walled(&mut group, &pin(13)),
            Err(Fault::Panicked(text)) if text.starts_with(BUG_TEXT)
        ));
        group.revive(&before.flat()).unwrap();
        assert_eq!(deliver_walled(&mut group, &pin(2)).unwrap().len(), 1);
    }

    #[test]
    fn snapshot_restores_versions_and_revives_dead() {
        let mut nv = three_hubs_one_buggy(BugEffect::Crash);
        let healthy = nv.snapshot();
        deliver(&mut nv, &pin(13));
        assert_eq!(nv.live_versions(), 2);
        nv.restore(&healthy.flat()).unwrap();
        assert_eq!(nv.live_versions(), 3, "restore revives the crashed version");
        assert_eq!(nv.vote_stats().version_crashes, 0);
    }

    #[test]
    fn a_version_dead_in_a_checkpoint_is_dead_after_restoring_it() {
        let mut nv = three_hubs_one_buggy(BugEffect::Crash);
        let healthy = nv.snapshot();
        deliver(&mut nv, &pin(13));
        let wounded = nv.snapshot();
        nv.restore(&healthy.flat()).unwrap();
        assert_eq!(nv.live_versions(), 3);
        nv.restore(&wounded.flat()).unwrap();
        assert_eq!(nv.live_versions(), 2, "the checkpoint's dead stay dead");
        assert_eq!(deliver(&mut nv, &pin(2)).len(), 1);
    }

    #[test]
    fn a_version_that_panics_being_checkpointed_stops_voting() {
        struct SnapshotBomb(Hub);
        impl SdnApp for SnapshotBomb {
            fn name(&self) -> &str {
                "snapshot-bomb"
            }
            fn subscriptions(&self) -> Vec<EventKind> {
                self.0.subscriptions()
            }
            fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
                self.0.on_event(event, ctx);
            }
            fn snapshot(&self) -> Snapshot {
                panic!("snapshot bomb");
            }
            fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
                self.0.restore(bytes)
            }
        }
        let mut nv = NVersionApp::new(
            "hub-nv",
            vec![
                Box::new(Hub::new()),
                Box::new(Hub::new()),
                Box::new(SnapshotBomb(Hub::new())),
            ],
        );
        let saved = nv.snapshot();
        assert_eq!(nv.live_versions(), 2);
        assert_eq!(deliver(&mut nv, &pin(2)).len(), 1);
        assert_eq!(nv.vote_stats().unanimous, 1, "the two live versions agree");
        nv.restore(&saved.flat()).unwrap();
        assert_eq!(nv.live_versions(), 2, "and the checkpoint saved it dead");
    }

    #[test]
    fn a_healthy_standby_pair_passes_the_primary_output_through() {
        let mut pair =
            NVersionApp::standby("hub-hs", vec![Box::new(Hub::new()), Box::new(Hub::new())]);
        assert_eq!(deliver(&mut pair, &pin(2)).len(), 1);
        assert_eq!(pair.vote_stats().switchovers, 0);
        assert_eq!(
            pair.vote_stats().unanimous,
            0,
            "the standby rule takes no vote"
        );
    }

    #[test]
    fn a_nondeterministic_crash_switches_over_and_resyncs_the_primary() {
        // Diverging seeds: the RNG is not in a snapshot, so the primary's
        // crash points are not the standby's.
        let nondet = |seed| {
            crash_on(BugTrigger::WithProbability {
                per_mille: 400,
                seed,
            })
        };
        let mut pair = NVersionApp::standby("hub-hs", vec![nondet(7), nondet(100_003)]);
        let mut event = 0;
        while pair.vote_stats().switchovers == 0 {
            event += 1;
            assert!(event < 50, "no switch-over: {:?}", pair.vote_stats());
            assert_eq!(deliver(&mut pair, &pin(event)).len(), 1);
        }
        assert!(pair.vote_stats().version_crashes >= 1);
        assert_eq!(pair.live_versions(), 2, "the dead primary was re-synced");
    }

    #[test]
    fn a_deterministic_bug_in_every_version_reaches_the_groups_sandbox() {
        let poisoned = || crash_on(BugTrigger::OnPacketToMac(MacAddr::from_index(13)));
        let mut group = Sandbox::new(Box::new(NVersionApp::standby(
            "hub-hs",
            vec![poisoned(), poisoned()],
        )));
        assert_eq!(deliver_walled(&mut group, &pin(2)).unwrap().len(), 1);
        assert!(matches!(
            deliver_walled(&mut group, &pin(13)),
            Err(Fault::Panicked(text)) if text.starts_with(BUG_TEXT)
        ));
    }

    #[test]
    fn a_restore_resyncs_every_standby() {
        let mut pair =
            NVersionApp::standby("hub-hs", vec![Box::new(Hub::new()), Box::new(Hub::new())]);
        deliver(&mut pair, &pin(2));
        let saved = pair.snapshot();
        deliver(&mut pair, &pin(3));
        assert_ne!(pair.snapshot(), saved);
        pair.restore(&saved.flat()).unwrap();
        assert_eq!(
            pair.snapshot(),
            saved,
            "both versions are back at the checkpoint"
        );
        assert_eq!(pair.live_versions(), 2);
    }

    #[test]
    fn the_primary_wins_a_split_that_a_pair_majority_drops() {
        let versions = || -> Vec<Box<dyn SdnApp>> {
            vec![
                Box::new(Hub::new()),
                Box::new(FaultyApp::new(
                    Box::new(Hub::new()),
                    BugTrigger::OnPacketToMac(MacAddr::from_index(13)),
                    BugEffect::Blackhole,
                )),
            ]
        };
        let mut pair = NVersionApp::standby("hub-hs", versions());
        let cmds = deliver(&mut pair, &pin(13));
        assert_eq!(cmds.len(), 1, "the primary's flood, no black-hole");
        assert!(matches!(cmds[0].msg, Message::PacketOut(_)));
        let mut majority = NVersionApp::new("hub-nv", versions());
        assert!(deliver(&mut majority, &pin(13)).is_empty());
        assert_eq!(majority.vote_stats().no_majority, 1);
    }

    #[test]
    fn subscriptions_are_the_union() {
        let nv = three_hubs_one_buggy(BugEffect::Crash);
        let subs = nv.subscriptions();
        assert!(subs.contains(&EventKind::PacketIn));
    }

    #[test]
    #[should_panic(expected = "at least one version")]
    fn empty_group_rejected() {
        let _ = NVersionApp::new("empty", vec![]);
    }
}
