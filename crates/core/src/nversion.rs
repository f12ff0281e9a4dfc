//! N-version programming for SDN apps (paper §3.4).
//!
//! "LegoSDN can be used to distribute events to the different versions of
//! the same SDN-App, and compare the outputs. [...] the correct output for
//! any given input can be chosen using a majority vote on the outputs from
//! the different versions."
//!
//! [`NVersionApp`] is itself an [`SdnApp`], so it composes with every other
//! LegoSDN mechanism: it can be sandboxed, checkpointed, and policed like
//! any single app. Each version runs in a [`Sandbox`] of its own; a version
//! that panics — voting, or being checkpointed — simply stops voting until
//! the group is restored.

use legosdn_codec::Codec;
use legosdn_controller::app::{Command, Ctx, RestoreError, SdnApp};
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
    /// Events with no majority (output dropped for safety).
    pub no_majority: u64,
    /// Per-event version crashes (contained).
    pub version_crashes: u64,
}

#[derive(Codec)]
struct Saved {
    stats: VoteStats,
    dead: Vec<bool>,
    versions: Vec<Vec<u8>>,
}

/// An N-version group voting on the output of each event.
pub struct NVersionApp {
    name: String,
    versions: Vec<Sandbox>,
    stats: VoteStats,
}

impl NVersionApp {
    /// Group `versions` under `name`.
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
            stats: VoteStats::default(),
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
}

/// Canonical form of a command list for equality voting.
fn ballot(commands: &[Command]) -> Vec<u8> {
    snapshot::to_bytes(&commands.to_vec()).unwrap_or_default()
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
        let mut ballots: BTreeMap<Vec<u8>, (usize, Vec<Command>)> = BTreeMap::new();
        let mut voters = 0usize;
        for version in &mut self.versions {
            let mut vctx = Ctx::new(ctx.now, ctx.topology, ctx.devices);
            match version.on_event(event, &mut vctx) {
                Ok(()) => {
                    voters += 1;
                    let commands = vctx.into_commands();
                    let key = ballot(&commands);
                    let entry = ballots.entry(key).or_insert((0, commands));
                    entry.0 += 1;
                }
                Err(Fault::Panicked(_)) => self.stats.version_crashes += 1,
                Err(_) => {}
            }
        }
        if voters == 0 {
            self.stats.no_majority += 1;
            return;
        }
        let (count, winner) = ballots
            .into_values()
            .max_by_key(|(count, _)| *count)
            .expect("voters > 0");
        if count == voters {
            self.stats.unanimous += 1;
        } else if count * 2 > voters {
            self.stats.majority_overrides += 1;
        } else {
            // No strict majority: emit nothing rather than something wrong.
            self.stats.no_majority += 1;
            return;
        }
        for c in winner {
            ctx.send(c.dpid, c.msg);
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let states: Vec<Option<Vec<u8>>> = self.versions.iter().map(|v| v.capture().ok()).collect();
        let saved = Saved {
            stats: self.stats,
            dead: states.iter().map(Option::is_none).collect(),
            versions: states.into_iter().map(Option::unwrap_or_default).collect(),
        };
        snapshot::to_bytes(&saved).expect("plain data")
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
            } else if let Err(Fault::Rejected(e)) = v.revive(s) {
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

    #[test]
    fn all_versions_dead_emits_nothing() {
        let mut nv = NVersionApp::new(
            "all-buggy",
            vec![Box::new(FaultyApp::new(
                Box::new(Hub::new()),
                BugTrigger::OnEventKind(EventKind::PacketIn),
                BugEffect::Crash,
            ))],
        );
        assert!(deliver(&mut nv, &pin(2)).is_empty());
        assert_eq!(nv.live_versions(), 0);
        assert!(deliver(&mut nv, &pin(2)).is_empty());
        assert_eq!(nv.vote_stats().no_majority, 2);
    }

    #[test]
    fn snapshot_restores_versions_and_revives_dead() {
        let mut nv = three_hubs_one_buggy(BugEffect::Crash);
        let healthy = nv.snapshot();
        deliver(&mut nv, &pin(13));
        assert_eq!(nv.live_versions(), 2);
        nv.restore(&healthy).unwrap();
        assert_eq!(nv.live_versions(), 3, "restore revives the crashed version");
        assert_eq!(nv.vote_stats().version_crashes, 0);
    }

    #[test]
    fn a_version_dead_in_a_checkpoint_is_dead_after_restoring_it() {
        let mut nv = three_hubs_one_buggy(BugEffect::Crash);
        let healthy = nv.snapshot();
        deliver(&mut nv, &pin(13));
        let wounded = nv.snapshot();
        nv.restore(&healthy).unwrap();
        assert_eq!(nv.live_versions(), 3);
        nv.restore(&wounded).unwrap();
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
            fn snapshot(&self) -> Vec<u8> {
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
        nv.restore(&saved).unwrap();
        assert_eq!(nv.live_versions(), 2, "and the checkpoint saved it dead");
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
