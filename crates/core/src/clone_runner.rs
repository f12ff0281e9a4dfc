//! Hot-standby clones for non-deterministic bugs (paper §5).
//!
//! "LegoSDN can spawn a clone of an SDN-App, and let it run in parallel to
//! the actual SDN-App. LegoSDN can feed both the SDN-App and its clone the
//! same set of events, but only process the responses from the SDN-App and
//! ignore those from its clone. This allows for an easy switch-over
//! operation to the clone, when the primary fails. Since the bug is assumed
//! to be non-deterministic, the clone is unlikely to be affected."

use legosdn_controller::event::Event;
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_crashpad::{DeliveryResult, RecoverableApp};
use legosdn_netsim::SimTime;

/// Clone-pair bookkeeping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CloneStats {
    /// Events mirrored to the clone.
    pub events_mirrored: u64,
    /// Primary failures absorbed by switching over.
    pub switchovers: u64,
    /// Clone crashes while mirroring (it diverged or the bug bit it too).
    pub clone_crashes: u64,
    /// Failures where both primary and clone crashed on the same event.
    pub double_faults: u64,
}

/// A primary app shadowed by a clone receiving the same events.
///
/// Implements [`RecoverableApp`], so it can sit behind Crash-Pad like any
/// single app: Crash-Pad sees a crash only when *both* replicas fail on the
/// same event (the deterministic-bug case the clone cannot help with).
pub struct ClonePair<P: RecoverableApp, C: RecoverableApp> {
    primary: P,
    clone: C,
    clone_alive: bool,
    stats: CloneStats,
}

impl<P: RecoverableApp, C: RecoverableApp> ClonePair<P, C> {
    /// Pair `primary` with `clone`. The clone must start in an equivalent
    /// state (typically both freshly constructed).
    pub fn new(primary: P, clone: C) -> Self {
        ClonePair {
            primary,
            clone,
            clone_alive: true,
            stats: CloneStats::default(),
        }
    }

    /// Pair statistics.
    #[must_use]
    pub fn stats(&self) -> CloneStats {
        self.stats
    }

    /// Is the standby clone alive?
    #[must_use]
    pub fn clone_alive(&self) -> bool {
        self.clone_alive
    }
}

impl<P: RecoverableApp, C: RecoverableApp> RecoverableApp for ClonePair<P, C> {
    fn deliver(
        &mut self,
        event: &Event,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> DeliveryResult {
        // Mirror to the clone first. Its commands are normally discarded,
        // but kept at hand for a potential switch-over this event.
        let clone_output = if self.clone_alive {
            self.stats.events_mirrored += 1;
            match self.clone.deliver(event, topology, devices, now) {
                DeliveryResult::Ok(cmds) => Some(cmds),
                _ => {
                    self.stats.clone_crashes += 1;
                    self.clone_alive = false;
                    None
                }
            }
        } else {
            None
        };
        // Deliver to the primary; its responses are the real output.
        match self.primary.deliver(event, topology, devices, now) {
            DeliveryResult::Ok(cmds) => DeliveryResult::Ok(cmds),
            failure => match clone_output {
                Some(cmds) => {
                    // Switch-over: the clone survived the event (the bug
                    // really was non-deterministic). Promote its output and
                    // resynchronize the failed replica from its state so
                    // the pair stays redundant.
                    self.stats.switchovers += 1;
                    if let Ok(state) = self.clone.snapshot() {
                        let _ = self.primary.restore(&state);
                    }
                    DeliveryResult::Ok(cmds)
                }
                None => {
                    self.stats.double_faults += 1;
                    failure
                }
            },
        }
    }

    fn snapshot(&mut self) -> Result<Vec<u8>, String> {
        self.primary.snapshot()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.primary.restore(bytes)?;
        // Re-sync the standby too; a failed standby restore just leaves it
        // dead (the pair still functions as a lone primary).
        self.clone_alive = self.clone.restore(bytes).is_ok();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_apps::{BugEffect, BugTrigger, FaultyApp, Hub};
    use legosdn_controller::event::EventKind;
    use legosdn_controller::sandbox::Sandbox;
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

    fn nondet_hub(per_mille: u32, seed: u64) -> Sandbox {
        Sandbox::new(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::WithProbability { per_mille, seed },
            BugEffect::Crash,
        )))
    }

    fn deliver<P: RecoverableApp, C: RecoverableApp>(
        pair: &mut ClonePair<P, C>,
        ev: &Event,
    ) -> DeliveryResult {
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        pair.deliver(ev, &topo, &dev, SimTime::ZERO)
    }

    #[test]
    fn healthy_pair_passes_primary_output() {
        let mut pair = ClonePair::new(
            Sandbox::new(Box::new(Hub::new())),
            Sandbox::new(Box::new(Hub::new())),
        );
        match deliver(&mut pair, &pin(2)) {
            DeliveryResult::Ok(cmds) => assert_eq!(cmds.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(pair.stats().events_mirrored, 1);
        assert_eq!(pair.stats().switchovers, 0);
    }

    #[test]
    fn nondeterministic_crash_switches_over() {
        // Primary crashes with p≈1 (999/1000); clone uses a different seed
        // stream, so the crash points diverge. Drive events until the
        // primary fails and verify the pair keeps answering.
        let mut pair = ClonePair::new(nondet_hub(600, 1), nondet_hub(600, 999));
        let mut survived_via_switchover = false;
        for i in 0..50 {
            match deliver(&mut pair, &pin(i)) {
                DeliveryResult::Ok(_) => {
                    if pair.stats().switchovers > 0 {
                        survived_via_switchover = true;
                        break;
                    }
                }
                _ => break, // double fault — acceptable end
            }
        }
        assert!(
            survived_via_switchover || pair.stats().double_faults > 0,
            "stats: {:?}",
            pair.stats()
        );
    }

    #[test]
    fn deterministic_bug_defeats_the_clone() {
        // Both replicas crash on the same poisoned input: the pair reports
        // the failure upward (Crash-Pad's job from here).
        let bug = || {
            Sandbox::new(Box::new(FaultyApp::new(
                Box::new(Hub::new()),
                BugTrigger::OnPacketToMac(MacAddr::from_index(13)),
                BugEffect::Crash,
            )))
        };
        let mut pair = ClonePair::new(bug(), bug());
        assert!(matches!(deliver(&mut pair, &pin(2)), DeliveryResult::Ok(_)));
        if let DeliveryResult::Ok(_) = deliver(&mut pair, &pin(13)) {
            panic!("deterministic bug must not be absorbed")
        }
        assert_eq!(pair.stats().double_faults, 1);
    }

    #[test]
    fn restore_resyncs_both_replicas() {
        let mut pair = ClonePair::new(
            Sandbox::new(Box::new(Hub::new())),
            Sandbox::new(Box::new(Hub::new())),
        );
        deliver(&mut pair, &pin(2));
        let snap = pair.snapshot().unwrap();
        deliver(&mut pair, &pin(3));
        pair.restore(&snap).unwrap();
        assert!(pair.clone_alive());
        // Both replicas at flooded=1: next event works.
        assert!(matches!(deliver(&mut pair, &pin(4)), DeliveryResult::Ok(_)));
        let _ = EventKind::PacketIn;
    }
}
