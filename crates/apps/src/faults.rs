//! Deterministic fault injection — the reproduction's stand-in for real
//! SDN-App bugs (FlowScale's bug tracker, paper §2.1).
//!
//! [`FaultyApp`] wraps any [`SdnApp`] with a *trigger* (when the bug fires)
//! and an *effect* (what it does). The paper's fault model distinguishes:
//!
//! - **Fail-stop** ([`BugEffect::Crash`]): the handler panics. Deterministic
//!   triggers reproduce the paper's core assumption that replaying the
//!   offending event re-crashes the app.
//! - **Byzantine** ([`BugEffect::Blackhole`], [`BugEffect::ForwardingLoop`],
//!   [`BugEffect::FlushFlows`]): the app emits rules that violate network
//!   invariants instead of crashing.
//! - **Non-deterministic** ([`BugTrigger::WithProbability`]): fires
//!   probabilistically from an RNG that is *excluded from snapshots*, so a
//!   restored app replaying the same event may not crash again — the §5
//!   clone-based mechanism's target.

use crate::util::{snap, unsnap};
use legosdn_codec::Codec;
use legosdn_controller::app::{Ctx, RestoreError, SdnApp, Snapshot};
use legosdn_controller::event::{Event, EventKind};
use legosdn_openflow::prelude::*;
use std::collections::BTreeMap;

/// When the injected bug fires.
#[derive(Clone, Debug, PartialEq, Codec)]
pub enum BugTrigger {
    /// Never fires (control group).
    Never,
    /// Fires on the nth event delivered (1-based), every time it recurs.
    OnNthEvent(u64),
    /// Fires on every event of this kind.
    OnEventKind(EventKind),
    /// Fires on the nth event of this kind (1-based).
    OnNthOfKind(EventKind, u64),
    /// Fires on any packet-in destined to this MAC — the classic
    /// "poisoned input" deterministic bug.
    OnPacketToMac(MacAddr),
    /// Fires on any event concerning this switch.
    OnSwitch(DatapathId),
    /// Fires with probability `per_mille`/1000 per event. The RNG state is
    /// deliberately NOT checkpointed: this models a non-deterministic bug.
    WithProbability { per_mille: u32, seed: u64 },
}

/// What the bug does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Codec)]
pub enum BugEffect {
    /// Fail-stop: panic inside the event handler.
    Crash,
    /// Byzantine: install a top-priority drop-everything rule on the
    /// event's switch — a black-hole.
    Blackhole,
    /// Byzantine: install match-any rules forwarding in both directions
    /// across the event switch's first known link — a forwarding loop.
    ForwardingLoop,
    /// Byzantine: delete every flow on every switch the app can see.
    FlushFlows,
}

#[derive(Clone, Debug, Default, PartialEq, Codec)]
struct State {
    events_seen: u64,
    per_kind: BTreeMap<EventKind, u64>,
    times_fired: u64,
    /// RNG for the probabilistic trigger. `skip` keeps it out of snapshots:
    /// a restored app re-rolls, modelling non-determinism.
    #[codec(skip)]
    rng: u64,
}

/// Saved form: own counters plus the inner app's opaque snapshot.
#[derive(Codec)]
struct Saved {
    own: State,
    inner: Snapshot,
}

/// An app wrapped with an injected bug.
pub struct FaultyApp {
    inner: Box<dyn SdnApp>,
    name: String,
    trigger: BugTrigger,
    effect: BugEffect,
    state: State,
}

impl FaultyApp {
    /// Wrap `inner` with a bug.
    #[must_use]
    pub fn new(inner: Box<dyn SdnApp>, trigger: BugTrigger, effect: BugEffect) -> Self {
        let name = format!("{}#buggy", inner.name());
        let seed = match &trigger {
            BugTrigger::WithProbability { seed, .. } => *seed | 1,
            _ => 1,
        };
        FaultyApp {
            inner,
            name,
            trigger,
            effect,
            state: State {
                rng: seed,
                ..State::default()
            },
        }
    }

    fn roll(&mut self) -> u64 {
        // xorshift64*; state never zero (seeded with |1).
        let mut x = self.state.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn triggered(&mut self, event: &Event) -> bool {
        let kind = event.kind();
        let nth = self.state.events_seen;
        let nth_of_kind = *self.state.per_kind.get(&kind).unwrap_or(&0);
        let trigger = self.trigger.clone();
        match &trigger {
            BugTrigger::Never => false,
            BugTrigger::OnNthEvent(n) => nth == *n,
            BugTrigger::OnEventKind(k) => kind == *k,
            BugTrigger::OnNthOfKind(k, n) => kind == *k && nth_of_kind == *n,
            BugTrigger::OnPacketToMac(mac) => matches!(
                event,
                Event::PacketIn(_, pi) if pi.packet.eth_dst == *mac
            ),
            BugTrigger::OnSwitch(dpid) => event.dpid() == Some(*dpid),
            BugTrigger::WithProbability { per_mille, .. } => {
                let per_mille = *per_mille;
                let r = self.roll() % 1000;
                r < u64::from(per_mille)
            }
        }
    }

    fn byzantine(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        match self.effect {
            BugEffect::Crash => unreachable!("handled by caller"),
            BugEffect::Blackhole => {
                // Black-hole the event's switch, or the first known one.
                let dpid = event
                    .dpid()
                    .or_else(|| ctx.topology.switches.keys().next().copied());
                if let Some(dpid) = dpid {
                    let fm = FlowMod::add(Match::any()).priority(u16::MAX);
                    ctx.send(dpid, Message::FlowMod(fm));
                }
            }
            BugEffect::ForwardingLoop => {
                // Bounce everything across the first link we can see.
                let link = event
                    .dpid()
                    .and_then(|d| ctx.topology.links_of(d).into_iter().next())
                    .or_else(|| ctx.topology.links().iter().next().copied());
                if let Some(link) = link {
                    for (here, _) in [(link.a, link.b), (link.b, link.a)] {
                        let fm = FlowMod::add(Match::any())
                            .priority(u16::MAX)
                            .action(Action::Output(PortNo::Phys(here.port)));
                        ctx.send(here.dpid, Message::FlowMod(fm));
                    }
                }
            }
            BugEffect::FlushFlows => {
                let dpids: Vec<DatapathId> = ctx.topology.switches.keys().copied().collect();
                for dpid in dpids {
                    ctx.send(dpid, Message::FlowMod(FlowMod::delete(Match::any())));
                }
            }
        }
    }
}

impl SdnApp for FaultyApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        let mut subs = self.inner.subscriptions();
        // Make sure trigger-relevant kinds are delivered.
        let extra = match &self.trigger {
            BugTrigger::OnEventKind(k) | BugTrigger::OnNthOfKind(k, _) => Some(*k),
            BugTrigger::OnPacketToMac(_) => Some(EventKind::PacketIn),
            _ => None,
        };
        if let Some(k) = extra {
            if !subs.contains(&k) {
                subs.push(k);
            }
        }
        subs
    }

    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        self.state.events_seen += 1;
        *self.state.per_kind.entry(event.kind()).or_insert(0) += 1;
        if self.triggered(event) {
            self.state.times_fired += 1;
            if self.effect == BugEffect::Crash {
                panic!(
                    "injected bug in {}: {:?} on {:?}",
                    self.name,
                    self.trigger,
                    event.kind()
                );
            }
            self.byzantine(event, ctx);
            // Byzantine apps keep running (their output is the failure).
        }
        self.inner.on_event(event, ctx);
    }

    fn snapshot(&self) -> Snapshot {
        snap(&Saved {
            own: self.state.clone(),
            inner: self.inner.snapshot(),
        })
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        let saved: Saved = unsnap(bytes)?;
        let rng = self.state.rng; // survives restore: non-determinism
        self.state = saved.own;
        self.state.rng = if rng == 0 { 1 } else { rng };
        self.inner.restore(&saved.inner.flat())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::Hub;
    use legosdn_controller::app::Command;
    use legosdn_controller::sandbox::{Fault, Sandbox};
    use legosdn_controller::services::{DeviceView, TopologyView};
    use legosdn_netsim::{Endpoint, SimTime};

    fn pin(dst: u64) -> Event {
        Event::PacketIn(
            DatapathId(1),
            PacketIn {
                buffer_id: BufferId::NONE,
                in_port: PortNo::Phys(1),
                reason: PacketInReason::NoMatch,
                packet: Packet::ethernet(MacAddr::from_index(9), MacAddr::from_index(dst)),
            },
        )
    }

    /// A hub with the given bug, behind the fault wall.
    fn buggy_hub(trigger: BugTrigger, effect: BugEffect) -> Sandbox {
        Sandbox::new(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            trigger,
            effect,
        )))
    }

    fn deliver(app: &mut Sandbox, ev: &Event) -> Result<Vec<Command>, Fault> {
        let mut topo = TopologyView::default();
        topo.switch_up(DatapathId(1), vec![]);
        topo.switch_up(DatapathId(2), vec![]);
        topo.link_up(
            Endpoint::new(DatapathId(1), 1),
            Endpoint::new(DatapathId(2), 1),
        );
        let dev = DeviceView::default();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        app.on_event(ev, &mut ctx)?;
        Ok(ctx.into_commands())
    }

    /// The wrapper's own counters, read from its snapshot.
    fn counters(app: &Sandbox) -> State {
        unsnap::<Saved>(&app.capture().unwrap().flat()).unwrap().own
    }

    #[test]
    fn never_trigger_is_transparent() {
        let mut app = buggy_hub(BugTrigger::Never, BugEffect::Crash);
        for _ in 0..10 {
            assert!(deliver(&mut app, &pin(2)).is_ok());
        }
        assert_eq!(counters(&app).times_fired, 0);
        assert_eq!(counters(&app).events_seen, 10);
    }

    #[test]
    fn poisoned_mac_crashes_deterministically() {
        let mut app = buggy_hub(
            BugTrigger::OnPacketToMac(MacAddr::from_index(13)),
            BugEffect::Crash,
        );
        assert!(deliver(&mut app, &pin(2)).is_ok());
        let before = app.capture().unwrap();
        let err = deliver(&mut app, &pin(13)).unwrap_err();
        assert!(String::from(err).contains("injected bug"));
        // Determinism: the same event crashes again after restore.
        app.revive(&before.flat()).unwrap();
        assert!(deliver(&mut app, &pin(13)).is_err());
    }

    #[test]
    fn nth_event_trigger_counts() {
        // The trigger, not the effect, is under test: a black-hole fires
        // without killing the app, so the 4th event can show it is over.
        let mut app = buggy_hub(BugTrigger::OnNthEvent(3), BugEffect::Blackhole);
        let fired = |app: &mut Sandbox| {
            deliver(app, &pin(2)).unwrap();
            counters(app).times_fired
        };
        assert_eq!(fired(&mut app), 0);
        assert_eq!(fired(&mut app), 0);
        assert_eq!(fired(&mut app), 1);
        // 4th event: trigger no longer matches.
        assert_eq!(fired(&mut app), 1);
    }

    #[test]
    fn nth_of_kind_trigger() {
        let mut app = buggy_hub(
            BugTrigger::OnNthOfKind(EventKind::SwitchDown, 2),
            BugEffect::Crash,
        );
        assert!(deliver(&mut app, &Event::SwitchDown(DatapathId(1))).is_ok());
        assert!(deliver(&mut app, &pin(2)).is_ok());
        assert!(deliver(&mut app, &Event::SwitchDown(DatapathId(1))).is_err());
    }

    #[test]
    fn blackhole_effect_emits_drop_all() {
        let mut app = buggy_hub(
            BugTrigger::OnEventKind(EventKind::PacketIn),
            BugEffect::Blackhole,
        );
        let cmds = deliver(&mut app, &pin(2)).unwrap();
        let blackhole = cmds.iter().find_map(|c| match &c.msg {
            Message::FlowMod(fm) if fm.priority == u16::MAX && fm.actions.is_empty() => Some(fm),
            _ => None,
        });
        assert!(blackhole.is_some(), "commands: {cmds:?}");
        // The inner app still ran (its flood is also present).
        assert!(cmds.iter().any(|c| matches!(&c.msg, Message::PacketOut(_))));
        assert_eq!(counters(&app).times_fired, 1);
    }

    #[test]
    fn forwarding_loop_effect_hits_both_ends() {
        let mut app = buggy_hub(
            BugTrigger::OnEventKind(EventKind::PacketIn),
            BugEffect::ForwardingLoop,
        );
        let cmds = deliver(&mut app, &pin(2)).unwrap();
        let loops: Vec<_> = cmds
            .iter()
            .filter(|c| matches!(&c.msg, Message::FlowMod(fm) if fm.priority == u16::MAX))
            .collect();
        assert_eq!(loops.len(), 2);
        let dpids: std::collections::BTreeSet<u64> = loops.iter().map(|c| c.dpid.0).collect();
        assert_eq!(dpids.len(), 2, "one rule per link end");
    }

    #[test]
    fn flush_effect_deletes_everywhere() {
        let mut app = buggy_hub(
            BugTrigger::OnEventKind(EventKind::PacketIn),
            BugEffect::FlushFlows,
        );
        let cmds = deliver(&mut app, &pin(2)).unwrap();
        let deletes = cmds
            .iter()
            .filter(|c| matches!(&c.msg, Message::FlowMod(fm) if fm.is_delete()))
            .count();
        assert_eq!(deletes, 2, "both switches in the view");
    }

    #[test]
    fn snapshot_nests_inner_state() {
        let mut app = buggy_hub(BugTrigger::Never, BugEffect::Crash);
        deliver(&mut app, &pin(2)).unwrap();
        deliver(&mut app, &pin(2)).unwrap();
        let s = app.capture().unwrap();
        let mut fresh = buggy_hub(BugTrigger::Never, BugEffect::Crash);
        fresh.revive(&s.flat()).unwrap();
        let saved: Saved = unsnap(&fresh.capture().unwrap().flat()).unwrap();
        assert_eq!(saved.own.events_seen, 2);
        // Inner hub's counter came along.
        let mut hub = Hub::new();
        hub.restore(&saved.inner.flat()).unwrap();
        assert_eq!(hub.packets_flooded(), 2);
    }

    #[test]
    fn probabilistic_bug_is_not_deterministic_under_restore() {
        // With p=1000/1000 the bug always fires; with the RNG excluded from
        // snapshots we can't assert re-roll divergence at p=1000, so use the
        // structure instead: the rng field must survive a restore (not reset
        // to the snapshotted value — there is none).
        let trigger = BugTrigger::WithProbability {
            per_mille: 500,
            seed: 42,
        };
        let first_crash = |app: &mut Sandbox| (0..100).find(|_| deliver(app, &pin(2)).is_err());
        // Drive events until the first crash.
        let mut app = buggy_hub(trigger.clone(), BugEffect::Crash);
        let start = app.capture().unwrap();
        let fired_at = first_crash(&mut app).expect("p=0.5 must fire within 100 events");
        // The fresh app fires at the same point (same seed); the restored
        // app's future rolls continue from a later RNG state.
        let mut fresh = buggy_hub(trigger, BugEffect::Crash);
        assert_eq!(first_crash(&mut fresh), Some(fired_at));
        app.revive(&start.flat()).unwrap();
        let restored_next = deliver(&mut app, &pin(2));
        let _ = restored_next; // may or may not crash — the point is it can differ
    }

    #[test]
    fn subscriptions_include_trigger_kind() {
        let app = FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnEventKind(EventKind::SwitchDown),
            BugEffect::Crash,
        );
        assert!(app.subscriptions().contains(&EventKind::SwitchDown));
        assert!(app.subscriptions().contains(&EventKind::PacketIn));
    }

    #[test]
    fn name_marks_the_wrapper() {
        let app = FaultyApp::new(Box::new(Hub::new()), BugTrigger::Never, BugEffect::Crash);
        assert_eq!(app.name(), "hub#buggy");
    }
}
