//! Recovery over an app whose state lives in memoized segments
//! (`legosdn_codec::Memo`, DESIGN.md §15): checkpoints are taken from warm
//! memos, a restore primes them from the checkpoint's bytes, and replay
//! writes through them. Whatever mix of those a crash lands on, the
//! recovered app's snapshot must equal its pre-event snapshot byte for
//! byte.

use legosdn_apps::{BugEffect, BugTrigger, FaultyApp, LearningSwitch};
use legosdn_controller::event::Event;
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_crashpad::{
    CheckpointPolicy, CompromisePolicy, CrashPad, CrashPadConfig, DispatchResult, LocalSandbox,
    PolicyTable, TransformDirection,
};
use legosdn_netsim::SimTime;
use legosdn_openflow::prelude::*;

const POISON: u64 = 0x666;

fn pin(dpid: u64, src: u64, dst: u64, port: u16) -> Event {
    Event::PacketIn(
        DatapathId(dpid),
        PacketIn {
            buffer_id: BufferId::NONE,
            in_port: PortNo::Phys(port),
            reason: PacketInReason::NoMatch,
            packet: Packet::ethernet(MacAddr::from_index(src), MacAddr::from_index(dst)),
        },
    )
}

/// Learns on five switches, repeats that teach nothing, and a host move —
/// more than 16 events, so at interval 16 a second checkpoint is taken
/// from memos the first 16 events warmed and dirtied.
fn healthy_prefix() -> Vec<Event> {
    let mut events = Vec::new();
    for round in 0..4u64 {
        for dpid in 1..=5u64 {
            // New host per (round, switch); every other round repeats.
            events.push(pin(dpid, 10 * (round / 2) + dpid, 1, dpid as u16));
        }
    }
    events.push(pin(2, 2, 1, 9)); // host 2 moves on switch 2
    events.push(Event::SwitchDown(DatapathId(5)));
    events.push(pin(3, 77, 2, 4));
    events
}

fn crash_and_compare(interval: u64) {
    let mut pad = CrashPad::new(CrashPadConfig {
        checkpoints: CheckpointPolicy {
            interval,
            ..CheckpointPolicy::default()
        },
        policies: PolicyTable::with_default(CompromisePolicy::Absolute),
        transform_direction: TransformDirection::Decompose,
    });
    let mut sandbox = LocalSandbox::new(Box::new(FaultyApp::new(
        Box::new(LearningSwitch::new()),
        BugTrigger::OnPacketToMac(MacAddr::from_index(POISON)),
        BugEffect::Crash,
    )));
    let name = sandbox.name().to_string();
    let (topo, dev) = (TopologyView::default(), DeviceView::default());
    let dispatch = |pad: &mut CrashPad, sandbox: &mut LocalSandbox, ev: &Event| {
        pad.dispatch(sandbox, &name, ev, &topo, &dev, SimTime::ZERO)
    };

    // Two episodes: the second crash lands on memos primed by the first
    // recovery's restore and then written by live events.
    for episode in 0..2u64 {
        for ev in &healthy_prefix() {
            let r = dispatch(&mut pad, &mut sandbox, ev);
            assert!(matches!(r, DispatchResult::Delivered(_)), "{r:?}");
        }
        let before = sandbox.app().snapshot();
        let r = dispatch(&mut pad, &mut sandbox, &pin(1, 1, POISON, 1));
        assert!(
            matches!(r, DispatchResult::Recovered { .. }),
            "interval {interval} episode {episode}: {r:?}"
        );
        assert_eq!(
            sandbox.app().snapshot(),
            before,
            "interval {interval} episode {episode}: recovered state differs"
        );
    }
    assert_eq!(pad.stats().recoveries, 2);
    if interval > 1 {
        assert!(pad.stats().events_replayed > 0, "suffix was replayed");
    }
}

#[test]
fn recovered_snapshot_equals_pre_event_snapshot_at_interval_1() {
    crash_and_compare(1);
}

#[test]
fn recovered_snapshot_equals_pre_event_snapshot_at_interval_16() {
    crash_and_compare(16);
}
