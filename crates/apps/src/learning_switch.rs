//! The classic reactive learning switch — one of the FloodLight apps the
//! paper moved into its prototype stub (§4.1).
//!
//! Per-switch MAC tables learned from packet-ins. Known destinations get an
//! exact-match flow (with idle timeout) plus a packet-out; unknown
//! destinations flood.

use crate::util::{packet_out_reply, snap, unsnap};
use legosdn_codec::{Codec, Memo};
use legosdn_controller::app::{Ctx, RestoreError, SdnApp};
use legosdn_controller::event::{Event, EventKind};
use legosdn_openflow::prelude::*;
use std::collections::BTreeMap;

/// Serializable state: per-switch MAC → port tables. Each switch's table
/// is a memoized segment (DESIGN.md §15): a learn re-encodes one table,
/// a packet that teaches nothing re-encodes none. The counters change on
/// every packet and stay plain.
#[derive(Clone, Debug, Default, PartialEq, Codec)]
struct State {
    tables: BTreeMap<DatapathId, Memo<BTreeMap<MacAddr, u16>>>,
    packets_handled: u64,
    flows_installed: u64,
}

/// A per-switch L2 learning switch.
#[derive(Debug, Default)]
pub struct LearningSwitch {
    state: State,
    /// Idle timeout for installed flows, seconds.
    pub idle_timeout: u16,
}

impl LearningSwitch {
    /// A learning switch with the FloodLight default 5-second idle timeout.
    #[must_use]
    pub fn new() -> Self {
        LearningSwitch {
            state: State::default(),
            idle_timeout: 5,
        }
    }

    /// Number of (switch, mac) entries learned.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.state.tables.values().map(|t| t.len()).sum()
    }

    /// Packets processed so far.
    #[must_use]
    pub fn packets_handled(&self) -> u64 {
        self.state.packets_handled
    }
}

impl SdnApp for LearningSwitch {
    fn name(&self) -> &str {
        "learning-switch"
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        vec![EventKind::PacketIn, EventKind::SwitchDown]
    }

    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        match event {
            Event::PacketIn(dpid, pi) => {
                let Some(in_port) = pi.in_port.phys() else {
                    return;
                };
                self.state.packets_handled += 1;
                let table = self.state.tables.entry(*dpid).or_default();
                // Learn only what is new or moved: a write forgets the
                // table's remembered encoding.
                let src = pi.packet.eth_src;
                if !src.is_multicast() && table.get(&src) != Some(&in_port) {
                    table.make_mut().insert(src, in_port);
                }
                let dst = pi.packet.eth_dst;
                match table.get(&dst) {
                    Some(&out_port) if !dst.is_multicast() => {
                        let fm = FlowMod::add(Match::from_packet(&pi.packet, pi.in_port))
                            .idle_timeout(self.idle_timeout)
                            .action(Action::Output(PortNo::Phys(out_port)));
                        self.state.flows_installed += 1;
                        ctx.send(*dpid, Message::FlowMod(fm));
                        ctx.send(
                            *dpid,
                            Message::PacketOut(packet_out_reply(
                                pi,
                                vec![Action::Output(PortNo::Phys(out_port))],
                            )),
                        );
                    }
                    _ => {
                        ctx.send(
                            *dpid,
                            Message::PacketOut(packet_out_reply(
                                pi,
                                vec![Action::Output(PortNo::Flood)],
                            )),
                        );
                    }
                }
            }
            Event::SwitchDown(dpid) => {
                self.state.tables.remove(dpid);
            }
            _ => {}
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        snap(&self.state)
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        self.state = unsnap(bytes)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_controller::services::{DeviceView, TopologyView};
    use legosdn_netsim::SimTime;

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

    fn run(app: &mut LearningSwitch, ev: &Event) -> Vec<legosdn_controller::app::Command> {
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        app.on_event(ev, &mut ctx);
        ctx.into_commands()
    }

    #[test]
    fn unknown_destination_floods() {
        let mut app = LearningSwitch::new();
        let cmds = run(&mut app, &pin(1, 1, 2, 3));
        assert_eq!(cmds.len(), 1);
        match &cmds[0].msg {
            Message::PacketOut(po) => {
                assert_eq!(po.actions, vec![Action::Output(PortNo::Flood)]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(app.entries(), 1, "source learned");
    }

    #[test]
    fn known_destination_installs_flow() {
        let mut app = LearningSwitch::new();
        run(&mut app, &pin(1, 2, 1, 7)); // learn host 2 at port 7
        let cmds = run(&mut app, &pin(1, 1, 2, 3)); // now 1 → 2 is known
        assert_eq!(cmds.len(), 2);
        match &cmds[0].msg {
            Message::FlowMod(fm) => {
                assert_eq!(fm.idle_timeout, 5);
                assert_eq!(fm.actions, vec![Action::Output(PortNo::Phys(7))]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(&cmds[1].msg, Message::PacketOut(_)));
    }

    #[test]
    fn tables_are_per_switch() {
        let mut app = LearningSwitch::new();
        run(&mut app, &pin(1, 2, 9, 7)); // learn host 2 on switch 1
        let cmds = run(&mut app, &pin(2, 1, 2, 3)); // switch 2 doesn't know host 2
        assert_eq!(cmds.len(), 1, "flood, not install: {cmds:?}");
    }

    #[test]
    fn broadcast_destination_always_floods_and_is_never_learned() {
        let mut app = LearningSwitch::new();
        let ev = Event::PacketIn(
            DatapathId(1),
            PacketIn {
                buffer_id: BufferId::NONE,
                in_port: PortNo::Phys(1),
                reason: PacketInReason::NoMatch,
                packet: Packet::ethernet(MacAddr::BROADCAST, MacAddr::BROADCAST),
            },
        );
        let cmds = run(&mut app, &ev);
        assert_eq!(cmds.len(), 1);
        assert_eq!(app.entries(), 0);
    }

    #[test]
    fn switch_down_forgets_table() {
        let mut app = LearningSwitch::new();
        run(&mut app, &pin(1, 1, 2, 3));
        assert_eq!(app.entries(), 1);
        run(&mut app, &Event::SwitchDown(DatapathId(1)));
        assert_eq!(app.entries(), 0);
    }

    #[test]
    fn snapshot_captures_learned_state() {
        let mut app = LearningSwitch::new();
        run(&mut app, &pin(1, 1, 2, 3));
        run(&mut app, &pin(1, 2, 1, 7));
        let snap = app.snapshot();
        let mut fresh = LearningSwitch::new();
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.entries(), 2);
        assert_eq!(fresh.packets_handled(), 2);
        // Restored app behaves identically: knows host 2.
        let cmds = run(&mut fresh, &pin(1, 1, 2, 3));
        assert_eq!(cmds.len(), 2);
    }

    #[test]
    fn a_repeated_packet_learns_nothing_and_dirties_no_table() {
        let mut app = LearningSwitch::new();
        run(&mut app, &pin(1, 1, 2, 3));
        run(&mut app, &pin(2, 1, 2, 4));
        let first = app.snapshot();
        assert!(app.state.tables.values().all(|t| t.is_warm()));
        let before = app.state.clone();

        run(&mut app, &pin(1, 1, 2, 3));
        assert!(
            app.state.tables.values().all(|t| t.is_warm()),
            "nothing learned, nothing to re-encode"
        );
        assert_eq!(
            app.state,
            State {
                packets_handled: before.packets_handled + 1,
                ..before
            }
        );
        // Byte-identical apart from `packets_handled` (the 8 bytes before
        // the trailing `flows_installed`).
        let second = app.snapshot();
        let counter = first.len() - 16..first.len() - 8;
        assert_eq!(first.len(), second.len());
        assert_eq!(first[..counter.start], second[..counter.start]);
        assert_eq!(first[counter.end..], second[counter.end..]);
        assert_eq!(second[counter], 3u64.to_le_bytes());

        // A move on one switch dirties that switch's table only.
        run(&mut app, &pin(1, 1, 2, 9));
        assert!(!app.state.tables[&DatapathId(1)].is_warm());
        assert!(app.state.tables[&DatapathId(2)].is_warm());
    }

    #[test]
    fn host_movement_updates_port() {
        let mut app = LearningSwitch::new();
        run(&mut app, &pin(1, 2, 9, 7));
        run(&mut app, &pin(1, 2, 9, 8)); // host 2 moved to port 8
        let cmds = run(&mut app, &pin(1, 1, 2, 3));
        match &cmds[0].msg {
            Message::FlowMod(fm) => {
                assert_eq!(fm.actions, vec![Action::Output(PortNo::Phys(8))]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
