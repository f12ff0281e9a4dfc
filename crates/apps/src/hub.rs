//! The Hub — floods every packet, no learning. Bundled with FloodLight and
//! one of the apps the paper ran inside its stub (§4.1).

use crate::util::{packet_out_reply, snap, unsnap};
use legosdn_codec::Codec;
use legosdn_controller::app::{Ctx, RestoreError, SdnApp, Snapshot};
use legosdn_controller::event::{Event, EventKind};
use legosdn_openflow::prelude::*;

#[derive(Clone, Debug, Default, PartialEq, Codec)]
struct State {
    packets_flooded: u64,
}

/// Floods every packet-in out every port.
#[derive(Debug, Default)]
pub struct Hub {
    state: State,
}

impl Hub {
    /// A new hub.
    #[must_use]
    pub fn new() -> Self {
        Hub::default()
    }

    /// Packets flooded so far.
    #[must_use]
    pub fn packets_flooded(&self) -> u64 {
        self.state.packets_flooded
    }
}

impl SdnApp for Hub {
    fn name(&self) -> &str {
        "hub"
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        vec![EventKind::PacketIn]
    }

    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        if let Event::PacketIn(dpid, pi) = event {
            self.state.packets_flooded += 1;
            ctx.send(
                *dpid,
                Message::PacketOut(packet_out_reply(pi, vec![Action::Output(PortNo::Flood)])),
            );
        }
    }

    fn snapshot(&self) -> Snapshot {
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

    #[test]
    fn hub_floods_everything() {
        let mut hub = Hub::new();
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        let ev = Event::PacketIn(
            DatapathId(1),
            PacketIn {
                buffer_id: BufferId(3),
                in_port: PortNo::Phys(1),
                reason: PacketInReason::NoMatch,
                packet: Packet::ethernet(MacAddr::from_index(1), MacAddr::from_index(2)),
            },
        );
        hub.on_event(&ev, &mut ctx);
        hub.on_event(&ev, &mut ctx);
        assert_eq!(ctx.commands().len(), 2);
        assert_eq!(hub.packets_flooded(), 2);
        let snap = hub.snapshot();
        let mut fresh = Hub::new();
        fresh.restore(&snap.flat()).unwrap();
        assert_eq!(fresh.packets_flooded(), 2);
    }

    #[test]
    fn hub_ignores_other_events() {
        let mut hub = Hub::new();
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        hub.on_event(&Event::SwitchUp(DatapathId(1)), &mut ctx);
        assert!(ctx.commands().is_empty());
        assert_eq!(hub.packets_flooded(), 0);
    }
}
