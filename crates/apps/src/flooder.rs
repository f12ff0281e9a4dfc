//! The Flooder — proactively installs a flood-all rule on every switch as it
//! joins, so packets never reach the controller. The third app the paper
//! ported into its stub (§4.1).

use crate::util::{packet_out_reply, snap, unsnap};
use legosdn_codec::Codec;
use legosdn_controller::app::{Ctx, RestoreError, SdnApp, Snapshot};
use legosdn_controller::event::{Event, EventKind};
use legosdn_openflow::prelude::*;
use std::collections::BTreeSet;

#[derive(Clone, Debug, Default, PartialEq, Codec)]
struct State {
    provisioned: BTreeSet<DatapathId>,
}

/// Installs `match-any → flood` on every switch at join time.
#[derive(Debug, Default)]
pub struct Flooder {
    state: State,
}

impl Flooder {
    /// A new flooder.
    #[must_use]
    pub fn new() -> Self {
        Flooder::default()
    }

    /// Switches provisioned so far.
    #[must_use]
    pub fn provisioned(&self) -> usize {
        self.state.provisioned.len()
    }
}

impl SdnApp for Flooder {
    fn name(&self) -> &str {
        "flooder"
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        vec![
            EventKind::SwitchUp,
            EventKind::SwitchDown,
            EventKind::PacketIn,
        ]
    }

    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        match event {
            Event::SwitchUp(dpid) if self.state.provisioned.insert(*dpid) => {
                let fm = FlowMod::add(Match::any())
                    .priority(1)
                    .action(Action::Output(PortNo::Flood));
                ctx.send(*dpid, Message::FlowMod(fm));
            }
            Event::SwitchDown(dpid) => {
                self.state.provisioned.remove(dpid);
            }
            // A miss that raced the rule install: flood reactively.
            Event::PacketIn(dpid, pi) => {
                ctx.send(
                    *dpid,
                    Message::PacketOut(packet_out_reply(pi, vec![Action::Output(PortNo::Flood)])),
                );
            }
            _ => {}
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

    fn run(app: &mut Flooder, ev: &Event) -> usize {
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        app.on_event(ev, &mut ctx);
        ctx.commands().len()
    }

    #[test]
    fn provisions_each_switch_once() {
        let mut app = Flooder::new();
        assert_eq!(run(&mut app, &Event::SwitchUp(DatapathId(1))), 1);
        assert_eq!(
            run(&mut app, &Event::SwitchUp(DatapathId(1))),
            0,
            "idempotent"
        );
        assert_eq!(run(&mut app, &Event::SwitchUp(DatapathId(2))), 1);
        assert_eq!(app.provisioned(), 2);
    }

    #[test]
    fn reprovisions_after_switch_bounce() {
        let mut app = Flooder::new();
        run(&mut app, &Event::SwitchUp(DatapathId(1)));
        run(&mut app, &Event::SwitchDown(DatapathId(1)));
        assert_eq!(run(&mut app, &Event::SwitchUp(DatapathId(1))), 1);
    }

    #[test]
    fn state_survives_snapshot() {
        let mut app = Flooder::new();
        run(&mut app, &Event::SwitchUp(DatapathId(1)));
        let snap = app.snapshot();
        let mut fresh = Flooder::new();
        fresh.restore(&snap.flat()).unwrap();
        // Restored app knows switch 1 is provisioned.
        assert_eq!(run(&mut fresh, &Event::SwitchUp(DatapathId(1))), 0);
    }
}
