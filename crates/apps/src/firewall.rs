//! A BigTap-style security app (paper Table 2): an ordered ACL evaluated on
//! packet-ins. Denied flows get a high-priority drop rule pushed to the
//! switch; allowed traffic is left to the routing apps.
//!
//! The firewall is the canonical "No Compromise" app for Crash-Pad's policy
//! language (§3.3): operators would rather lose availability than skip a
//! security decision.

use crate::util::{snap, unsnap};
use legosdn_codec::Codec;
use legosdn_controller::app::{Ctx, RestoreError, SdnApp, Snapshot};
use legosdn_controller::event::{Event, EventKind};
use legosdn_openflow::prelude::*;

/// ACL verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Codec)]
pub enum Verdict {
    Allow,
    Deny,
}

/// One ACL rule. `None` fields are wildcards; first matching rule wins.
#[derive(Clone, Debug, PartialEq, Eq, Codec)]
pub struct AclRule {
    pub src: Option<(Ipv4Addr, u8)>,
    pub dst: Option<(Ipv4Addr, u8)>,
    pub tp_dst: Option<u16>,
    pub verdict: Verdict,
}

impl AclRule {
    /// Deny everything to a destination port (e.g. block telnet).
    #[must_use]
    pub fn deny_port(tp_dst: u16) -> Self {
        AclRule {
            src: None,
            dst: None,
            tp_dst: Some(tp_dst),
            verdict: Verdict::Deny,
        }
    }

    /// Deny a source prefix.
    #[must_use]
    pub fn deny_src(net: Ipv4Addr, prefix: u8) -> Self {
        AclRule {
            src: Some((net, prefix)),
            dst: None,
            tp_dst: None,
            verdict: Verdict::Deny,
        }
    }

    fn matches(&self, pkt: &Packet) -> bool {
        if let Some((net, len)) = self.src {
            match pkt.ip_src {
                Some(ip) if ip.in_prefix(net, len) => {}
                _ => return false,
            }
        }
        if let Some((net, len)) = self.dst {
            match pkt.ip_dst {
                Some(ip) if ip.in_prefix(net, len) => {}
                _ => return false,
            }
        }
        if let Some(p) = self.tp_dst {
            if pkt.tp_dst != Some(p) {
                return false;
            }
        }
        true
    }
}

#[derive(Clone, Debug, Default, PartialEq, Codec)]
struct State {
    rules: Vec<AclRule>,
    denies_installed: u64,
    packets_evaluated: u64,
}

/// Priority for pushed drop rules: above everything reactive apps install.
const DROP_PRIORITY: u16 = 0xf000;

/// An ordered-ACL firewall.
#[derive(Debug, Default)]
pub struct Firewall {
    state: State,
}

impl Firewall {
    /// A firewall with the given ordered rule set (default allow).
    #[must_use]
    pub fn new(rules: Vec<AclRule>) -> Self {
        Firewall {
            state: State {
                rules,
                ..State::default()
            },
        }
    }

    /// Packets evaluated so far.
    #[must_use]
    pub fn packets_evaluated(&self) -> u64 {
        self.state.packets_evaluated
    }

    /// Drop rules installed so far.
    #[must_use]
    pub fn denies_installed(&self) -> u64 {
        self.state.denies_installed
    }

    fn evaluate(&self, pkt: &Packet) -> Verdict {
        self.state
            .rules
            .iter()
            .find(|r| r.matches(pkt))
            .map_or(Verdict::Allow, |r| r.verdict)
    }
}

impl SdnApp for Firewall {
    fn name(&self) -> &str {
        "firewall"
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        vec![EventKind::PacketIn]
    }

    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        let Event::PacketIn(dpid, pi) = event else {
            return;
        };
        self.state.packets_evaluated += 1;
        if self.evaluate(&pi.packet) == Verdict::Deny {
            // Push a targeted drop rule; the buffered packet is simply not
            // released, so it dies in the switch buffer.
            let fm = FlowMod::add(Match::from_packet(&pi.packet, pi.in_port))
                .priority(DROP_PRIORITY)
                .idle_timeout(60);
            self.state.denies_installed += 1;
            ctx.send(*dpid, Message::FlowMod(fm));
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

    fn pin(tp_dst: u16, src_ip: Ipv4Addr) -> Event {
        Event::PacketIn(
            DatapathId(1),
            PacketIn {
                buffer_id: BufferId(1),
                in_port: PortNo::Phys(1),
                reason: PacketInReason::NoMatch,
                packet: Packet::tcp(
                    MacAddr::from_index(1),
                    MacAddr::from_index(2),
                    src_ip,
                    Ipv4Addr::from_index(2),
                    5555,
                    tp_dst,
                ),
            },
        )
    }

    fn run(fw: &mut Firewall, ev: &Event) -> Vec<legosdn_controller::app::Command> {
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        let mut ctx = Ctx::new(SimTime::ZERO, &topo, &dev);
        fw.on_event(ev, &mut ctx);
        ctx.into_commands()
    }

    #[test]
    fn default_allow() {
        let mut fw = Firewall::new(vec![]);
        let cmds = run(&mut fw, &pin(80, Ipv4Addr::from_index(1)));
        assert!(cmds.is_empty());
        assert_eq!(fw.packets_evaluated(), 1);
        assert_eq!(fw.denies_installed(), 0);
    }

    #[test]
    fn deny_port_installs_high_priority_drop() {
        let mut fw = Firewall::new(vec![AclRule::deny_port(23)]);
        let cmds = run(&mut fw, &pin(23, Ipv4Addr::from_index(1)));
        assert_eq!(cmds.len(), 1);
        match &cmds[0].msg {
            Message::FlowMod(fm) => {
                assert_eq!(fm.priority, DROP_PRIORITY);
                assert!(fm.actions.is_empty(), "empty actions == drop");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Port 80 still allowed.
        assert!(run(&mut fw, &pin(80, Ipv4Addr::from_index(1))).is_empty());
    }

    #[test]
    fn deny_src_prefix() {
        let mut fw = Firewall::new(vec![AclRule::deny_src(Ipv4Addr::new(10, 0, 0, 0), 24)]);
        assert_eq!(run(&mut fw, &pin(80, Ipv4Addr::new(10, 0, 0, 77))).len(), 1);
        assert!(run(&mut fw, &pin(80, Ipv4Addr::new(10, 0, 1, 77))).is_empty());
    }

    #[test]
    fn first_match_wins() {
        let allow_then_deny = vec![
            AclRule {
                src: None,
                dst: None,
                tp_dst: Some(80),
                verdict: Verdict::Allow,
            },
            AclRule::deny_src(Ipv4Addr::new(10, 0, 0, 0), 8),
        ];
        let mut fw = Firewall::new(allow_then_deny);
        // Port 80 hits the allow first even from the denied prefix.
        assert!(run(&mut fw, &pin(80, Ipv4Addr::new(10, 1, 2, 3))).is_empty());
        // Port 443 falls through to the deny.
        assert_eq!(run(&mut fw, &pin(443, Ipv4Addr::new(10, 1, 2, 3))).len(), 1);
    }

    #[test]
    fn non_ip_traffic_passes_ip_rules() {
        let mut fw = Firewall::new(vec![AclRule::deny_src(Ipv4Addr::new(0, 0, 0, 0), 1)]);
        let l2 = Event::PacketIn(
            DatapathId(1),
            PacketIn {
                buffer_id: BufferId::NONE,
                in_port: PortNo::Phys(1),
                reason: PacketInReason::NoMatch,
                packet: Packet::ethernet(MacAddr::from_index(1), MacAddr::from_index(2)),
            },
        );
        assert!(run(&mut fw, &l2).is_empty());
    }

    #[test]
    fn counters_roundtrip_snapshot() {
        let mut fw = Firewall::new(vec![AclRule::deny_port(23)]);
        run(&mut fw, &pin(23, Ipv4Addr::from_index(1)));
        let s = fw.snapshot();
        let mut fresh = Firewall::new(vec![]);
        fresh.restore(&s.flat()).unwrap();
        assert_eq!(fresh.denies_installed(), 1);
        // Restored rules still enforce.
        assert_eq!(run(&mut fresh, &pin(23, Ipv4Addr::from_index(9))).len(), 1);
    }
}
