//! OpenFlow 1.0 actions (`ofp_action_*`).

use crate::packet::Packet;
use crate::types::{Ipv4Addr, MacAddr, PortNo, VlanId};
use legosdn_codec::Codec;

/// An OpenFlow 1.0 action.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Codec)]
pub enum Action {
    /// Forward out a port (physical or pseudo).
    Output(PortNo),
    /// Set (or add) the 802.1Q VLAN id.
    SetVlanId(VlanId),
    /// Set the 802.1Q priority.
    SetVlanPcp(u8),
    /// Strip the VLAN tag.
    StripVlan,
    /// Rewrite the Ethernet source address.
    SetEthSrc(MacAddr),
    /// Rewrite the Ethernet destination address.
    SetEthDst(MacAddr),
    /// Rewrite the IPv4 source address.
    SetIpSrc(Ipv4Addr),
    /// Rewrite the IPv4 destination address.
    SetIpDst(Ipv4Addr),
    /// Rewrite the IP type-of-service byte.
    SetIpTos(u8),
    /// Rewrite the transport source port.
    SetTpSrc(u16),
    /// Rewrite the transport destination port.
    SetTpDst(u16),
}

impl Action {
    /// Apply the action's header rewrite (if any) to `pkt`, returning the
    /// output port if this is an output action.
    ///
    /// The simulator's dataplane folds a packet through every rewrite of an
    /// action list with this, then emits that one rewritten packet at each
    /// output of the list, in order. An empty action list means drop.
    pub fn apply(&self, pkt: &mut Packet) -> Option<PortNo> {
        match *self {
            Action::Output(p) => return Some(p),
            Action::SetVlanId(v) => pkt.vlan = v,
            Action::SetVlanPcp(p) => pkt.vlan_pcp = p,
            Action::StripVlan => {
                pkt.vlan = VlanId::NONE;
                pkt.vlan_pcp = 0;
            }
            Action::SetEthSrc(m) => pkt.eth_src = m,
            Action::SetEthDst(m) => pkt.eth_dst = m,
            Action::SetIpSrc(a) => {
                if pkt.ip_src.is_some() {
                    pkt.ip_src = Some(a);
                }
            }
            Action::SetIpDst(a) => {
                if pkt.ip_dst.is_some() {
                    pkt.ip_dst = Some(a);
                }
            }
            Action::SetIpTos(t) => pkt.ip_tos = t,
            Action::SetTpSrc(p) => {
                if pkt.tp_src.is_some() {
                    pkt.tp_src = Some(p);
                }
            }
            Action::SetTpDst(p) => {
                if pkt.tp_dst.is_some() {
                    pkt.tp_dst = Some(p);
                }
            }
        }
        None
    }

    /// Whether this action emits the packet somewhere.
    #[must_use]
    pub fn is_output(&self) -> bool {
        matches!(self, Action::Output(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The packet every output of `actions` emits, and those outputs in
    /// order: the simulator's two passes over an action list.
    fn fold(actions: &[Action], pkt: &Packet) -> (Packet, Vec<PortNo>) {
        let mut p = pkt.clone();
        let outs = actions.iter().filter_map(|a| a.apply(&mut p)).collect();
        (p, outs)
    }

    fn pkt() -> Packet {
        Packet::tcp(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1234,
            80,
        )
    }

    #[test]
    fn empty_action_list_drops() {
        let (_, outs) = fold(&[], &pkt());
        assert!(outs.is_empty());
    }

    #[test]
    fn output_collects_ports_in_order() {
        let acts = vec![
            Action::Output(PortNo::Phys(1)),
            Action::Output(PortNo::Phys(2)),
        ];
        let (_, outs) = fold(&acts, &pkt());
        assert_eq!(outs, vec![PortNo::Phys(1), PortNo::Phys(2)]);
    }

    #[test]
    fn rewrites_before_output_take_effect() {
        let acts = vec![
            Action::SetEthDst(MacAddr::from_index(9)),
            Action::SetTpDst(8080),
            Action::Output(PortNo::Phys(1)),
        ];
        let (p, outs) = fold(&acts, &pkt());
        assert_eq!(p.eth_dst, MacAddr::from_index(9));
        assert_eq!(p.tp_dst, Some(8080));
        assert_eq!(outs.len(), 1);
    }

    #[test]
    fn vlan_set_and_strip() {
        let acts = vec![Action::SetVlanId(VlanId(7)), Action::SetVlanPcp(3)];
        let (p, _) = fold(&acts, &pkt());
        assert_eq!(p.vlan, VlanId(7));
        assert_eq!(p.vlan_pcp, 3);
        let (p2, _) = fold(&[Action::StripVlan], &p);
        assert_eq!(p2.vlan, VlanId::NONE);
        assert_eq!(p2.vlan_pcp, 0);
    }

    #[test]
    fn ip_rewrite_skipped_on_non_ip() {
        let l2 = Packet::ethernet(MacAddr::from_index(1), MacAddr::from_index(2));
        let (p, _) = fold(&[Action::SetIpDst(Ipv4Addr::new(1, 1, 1, 1))], &l2);
        assert_eq!(p.ip_dst, None);
    }

    #[test]
    fn is_output_discriminates() {
        assert!(Action::Output(PortNo::Flood).is_output());
        assert!(!Action::StripVlan.is_output());
    }
}
