//! Property-based tests: wire-codec roundtrips, match algebra, and
//! inversion laws over randomly generated protocol values.

use legosdn_openflow::inverse::{inverse_into, restore_flow, PreState};
use legosdn_openflow::messages::{ErrorMsg, PortMod, SwitchFeatures};
use legosdn_openflow::prelude::*;
use legosdn_openflow::wire;
use legosdn_testkit::{forall, Rng};

// ---------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------

fn arb_u8(rng: &mut Rng) -> u8 {
    rng.next_u64() as u8
}

fn arb_u16(rng: &mut Rng) -> u16 {
    rng.next_u64() as u16
}

fn arb_mac(rng: &mut Rng) -> MacAddr {
    MacAddr::new(std::array::from_fn(|_| arb_u8(rng)))
}

fn arb_ipv4(rng: &mut Rng) -> Ipv4Addr {
    Ipv4Addr(rng.next_u64() as u32)
}

fn arb_portno(rng: &mut Rng) -> PortNo {
    match rng.gen_range(0u32..7) {
        0 => PortNo::Phys(rng.gen_range(1u16..0xff00)),
        1 => PortNo::InPort,
        2 => PortNo::Flood,
        3 => PortNo::All,
        4 => PortNo::Controller,
        5 => PortNo::Local,
        _ => PortNo::None,
    }
}

fn arb_ethertype(rng: &mut Rng) -> EtherType {
    match rng.gen_range(0u32..4) {
        0 => EtherType::Ipv4,
        1 => EtherType::Arp,
        2 => EtherType::Lldp,
        _ => EtherType::from_wire(arb_u16(rng)),
    }
}

fn arb_ipproto(rng: &mut Rng) -> IpProto {
    match rng.gen_range(0u32..4) {
        0 => IpProto::Icmp,
        1 => IpProto::Tcp,
        2 => IpProto::Udp,
        _ => IpProto::from_wire(arb_u8(rng)),
    }
}

fn arb_packet(rng: &mut Rng) -> Packet {
    let has_ip = rng.gen_bool(0.5);
    let ip_src = arb_ipv4(rng);
    let ip_dst = arb_ipv4(rng);
    Packet {
        eth_src: arb_mac(rng),
        eth_dst: arb_mac(rng),
        eth_type: arb_ethertype(rng),
        vlan: if rng.gen_bool(0.5) {
            VlanId::NONE
        } else {
            VlanId(rng.gen_range(0u16..4096))
        },
        vlan_pcp: rng.gen_range(0u8..8),
        ip_src: has_ip.then_some(ip_src),
        ip_dst: has_ip.then_some(ip_dst),
        ip_proto: rng.gen_option(arb_ipproto),
        ip_tos: arb_u8(rng),
        tp_src: rng.gen_option(arb_u16),
        tp_dst: rng.gen_option(arb_u16),
        payload_len: rng.gen_range(0u32..10_000),
    }
}

fn arb_match(rng: &mut Rng) -> Match {
    // Normalize prefixes: the wire format stores the network address
    // masked, so generate already-masked networks.
    let prefix = |rng: &mut Rng| {
        let (a, l) = (arb_ipv4(rng), rng.gen_range_inclusive(1u8..=32));
        (Ipv4Addr(a.0 & legosdn_openflow::types::prefix_mask(l)), l)
    };
    Match {
        in_port: rng.gen_option(arb_portno),
        eth_src: rng.gen_option(arb_mac),
        eth_dst: rng.gen_option(arb_mac),
        vlan: rng.gen_option(|r| VlanId(r.gen_range(0u16..4096))),
        vlan_pcp: rng.gen_option(|r| r.gen_range(0u8..8)),
        eth_type: rng.gen_option(arb_ethertype),
        ip_tos: rng.gen_option(arb_u8),
        ip_proto: rng.gen_option(arb_ipproto),
        ip_src: if rng.gen_bool(0.5) {
            Some(prefix(rng))
        } else {
            None
        },
        ip_dst: if rng.gen_bool(0.5) {
            Some(prefix(rng))
        } else {
            None
        },
        tp_src: rng.gen_option(arb_u16),
        tp_dst: rng.gen_option(arb_u16),
    }
}

fn arb_action(rng: &mut Rng) -> Action {
    match rng.gen_range(0u32..11) {
        0 => Action::Output(arb_portno(rng)),
        1 => Action::SetVlanId(VlanId(rng.gen_range(0u16..4096))),
        2 => Action::SetVlanPcp(rng.gen_range(0u8..8)),
        3 => Action::StripVlan,
        4 => Action::SetEthSrc(arb_mac(rng)),
        5 => Action::SetEthDst(arb_mac(rng)),
        6 => Action::SetIpSrc(arb_ipv4(rng)),
        7 => Action::SetIpDst(arb_ipv4(rng)),
        8 => Action::SetIpTos(arb_u8(rng)),
        9 => Action::SetTpSrc(arb_u16(rng)),
        _ => Action::SetTpDst(arb_u16(rng)),
    }
}

fn arb_flowmod_command(rng: &mut Rng) -> FlowModCommand {
    *rng.pick(&[
        FlowModCommand::Add,
        FlowModCommand::Modify,
        FlowModCommand::ModifyStrict,
        FlowModCommand::Delete,
        FlowModCommand::DeleteStrict,
    ])
}

fn arb_flowmod(rng: &mut Rng) -> FlowMod {
    FlowMod {
        command: arb_flowmod_command(rng),
        mat: arb_match(rng),
        cookie: rng.next_u64(),
        priority: arb_u16(rng),
        idle_timeout: arb_u16(rng),
        hard_timeout: arb_u16(rng),
        buffer_id: BufferId::NONE,
        out_port: arb_portno(rng),
        send_flow_removed: rng.gen_bool(0.5),
        check_overlap: rng.gen_bool(0.5),
        actions: rng.gen_vec(0..8, arb_action),
    }
}

fn arb_snapshot(rng: &mut Rng) -> FlowEntrySnapshot {
    FlowEntrySnapshot {
        mat: arb_match(rng),
        priority: arb_u16(rng),
        cookie: rng.next_u64(),
        idle_timeout: arb_u16(rng),
        hard_timeout: arb_u16(rng),
        remaining_hard: rng.gen_option(|r| r.gen_range(0u32..86_400)),
        duration_sec: rng.gen_range(0u32..86_400),
        packet_count: rng.next_u64(),
        byte_count: rng.next_u64(),
        send_flow_removed: rng.gen_bool(0.5),
        actions: rng.gen_vec(0..4, arb_action),
    }
}

fn arb_message(rng: &mut Rng) -> Message {
    match rng.gen_range(0u32..14) {
        0 => Message::Hello,
        1 => Message::FeaturesRequest,
        2 => Message::BarrierRequest,
        3 => Message::BarrierReply,
        4 => Message::EchoRequest(rng.gen_vec(0..64, arb_u8)),
        5 => Message::EchoReply(rng.gen_vec(0..64, arb_u8)),
        6 => Message::FlowMod(arb_flowmod(rng)),
        7 => Message::PacketOut(PacketOut {
            buffer_id: BufferId::NONE,
            in_port: arb_portno(rng),
            actions: rng.gen_vec(0..4, arb_action),
            packet: rng.gen_option(arb_packet),
        }),
        8 => Message::PacketIn(PacketIn {
            buffer_id: BufferId::NONE,
            in_port: arb_portno(rng),
            reason: if rng.gen_bool(0.5) {
                PacketInReason::Action
            } else {
                PacketInReason::NoMatch
            },
            packet: arb_packet(rng),
        }),
        9 => Message::FlowRemoved(FlowRemoved {
            mat: arb_match(rng),
            cookie: rng.next_u64(),
            priority: arb_u16(rng),
            reason: FlowRemovedReason::IdleTimeout,
            duration_sec: rng.gen_range(0u32..100_000),
            idle_timeout: arb_u16(rng),
            packet_count: rng.next_u64(),
            byte_count: rng.next_u64(),
        }),
        10 => Message::PortMod(PortMod {
            port_no: PortNo::Phys(rng.gen_range(1u16..0xff00)),
            hw_addr: arb_mac(rng),
            down: rng.gen_bool(0.5),
        }),
        11 => Message::StatsReply(StatsReply::Flow(rng.gen_vec(0..5, arb_snapshot))),
        12 => Message::FeaturesReply(SwitchFeatures {
            datapath_id: DatapathId(rng.next_u64()),
            n_buffers: rng.gen_range(0u32..1000),
            n_tables: arb_u8(rng),
            ports: vec![],
        }),
        _ => Message::Error(ErrorMsg {
            err_type: ErrorType::BadRequest,
            code: ErrorCode::Unsupported,
            data: rng.gen_vec(0..32, arb_u8),
        }),
    }
}

// ---------------------------------------------------------------------
// properties
// ---------------------------------------------------------------------

/// encode ∘ decode == identity for every message and xid.
#[test]
fn codec_roundtrip() {
    forall(512, |rng| {
        let msg = arb_message(rng);
        let xid = rng.next_u64() as u32;
        let bytes = wire::encode(&msg, Xid(xid));
        let (decoded, dxid) = wire::decode(&bytes).expect("decode");
        assert_eq!(decoded, msg);
        assert_eq!(dxid, Xid(xid));
    });
}

/// The header length field always equals the frame length.
#[test]
fn frame_len_matches() {
    forall(512, |rng| {
        let msg = arb_message(rng);
        let bytes = wire::encode(&msg, Xid(0));
        assert_eq!(wire::frame_len(&bytes).unwrap(), bytes.len());
    });
}

/// No prefix of a valid frame decodes successfully.
#[test]
fn truncated_never_decodes() {
    forall(512, |rng| {
        let msg = arb_message(rng);
        let bytes = wire::encode(&msg, Xid(1));
        let cut = rng.gen_range(0..bytes.len());
        assert!(wire::decode(&bytes[..cut]).is_err());
    });
}

/// Exact matches built from a packet always match that packet.
#[test]
fn from_packet_matches_self() {
    forall(512, |rng| {
        let pkt = arb_packet(rng);
        let port = rng.gen_range(1u16..100);
        let m = Match::from_packet(&pkt, PortNo::Phys(port));
        assert!(m.matches(&pkt, PortNo::Phys(port)));
    });
}

/// Subsumption is reflexive and Match::any() is a top element.
#[test]
fn subsumption_laws() {
    forall(512, |rng| {
        let m = arb_match(rng);
        assert!(m.subsumes(&m));
        assert!(Match::any().subsumes(&m));
        if m.specificity() > 0 {
            assert!(!m.subsumes(&Match::any()));
        }
    });
}

/// If `a` subsumes `b` and a packet matches `b`, it matches `a`.
/// (Tested through fully-concrete `b`s built from packets.)
#[test]
fn subsumption_implies_matching() {
    forall(512, |rng| {
        let pkt = arb_packet(rng);
        let wide = arb_match(rng);
        let port = rng.gen_range(1u16..50);
        let narrow = Match::from_packet(&pkt, PortNo::Phys(port));
        if wide.subsumes(&narrow) {
            assert!(
                wide.matches(&pkt, PortNo::Phys(port)),
                "{wide:?} subsumes exact match of packet but does not match packet"
            );
        }
    });
}

/// restore_flow rebuilds an Add carrying the snapshot's identity.
#[test]
fn restore_flow_preserves_identity() {
    forall(512, |rng| {
        let s = arb_snapshot(rng);
        let fm = restore_flow(&s);
        assert_eq!(fm.command, FlowModCommand::Add);
        assert_eq!(fm.mat, s.mat);
        assert_eq!(fm.priority, s.priority);
        assert_eq!(fm.cookie, s.cookie);
        assert_eq!(fm.actions, s.actions);
    });
}

/// The inverse of a fresh Add is exactly one strict delete of the same
/// match+priority.
#[test]
fn inverse_add_is_delete() {
    forall(512, |rng| {
        let mut fm = arb_flowmod(rng);
        fm.command = FlowModCommand::Add;
        let mut msgs = Vec::new();
        inverse_into(
            &Message::FlowMod(fm.clone()),
            &PreState::DisplacedFlows(vec![]),
            &mut msgs,
        );
        assert_eq!(msgs.len(), 1);
        match &msgs[0] {
            Message::FlowMod(d) => {
                assert_eq!(d.command, FlowModCommand::DeleteStrict);
                assert_eq!(&d.mat, &fm.mat);
                assert_eq!(d.priority, fm.priority);
            }
            other => panic!("expected flow-mod, got {other:?}"),
        }
    });
}

/// The inverse of a delete restores every deleted entry.
#[test]
fn inverse_delete_restores_all() {
    forall(512, |rng| {
        let snaps = rng.gen_vec(0..6, arb_snapshot);
        let fm = FlowMod::delete(Match::any());
        let mut msgs = Vec::new();
        inverse_into(
            &Message::FlowMod(fm),
            &PreState::DeletedFlows(snaps.clone()),
            &mut msgs,
        );
        assert_eq!(msgs.len(), snaps.len());
    });
}
