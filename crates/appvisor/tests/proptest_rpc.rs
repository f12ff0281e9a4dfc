//! Property tests for the AppVisor RPC plane: frame roundtrips over
//! arbitrary protocol values, and end-to-end proxy⇄stub consistency for
//! random event streams.

use legosdn_appvisor::{
    decode_frame, encode_deliver, encode_deliver_delta, encode_frame, encode_frame_into, RpcMessage,
};
use legosdn_controller::app::Command;
use legosdn_controller::event::{Event, EventKind};
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_controller::{snapshot, EventTranslator};
use legosdn_netsim::{Endpoint, Network, SimTime, Topology};
use legosdn_openflow::prelude::*;
use legosdn_testkit::{forall, Rng};

fn arb_event(rng: &mut Rng) -> Event {
    match rng.gen_range(0u32..5) {
        0 => Event::SwitchUp(DatapathId(rng.gen_range(1u64..100))),
        1 => Event::SwitchDown(DatapathId(rng.gen_range(1u64..100))),
        2 => Event::LinkDown {
            a: Endpoint::new(DatapathId(rng.gen_range(1u64..50)), rng.gen_range(1u16..8)),
            b: Endpoint::new(DatapathId(rng.gen_range(1u64..50)), rng.gen_range(1u16..8)),
        },
        3 => Event::PacketIn(
            DatapathId(rng.gen_range(1u64..100)),
            PacketIn {
                buffer_id: BufferId::NONE,
                in_port: PortNo::Phys(rng.gen_range(1u16..48)),
                reason: PacketInReason::NoMatch,
                packet: Packet::ethernet(
                    MacAddr::from_index(rng.gen_range(1u64..64)),
                    MacAddr::from_index(rng.gen_range(1u64..64)),
                ),
            },
        ),
        _ => Event::Tick(SimTime::from_micros(rng.gen_range(0u64..10_000))),
    }
}

fn arb_command(rng: &mut Rng) -> Command {
    Command {
        dpid: DatapathId(rng.gen_range(1u64..100)),
        msg: Message::FlowMod(
            FlowMod::add(Match::eth_dst(MacAddr::from_index(rng.gen_range(1u64..64))))
                .action(Action::Output(PortNo::Phys(rng.gen_range(1u16..48)))),
        ),
    }
}

fn arb_views(rng: &mut Rng) -> (TopologyView, DeviceView) {
    let links = rng.gen_vec(0..10, |r| {
        (
            r.gen_range(1u64..20),
            r.gen_range(1u64..20),
            r.gen_range(1u16..8),
            r.gen_range(1u16..8),
        )
    });
    let hosts = rng.gen_vec(0..10, |r| {
        (
            r.gen_range(1u64..64),
            r.gen_range(1u64..20),
            r.gen_range(1u16..8),
        )
    });
    let mut topo = TopologyView::default();
    for (a, b, pa, pb) in links {
        topo.switch_up(DatapathId(a), vec![]);
        topo.switch_up(DatapathId(b), vec![]);
        if a != b {
            topo.link_up(
                Endpoint::new(DatapathId(a), pa),
                Endpoint::new(DatapathId(b), pb),
            );
        }
    }
    let mut dev = DeviceView::default();
    for (mac, d, p) in hosts {
        dev.learn(
            MacAddr::from_index(mac),
            Some(Ipv4Addr::from_index(mac as u32)),
            Endpoint::new(DatapathId(d), p),
            SimTime::ZERO,
        );
    }
    (topo, dev)
}

/// What a frame is on the wire: the body's length as `u32 LE`, then the
/// body exactly as the codec writes it.
fn prefixed(msg: &RpcMessage) -> Vec<u8> {
    let body = snapshot::to_bytes(msg).unwrap();
    let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
    bytes.extend(body);
    bytes
}

#[test]
fn frames_roundtrip() {
    forall(256, |rng| {
        let seq = rng.next_u64();
        let event = arb_event(rng);
        let (topology, devices) = arb_views(rng);
        let (held_topology, held_devices) = arb_views(rng);
        let commands = rng.gen_vec(0..8, arb_command);
        let bytes = rng.gen_vec(0..128, |r| r.next_u64() as u8);
        let name = rng.gen_name(1..25);
        let ok = rng.gen_bool(0.5);
        let frames = vec![
            RpcMessage::Register {
                app_name: name,
                subscriptions: vec![EventKind::PacketIn, EventKind::Tick],
            },
            RpcMessage::EventAck { seq, commands },
            RpcMessage::Crashed {
                seq,
                panic_message: "p".into(),
            },
            RpcMessage::SnapshotReply {
                seq,
                bytes: bytes.clone(),
            },
            RpcMessage::RestoreAck { seq, ok },
            RpcMessage::EventDeliverDelta {
                seq,
                event: event.clone(),
                base: seq.wrapping_sub(1),
                topology: held_topology.diff(&topology),
                devices: held_devices.diff(&devices),
                now: SimTime::from_micros(seq % 1_000_000),
            },
            RpcMessage::EventDeliver {
                seq,
                event,
                topology,
                devices,
                now: SimTime::from_micros(seq % 1_000_000),
            },
            RpcMessage::SnapshotRequest { seq },
            RpcMessage::RestoreRequest { seq, bytes },
            RpcMessage::Shutdown,
        ];
        for f in frames {
            let encoded = encode_frame(&f);
            assert_eq!(encoded, prefixed(&f), "length prefix, then codec bytes");
            let back = decode_frame(&encoded).expect("decode");
            assert_eq!(back, f);
        }
    });
}

/// The proxy writes its delivery frames from borrowed parts, into a
/// buffer an earlier frame left behind, and the stub writes its ack into
/// the buffer the delivery arrived in: each is byte for byte the frame of
/// the owned message, whatever the buffer held and however large it was.
#[test]
fn borrowed_delivery_encoders_match_the_owned_frames() {
    forall(256, |rng| {
        let seq = rng.next_u64();
        let base = rng.next_u64();
        let event = arb_event(rng);
        let (topology, devices) = arb_views(rng);
        let (held_topology, held_devices) = arb_views(rng);
        let now = SimTime::from_micros(seq % 1_000_000);
        let dirt = rng.gen_range(0u64..4096) as usize;
        let mut buf: Vec<u8> = (0..dirt).map(|i| i as u8 ^ 0xa5).collect();
        let topology_delta = held_topology.diff(&topology);
        let devices_delta = held_devices.diff(&devices);
        encode_deliver_delta(
            seq,
            &event,
            base,
            &topology_delta,
            &devices_delta,
            now,
            &mut buf,
        );
        let delta = RpcMessage::EventDeliverDelta {
            seq,
            event: event.clone(),
            base,
            topology: topology_delta,
            devices: devices_delta,
            now,
        };
        assert_eq!(buf, encode_frame(&delta));
        // The same buffer again, dirty with the delta frame.
        encode_deliver(seq, &event, &topology, &devices, now, &mut buf);
        let full = RpcMessage::EventDeliver {
            seq,
            event,
            topology,
            devices,
            now,
        };
        assert_eq!(buf, encode_frame(&full));
        let ack = RpcMessage::EventAck {
            seq,
            commands: Vec::new(),
        };
        encode_frame_into(&ack, &mut buf);
        assert_eq!(buf, encode_frame(&ack));
    });
}

/// The first-contact frame of the benchmark's network — `fat_tree(8)`
/// after discovery with every host learned, 27 KB of views — grown
/// through every buffer doubling on the way: same prefix, same bytes.
#[test]
fn golden_full_view_frame_is_prefix_plus_codec_bytes() {
    let topo = Topology::fat_tree(8);
    let mut net = Network::new(&topo);
    let mut tr = EventTranslator::new();
    for raw in net.poll_events() {
        tr.process(&mut net, raw);
    }
    for h in &topo.hosts {
        tr.devices.learn(h.mac, Some(h.ip), h.attach, SimTime::ZERO);
    }
    let full = RpcMessage::EventDeliver {
        seq: 1,
        event: Event::SwitchUp(DatapathId(1)),
        topology: tr.topology.clone(),
        devices: tr.devices.clone(),
        now: SimTime::from_secs(1),
    };
    let frame = encode_frame(&full);
    assert!(frame.len() > 27_000, "{} B", frame.len());
    assert_eq!(frame, prefixed(&full));
    let mut borrowed = Vec::new();
    encode_deliver(
        1,
        &Event::SwitchUp(DatapathId(1)),
        &tr.topology,
        &tr.devices,
        SimTime::from_secs(1),
        &mut borrowed,
    );
    assert_eq!(borrowed, frame);
    assert_eq!(decode_frame(&frame).unwrap(), full);
}

/// Truncation never decodes, never panics.
#[test]
fn truncated_frames_never_decode() {
    forall(256, |rng| {
        let event = arb_event(rng);
        let cut_frac = rng.gen_f64();
        let frame = encode_frame(&RpcMessage::EventDeliver {
            seq: 1,
            event,
            topology: TopologyView::default(),
            devices: DeviceView::default(),
            now: SimTime::ZERO,
        });
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        assert!(cut < frame.len());
        assert!(decode_frame(&frame[..cut]).is_err());
    });
}

/// A delta frame cut anywhere short of its end never decodes.
#[test]
fn delta_frames_fail_at_every_cut() {
    forall(32, |rng| {
        let (held_topology, held_devices) = arb_views(rng);
        let (topology, devices) = arb_views(rng);
        let frame = encode_frame(&RpcMessage::EventDeliverDelta {
            seq: 9,
            event: arb_event(rng),
            base: 8,
            topology: held_topology.diff(&topology),
            devices: held_devices.diff(&devices),
            now: SimTime::ZERO,
        });
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).is_err(), "cut {cut}");
        }
    });
}

/// Random garbage never panics the decoder.
#[test]
fn garbage_never_panics() {
    forall(256, |rng| {
        let bytes = rng.gen_vec(0..256, |r| r.next_u64() as u8);
        let _ = decode_frame(&bytes);
    });
}
