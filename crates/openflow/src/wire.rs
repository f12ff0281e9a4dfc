//! Binary wire codec for the OpenFlow 1.0 subset.
//!
//! Every message frames as the standard OpenFlow header —
//! `version(1) | type(1) | length(2) | xid(4)` — followed by a body laid out
//! per the 1.0 specification where the model permits (the `ofp_match`
//! structure and wildcard bitfield, flow-mods, and the action TLVs are
//! faithful). Structures our model extends (parsed packets instead of raw
//! frames, named ports) use compact deterministic layouts.
//!
//! The codec is what AppVisor's proxy⇄stub RPC and the UDP transport carry,
//! so encode/decode cost is part of the isolation-latency experiments (E2).

use crate::actions::Action;
use crate::error::{CodecError, ErrorCode, ErrorType};
use crate::matching::Match;
use crate::messages::{
    ErrorMsg, FlowEntrySnapshot, FlowMod, FlowModCommand, FlowRemoved, FlowRemovedReason, Message,
    PacketIn, PacketInReason, PacketOut, PortDesc, PortMod, PortStats, PortStatus,
    PortStatusReason, StatsReply, StatsRequest, SwitchFeatures, TableStats,
};
use crate::packet::{EtherType, IpProto, Packet};
use crate::types::{BufferId, DatapathId, Ipv4Addr, MacAddr, PortNo, VlanId, Xid};

/// Big-endian append helpers over `Vec<u8>` — the subset of `bytes`'s
/// `BufMut` this codec needs, implemented locally (offline build, no
/// registry deps).
trait BufMut {
    fn put_u8(&mut self, v: u8);
    fn put_u16(&mut self, v: u16);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    fn put_slice(&mut self, v: &[u8]);
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
    fn put_u16(&mut self, v: u16) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }
    fn put_slice(&mut self, v: &[u8]) {
        self.extend_from_slice(v);
    }
}

/// The OpenFlow version byte this codec speaks.
pub const OFP_VERSION: u8 = 0x01;
/// Size of the fixed OpenFlow header.
pub const HEADER_LEN: usize = 8;

// -------------------------------------------------------------------------
// message type bytes (OpenFlow 1.0 numbering)
// -------------------------------------------------------------------------
const T_HELLO: u8 = 0;
const T_ERROR: u8 = 1;
const T_ECHO_REQUEST: u8 = 2;
const T_ECHO_REPLY: u8 = 3;
const T_FEATURES_REQUEST: u8 = 5;
const T_FEATURES_REPLY: u8 = 6;
const T_PACKET_IN: u8 = 10;
const T_FLOW_REMOVED: u8 = 11;
const T_PORT_STATUS: u8 = 12;
const T_PACKET_OUT: u8 = 13;
const T_FLOW_MOD: u8 = 14;
const T_PORT_MOD: u8 = 15;
const T_STATS_REQUEST: u8 = 16;
const T_STATS_REPLY: u8 = 17;
const T_BARRIER_REQUEST: u8 = 18;
const T_BARRIER_REPLY: u8 = 19;

// ofp_flow_wildcards bits
const OFPFW_IN_PORT: u32 = 1 << 0;
const OFPFW_DL_VLAN: u32 = 1 << 1;
const OFPFW_DL_SRC: u32 = 1 << 2;
const OFPFW_DL_DST: u32 = 1 << 3;
const OFPFW_DL_TYPE: u32 = 1 << 4;
const OFPFW_NW_PROTO: u32 = 1 << 5;
const OFPFW_TP_SRC: u32 = 1 << 6;
const OFPFW_TP_DST: u32 = 1 << 7;
const OFPFW_NW_SRC_SHIFT: u32 = 8;
const OFPFW_NW_DST_SHIFT: u32 = 14;
const OFPFW_DL_VLAN_PCP: u32 = 1 << 20;
const OFPFW_NW_TOS: u32 = 1 << 21;

/// Encode `msg` with transaction id `xid` into a fresh byte vector.
#[must_use]
pub fn encode(msg: &Message, xid: Xid) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    // Header placeholder; length patched at the end.
    buf.put_u8(OFP_VERSION);
    buf.put_u8(type_byte(msg));
    buf.put_u16(0);
    buf.put_u32(xid.0);
    encode_body(msg, &mut buf);
    let len = buf.len();
    assert!(
        len <= u16::MAX as usize,
        "message exceeds OpenFlow frame limit"
    );
    buf[2..4].copy_from_slice(&(len as u16).to_be_bytes());
    buf
}

/// Decode one complete message from `bytes`.
///
/// Errors if the buffer is truncated, the version is wrong, the type is
/// unknown, or bytes trail the body.
pub fn decode(bytes: &[u8]) -> Result<(Message, Xid), CodecError> {
    let mut r = Reader::new(bytes);
    let version = r.u8()?;
    if version != OFP_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let ty = r.u8()?;
    let len = r.u16()? as usize;
    let xid = Xid(r.u32()?);
    if bytes.len() < len {
        return Err(CodecError::Truncated {
            needed: len,
            available: bytes.len(),
        });
    }
    if bytes.len() > len {
        return Err(CodecError::TrailingBytes(bytes.len() - len));
    }
    let msg = decode_body(ty, &mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::TrailingBytes(r.remaining()));
    }
    Ok((msg, xid))
}

/// Peek the total frame length from a header prefix (for stream framing).
pub fn frame_len(header: &[u8]) -> Result<usize, CodecError> {
    if header.len() < 4 {
        return Err(CodecError::Truncated {
            needed: 4,
            available: header.len(),
        });
    }
    Ok(u16::from_be_bytes([header[2], header[3]]) as usize)
}

fn type_byte(msg: &Message) -> u8 {
    match msg {
        Message::Hello => T_HELLO,
        Message::Error(_) => T_ERROR,
        Message::EchoRequest(_) => T_ECHO_REQUEST,
        Message::EchoReply(_) => T_ECHO_REPLY,
        Message::FeaturesRequest => T_FEATURES_REQUEST,
        Message::FeaturesReply(_) => T_FEATURES_REPLY,
        Message::PacketIn(_) => T_PACKET_IN,
        Message::FlowRemoved(_) => T_FLOW_REMOVED,
        Message::PortStatus(_) => T_PORT_STATUS,
        Message::PacketOut(_) => T_PACKET_OUT,
        Message::FlowMod(_) => T_FLOW_MOD,
        Message::PortMod(_) => T_PORT_MOD,
        Message::StatsRequest(_) => T_STATS_REQUEST,
        Message::StatsReply(_) => T_STATS_REPLY,
        Message::BarrierRequest => T_BARRIER_REQUEST,
        Message::BarrierReply => T_BARRIER_REPLY,
    }
}

fn encode_body(msg: &Message, buf: &mut Vec<u8>) {
    match msg {
        Message::Hello
        | Message::FeaturesRequest
        | Message::BarrierRequest
        | Message::BarrierReply => {}
        Message::EchoRequest(data) | Message::EchoReply(data) => buf.put_slice(data),
        Message::Error(e) => {
            buf.put_u16(e.err_type.to_wire());
            buf.put_u16(e.code.to_wire());
            buf.put_slice(&e.data);
        }
        Message::FeaturesReply(f) => {
            buf.put_u64(f.datapath_id.0);
            buf.put_u32(f.n_buffers);
            buf.put_u8(f.n_tables);
            buf.put_slice(&[0; 3]);
            buf.put_u16(f.ports.len() as u16);
            for p in &f.ports {
                put_port_desc(buf, p);
            }
        }
        Message::PacketIn(pi) => {
            buf.put_u32(pi.buffer_id.0);
            buf.put_u16(pi.in_port.to_wire());
            buf.put_u8(match pi.reason {
                PacketInReason::NoMatch => 0,
                PacketInReason::Action => 1,
            });
            buf.put_u8(0);
            put_packet(buf, &pi.packet);
        }
        Message::PacketOut(po) => {
            buf.put_u32(po.buffer_id.0);
            buf.put_u16(po.in_port.to_wire());
            buf.put_u16(po.actions.len() as u16);
            for a in &po.actions {
                put_action(buf, a);
            }
            match &po.packet {
                Some(p) => {
                    buf.put_u8(1);
                    put_packet(buf, p);
                }
                None => buf.put_u8(0),
            }
        }
        Message::FlowMod(fm) => put_flow_mod(buf, fm),
        Message::FlowRemoved(fr) => {
            put_match(buf, &fr.mat);
            buf.put_u64(fr.cookie);
            buf.put_u16(fr.priority);
            buf.put_u8(match fr.reason {
                FlowRemovedReason::IdleTimeout => 0,
                FlowRemovedReason::HardTimeout => 1,
                FlowRemovedReason::Delete => 2,
            });
            buf.put_u8(0);
            buf.put_u32(fr.duration_sec);
            buf.put_u16(fr.idle_timeout);
            buf.put_u64(fr.packet_count);
            buf.put_u64(fr.byte_count);
        }
        Message::PortStatus(ps) => {
            buf.put_u8(match ps.reason {
                PortStatusReason::Add => 0,
                PortStatusReason::Delete => 1,
                PortStatusReason::Modify => 2,
            });
            buf.put_slice(&[0; 7]);
            put_port_desc(buf, &ps.desc);
        }
        Message::PortMod(pm) => {
            buf.put_u16(pm.port_no.to_wire());
            buf.put_slice(&pm.hw_addr.octets());
            buf.put_u8(u8::from(pm.down));
            buf.put_slice(&[0; 7]);
        }
        Message::StatsRequest(sr) => match sr {
            StatsRequest::Flow { mat, out_port } => {
                buf.put_u16(1);
                put_match(buf, mat);
                buf.put_u16(out_port.to_wire());
            }
            StatsRequest::Aggregate { mat, out_port } => {
                buf.put_u16(2);
                put_match(buf, mat);
                buf.put_u16(out_port.to_wire());
            }
            StatsRequest::Table => buf.put_u16(3),
            StatsRequest::Port { port } => {
                buf.put_u16(4);
                buf.put_u16(port.to_wire());
            }
        },
        Message::StatsReply(sr) => match sr {
            StatsReply::Flow(flows) => {
                buf.put_u16(1);
                buf.put_u16(flows.len() as u16);
                for f in flows {
                    put_flow_snapshot(buf, f);
                }
            }
            StatsReply::Aggregate {
                packet_count,
                byte_count,
                flow_count,
            } => {
                buf.put_u16(2);
                buf.put_u64(*packet_count);
                buf.put_u64(*byte_count);
                buf.put_u32(*flow_count);
            }
            StatsReply::Table(t) => {
                buf.put_u16(3);
                buf.put_u32(t.active_count);
                buf.put_u64(t.lookup_count);
                buf.put_u64(t.matched_count);
                buf.put_u32(t.max_entries);
            }
            StatsReply::Port(ports) => {
                buf.put_u16(4);
                buf.put_u16(ports.len() as u16);
                for p in ports {
                    buf.put_u16(p.port_no);
                    buf.put_u64(p.rx_packets);
                    buf.put_u64(p.tx_packets);
                    buf.put_u64(p.rx_bytes);
                    buf.put_u64(p.tx_bytes);
                    buf.put_u64(p.rx_dropped);
                    buf.put_u64(p.tx_dropped);
                }
            }
        },
    }
}

fn decode_body(ty: u8, r: &mut Reader<'_>) -> Result<Message, CodecError> {
    Ok(match ty {
        T_HELLO => Message::Hello,
        T_FEATURES_REQUEST => Message::FeaturesRequest,
        T_BARRIER_REQUEST => Message::BarrierRequest,
        T_BARRIER_REPLY => Message::BarrierReply,
        T_ECHO_REQUEST => Message::EchoRequest(r.rest().to_vec()),
        T_ECHO_REPLY => Message::EchoReply(r.rest().to_vec()),
        T_ERROR => {
            let ety = ErrorType::from_wire(r.u16()?).ok_or(CodecError::BadField("error type"))?;
            let code = ErrorCode::from_wire(r.u16()?);
            Message::Error(ErrorMsg {
                err_type: ety,
                code,
                data: r.rest().to_vec(),
            })
        }
        T_FEATURES_REPLY => {
            let datapath_id = DatapathId(r.u64()?);
            let n_buffers = r.u32()?;
            let n_tables = r.u8()?;
            r.skip(3)?;
            let n_ports = r.u16()? as usize;
            let mut ports = Vec::with_capacity(n_ports.min(1024));
            for _ in 0..n_ports {
                ports.push(get_port_desc(r)?);
            }
            Message::FeaturesReply(SwitchFeatures {
                datapath_id,
                n_buffers,
                n_tables,
                ports,
            })
        }
        T_PACKET_IN => {
            let buffer_id = BufferId(r.u32()?);
            let in_port = PortNo::from_wire(r.u16()?);
            let reason = match r.u8()? {
                0 => PacketInReason::NoMatch,
                1 => PacketInReason::Action,
                _ => return Err(CodecError::BadField("packet-in reason")),
            };
            r.skip(1)?;
            let packet = get_packet(r)?;
            Message::PacketIn(PacketIn {
                buffer_id,
                in_port,
                reason,
                packet,
            })
        }
        T_PACKET_OUT => {
            let buffer_id = BufferId(r.u32()?);
            let in_port = PortNo::from_wire(r.u16()?);
            let n_actions = r.u16()? as usize;
            let mut actions = Vec::with_capacity(n_actions.min(256));
            for _ in 0..n_actions {
                actions.push(get_action(r)?);
            }
            let packet = match r.u8()? {
                0 => None,
                1 => Some(get_packet(r)?),
                _ => return Err(CodecError::BadField("packet-out data flag")),
            };
            Message::PacketOut(PacketOut {
                buffer_id,
                in_port,
                actions,
                packet,
            })
        }
        T_FLOW_MOD => Message::FlowMod(get_flow_mod(r)?),
        T_FLOW_REMOVED => {
            let mat = get_match(r)?;
            let cookie = r.u64()?;
            let priority = r.u16()?;
            let reason = match r.u8()? {
                0 => FlowRemovedReason::IdleTimeout,
                1 => FlowRemovedReason::HardTimeout,
                2 => FlowRemovedReason::Delete,
                _ => return Err(CodecError::BadField("flow-removed reason")),
            };
            r.skip(1)?;
            let duration_sec = r.u32()?;
            let idle_timeout = r.u16()?;
            let packet_count = r.u64()?;
            let byte_count = r.u64()?;
            Message::FlowRemoved(FlowRemoved {
                mat,
                cookie,
                priority,
                reason,
                duration_sec,
                idle_timeout,
                packet_count,
                byte_count,
            })
        }
        T_PORT_STATUS => {
            let reason = match r.u8()? {
                0 => PortStatusReason::Add,
                1 => PortStatusReason::Delete,
                2 => PortStatusReason::Modify,
                _ => return Err(CodecError::BadField("port-status reason")),
            };
            r.skip(7)?;
            let desc = get_port_desc(r)?;
            Message::PortStatus(PortStatus { reason, desc })
        }
        T_PORT_MOD => {
            let port_no = PortNo::from_wire(r.u16()?);
            let hw_addr = MacAddr::new(r.mac()?);
            let down = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(CodecError::BadField("port-mod down flag")),
            };
            r.skip(7)?;
            Message::PortMod(PortMod {
                port_no,
                hw_addr,
                down,
            })
        }
        T_STATS_REQUEST => {
            let sty = r.u16()?;
            Message::StatsRequest(match sty {
                1 => StatsRequest::Flow {
                    mat: get_match(r)?,
                    out_port: PortNo::from_wire(r.u16()?),
                },
                2 => StatsRequest::Aggregate {
                    mat: get_match(r)?,
                    out_port: PortNo::from_wire(r.u16()?),
                },
                3 => StatsRequest::Table,
                4 => StatsRequest::Port {
                    port: PortNo::from_wire(r.u16()?),
                },
                _ => return Err(CodecError::BadField("stats-request type")),
            })
        }
        T_STATS_REPLY => {
            let sty = r.u16()?;
            Message::StatsReply(match sty {
                1 => {
                    let n = r.u16()? as usize;
                    let mut flows = Vec::with_capacity(n.min(4096));
                    for _ in 0..n {
                        flows.push(get_flow_snapshot(r)?);
                    }
                    StatsReply::Flow(flows)
                }
                2 => StatsReply::Aggregate {
                    packet_count: r.u64()?,
                    byte_count: r.u64()?,
                    flow_count: r.u32()?,
                },
                3 => StatsReply::Table(TableStats {
                    active_count: r.u32()?,
                    lookup_count: r.u64()?,
                    matched_count: r.u64()?,
                    max_entries: r.u32()?,
                }),
                4 => {
                    let n = r.u16()? as usize;
                    let mut ports = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        ports.push(PortStats {
                            port_no: r.u16()?,
                            rx_packets: r.u64()?,
                            tx_packets: r.u64()?,
                            rx_bytes: r.u64()?,
                            tx_bytes: r.u64()?,
                            rx_dropped: r.u64()?,
                            tx_dropped: r.u64()?,
                        });
                    }
                    StatsReply::Port(ports)
                }
                _ => return Err(CodecError::BadField("stats-reply type")),
            })
        }
        other => return Err(CodecError::UnknownType(other)),
    })
}

// -------------------------------------------------------------------------
// structure codecs
// -------------------------------------------------------------------------

/// The `ofp_flow_mod` body.
fn put_flow_mod(buf: &mut Vec<u8>, fm: &FlowMod) {
    put_match(buf, &fm.mat);
    buf.put_u64(fm.cookie);
    buf.put_u16(match fm.command {
        FlowModCommand::Add => 0,
        FlowModCommand::Modify => 1,
        FlowModCommand::ModifyStrict => 2,
        FlowModCommand::Delete => 3,
        FlowModCommand::DeleteStrict => 4,
    });
    buf.put_u16(fm.idle_timeout);
    buf.put_u16(fm.hard_timeout);
    buf.put_u16(fm.priority);
    buf.put_u32(fm.buffer_id.0);
    buf.put_u16(fm.out_port.to_wire());
    let mut flags = 0u16;
    if fm.send_flow_removed {
        flags |= 1;
    }
    if fm.check_overlap {
        flags |= 2;
    }
    buf.put_u16(flags);
    buf.put_u16(fm.actions.len() as u16);
    for a in &fm.actions {
        put_action(buf, a);
    }
}

fn get_flow_mod(r: &mut Reader<'_>) -> Result<FlowMod, CodecError> {
    let mat = get_match(r)?;
    let cookie = r.u64()?;
    let command = match r.u16()? {
        0 => FlowModCommand::Add,
        1 => FlowModCommand::Modify,
        2 => FlowModCommand::ModifyStrict,
        3 => FlowModCommand::Delete,
        4 => FlowModCommand::DeleteStrict,
        _ => return Err(CodecError::BadField("flow-mod command")),
    };
    let idle_timeout = r.u16()?;
    let hard_timeout = r.u16()?;
    let priority = r.u16()?;
    let buffer_id = BufferId(r.u32()?);
    let out_port = PortNo::from_wire(r.u16()?);
    let flags = r.u16()?;
    let n_actions = r.u16()? as usize;
    let mut actions = Vec::with_capacity(n_actions.min(256));
    for _ in 0..n_actions {
        actions.push(get_action(r)?);
    }
    Ok(FlowMod {
        command,
        mat,
        cookie,
        priority,
        idle_timeout,
        hard_timeout,
        buffer_id,
        out_port,
        send_flow_removed: flags & 1 != 0,
        check_overlap: flags & 2 != 0,
        actions,
    })
}

fn put_match(buf: &mut Vec<u8>, m: &Match) {
    let mut wc = 0u32;
    if m.in_port.is_none() {
        wc |= OFPFW_IN_PORT;
    }
    if m.vlan.is_none() {
        wc |= OFPFW_DL_VLAN;
    }
    if m.eth_src.is_none() {
        wc |= OFPFW_DL_SRC;
    }
    if m.eth_dst.is_none() {
        wc |= OFPFW_DL_DST;
    }
    if m.eth_type.is_none() {
        wc |= OFPFW_DL_TYPE;
    }
    if m.ip_proto.is_none() {
        wc |= OFPFW_NW_PROTO;
    }
    if m.tp_src.is_none() {
        wc |= OFPFW_TP_SRC;
    }
    if m.tp_dst.is_none() {
        wc |= OFPFW_TP_DST;
    }
    if m.vlan_pcp.is_none() {
        wc |= OFPFW_DL_VLAN_PCP;
    }
    if m.ip_tos.is_none() {
        wc |= OFPFW_NW_TOS;
    }
    let src_wild = match m.ip_src {
        Some((_, len)) => u32::from(32 - len.min(32)),
        None => 32,
    };
    let dst_wild = match m.ip_dst {
        Some((_, len)) => u32::from(32 - len.min(32)),
        None => 32,
    };
    wc |= src_wild << OFPFW_NW_SRC_SHIFT;
    wc |= dst_wild << OFPFW_NW_DST_SHIFT;

    buf.put_u32(wc);
    buf.put_u16(m.in_port.map_or(0, PortNo::to_wire));
    buf.put_slice(&m.eth_src.unwrap_or_default().octets());
    buf.put_slice(&m.eth_dst.unwrap_or_default().octets());
    buf.put_u16(m.vlan.unwrap_or(VlanId(0)).0);
    buf.put_u8(m.vlan_pcp.unwrap_or(0));
    buf.put_u8(0); // pad
    buf.put_u16(m.eth_type.map_or(0, EtherType::to_wire));
    buf.put_u8(m.ip_tos.unwrap_or(0));
    buf.put_u8(m.ip_proto.map_or(0, IpProto::to_wire));
    buf.put_slice(&[0; 2]); // pad
    buf.put_u32(m.ip_src.map_or(0, |(a, _)| a.0));
    buf.put_u32(m.ip_dst.map_or(0, |(a, _)| a.0));
    buf.put_u16(m.tp_src.unwrap_or(0));
    buf.put_u16(m.tp_dst.unwrap_or(0));
}

fn get_match(r: &mut Reader<'_>) -> Result<Match, CodecError> {
    let wc = r.u32()?;
    let in_port = PortNo::from_wire(r.u16()?);
    let eth_src = MacAddr::new(r.mac()?);
    let eth_dst = MacAddr::new(r.mac()?);
    let vlan = VlanId(r.u16()?);
    let vlan_pcp = r.u8()?;
    r.skip(1)?;
    let eth_type = EtherType::from_wire(r.u16()?);
    let ip_tos = r.u8()?;
    let ip_proto = IpProto::from_wire(r.u8()?);
    r.skip(2)?;
    let ip_src = Ipv4Addr(r.u32()?);
    let ip_dst = Ipv4Addr(r.u32()?);
    let tp_src = r.u16()?;
    let tp_dst = r.u16()?;

    let src_wild = ((wc >> OFPFW_NW_SRC_SHIFT) & 0x3f).min(32) as u8;
    let dst_wild = ((wc >> OFPFW_NW_DST_SHIFT) & 0x3f).min(32) as u8;
    Ok(Match {
        in_port: (wc & OFPFW_IN_PORT == 0).then_some(in_port),
        eth_src: (wc & OFPFW_DL_SRC == 0).then_some(eth_src),
        eth_dst: (wc & OFPFW_DL_DST == 0).then_some(eth_dst),
        vlan: (wc & OFPFW_DL_VLAN == 0).then_some(vlan),
        vlan_pcp: (wc & OFPFW_DL_VLAN_PCP == 0).then_some(vlan_pcp),
        eth_type: (wc & OFPFW_DL_TYPE == 0).then_some(eth_type),
        ip_tos: (wc & OFPFW_NW_TOS == 0).then_some(ip_tos),
        ip_proto: (wc & OFPFW_NW_PROTO == 0).then_some(ip_proto),
        ip_src: (src_wild < 32).then_some((ip_src, 32 - src_wild)),
        ip_dst: (dst_wild < 32).then_some((ip_dst, 32 - dst_wild)),
        tp_src: (wc & OFPFW_TP_SRC == 0).then_some(tp_src),
        tp_dst: (wc & OFPFW_TP_DST == 0).then_some(tp_dst),
    })
}

fn put_action(buf: &mut Vec<u8>, a: &Action) {
    match *a {
        Action::Output(p) => {
            buf.put_u16(0);
            buf.put_u16(8);
            buf.put_u16(p.to_wire());
            buf.put_u16(0xffff); // max_len: send whole packet to controller
        }
        Action::SetVlanId(v) => {
            buf.put_u16(1);
            buf.put_u16(8);
            buf.put_u16(v.0);
            buf.put_u16(0);
        }
        Action::SetVlanPcp(p) => {
            buf.put_u16(2);
            buf.put_u16(8);
            buf.put_u8(p);
            buf.put_slice(&[0; 3]);
        }
        Action::StripVlan => {
            buf.put_u16(3);
            buf.put_u16(8);
            buf.put_u32(0);
        }
        Action::SetEthSrc(m) => {
            buf.put_u16(4);
            buf.put_u16(16);
            buf.put_slice(&m.octets());
            buf.put_slice(&[0; 6]);
        }
        Action::SetEthDst(m) => {
            buf.put_u16(5);
            buf.put_u16(16);
            buf.put_slice(&m.octets());
            buf.put_slice(&[0; 6]);
        }
        Action::SetIpSrc(a) => {
            buf.put_u16(6);
            buf.put_u16(8);
            buf.put_u32(a.0);
        }
        Action::SetIpDst(a) => {
            buf.put_u16(7);
            buf.put_u16(8);
            buf.put_u32(a.0);
        }
        Action::SetIpTos(t) => {
            buf.put_u16(8);
            buf.put_u16(8);
            buf.put_u8(t);
            buf.put_slice(&[0; 3]);
        }
        Action::SetTpSrc(p) => {
            buf.put_u16(9);
            buf.put_u16(8);
            buf.put_u16(p);
            buf.put_u16(0);
        }
        Action::SetTpDst(p) => {
            buf.put_u16(10);
            buf.put_u16(8);
            buf.put_u16(p);
            buf.put_u16(0);
        }
    }
}

fn get_action(r: &mut Reader<'_>) -> Result<Action, CodecError> {
    let ty = r.u16()?;
    let len = r.u16()? as usize;
    if len < 8 {
        return Err(CodecError::BadField("action length"));
    }
    Ok(match ty {
        0 => {
            let port = PortNo::from_wire(r.u16()?);
            r.skip(2)?; // max_len
            Action::Output(port)
        }
        1 => {
            let v = VlanId(r.u16()?);
            r.skip(2)?;
            Action::SetVlanId(v)
        }
        2 => {
            let p = r.u8()?;
            r.skip(3)?;
            Action::SetVlanPcp(p)
        }
        3 => {
            r.skip(4)?;
            Action::StripVlan
        }
        4 => {
            let m = MacAddr::new(r.mac()?);
            r.skip(6)?;
            Action::SetEthSrc(m)
        }
        5 => {
            let m = MacAddr::new(r.mac()?);
            r.skip(6)?;
            Action::SetEthDst(m)
        }
        6 => Action::SetIpSrc(Ipv4Addr(r.u32()?)),
        7 => Action::SetIpDst(Ipv4Addr(r.u32()?)),
        8 => {
            let t = r.u8()?;
            r.skip(3)?;
            Action::SetIpTos(t)
        }
        9 => {
            let p = r.u16()?;
            r.skip(2)?;
            Action::SetTpSrc(p)
        }
        10 => {
            let p = r.u16()?;
            r.skip(2)?;
            Action::SetTpDst(p)
        }
        _ => return Err(CodecError::BadField("action type")),
    })
}

const PKT_F_IP_SRC: u8 = 1 << 0;
const PKT_F_IP_DST: u8 = 1 << 1;
const PKT_F_PROTO: u8 = 1 << 2;
const PKT_F_TP_SRC: u8 = 1 << 3;
const PKT_F_TP_DST: u8 = 1 << 4;

fn put_packet(buf: &mut Vec<u8>, p: &Packet) {
    let mut flags = 0u8;
    if p.ip_src.is_some() {
        flags |= PKT_F_IP_SRC;
    }
    if p.ip_dst.is_some() {
        flags |= PKT_F_IP_DST;
    }
    if p.ip_proto.is_some() {
        flags |= PKT_F_PROTO;
    }
    if p.tp_src.is_some() {
        flags |= PKT_F_TP_SRC;
    }
    if p.tp_dst.is_some() {
        flags |= PKT_F_TP_DST;
    }
    buf.put_u8(flags);
    buf.put_slice(&p.eth_src.octets());
    buf.put_slice(&p.eth_dst.octets());
    buf.put_u16(p.eth_type.to_wire());
    buf.put_u16(p.vlan.0);
    buf.put_u8(p.vlan_pcp);
    buf.put_u8(p.ip_tos);
    if let Some(a) = p.ip_src {
        buf.put_u32(a.0);
    }
    if let Some(a) = p.ip_dst {
        buf.put_u32(a.0);
    }
    if let Some(pr) = p.ip_proto {
        buf.put_u8(pr.to_wire());
    }
    if let Some(t) = p.tp_src {
        buf.put_u16(t);
    }
    if let Some(t) = p.tp_dst {
        buf.put_u16(t);
    }
    buf.put_u32(p.payload_len);
}

fn get_packet(r: &mut Reader<'_>) -> Result<Packet, CodecError> {
    let flags = r.u8()?;
    let eth_src = MacAddr::new(r.mac()?);
    let eth_dst = MacAddr::new(r.mac()?);
    let eth_type = EtherType::from_wire(r.u16()?);
    let vlan = VlanId(r.u16()?);
    let vlan_pcp = r.u8()?;
    let ip_tos = r.u8()?;
    let ip_src = if flags & PKT_F_IP_SRC != 0 {
        Some(Ipv4Addr(r.u32()?))
    } else {
        None
    };
    let ip_dst = if flags & PKT_F_IP_DST != 0 {
        Some(Ipv4Addr(r.u32()?))
    } else {
        None
    };
    let ip_proto = if flags & PKT_F_PROTO != 0 {
        Some(IpProto::from_wire(r.u8()?))
    } else {
        None
    };
    let tp_src = if flags & PKT_F_TP_SRC != 0 {
        Some(r.u16()?)
    } else {
        None
    };
    let tp_dst = if flags & PKT_F_TP_DST != 0 {
        Some(r.u16()?)
    } else {
        None
    };
    let payload_len = r.u32()?;
    Ok(Packet {
        eth_src,
        eth_dst,
        eth_type,
        vlan,
        vlan_pcp,
        ip_src,
        ip_dst,
        ip_proto,
        ip_tos,
        tp_src,
        tp_dst,
        payload_len,
    })
}

fn put_port_desc(buf: &mut Vec<u8>, p: &PortDesc) {
    buf.put_u16(p.port_no.to_wire());
    buf.put_slice(&p.hw_addr.octets());
    let name = p.name.as_bytes();
    buf.put_u16(name.len() as u16);
    buf.put_slice(name);
    buf.put_u8(u8::from(p.config_down));
    buf.put_u8(u8::from(p.link_down));
}

fn get_port_desc(r: &mut Reader<'_>) -> Result<PortDesc, CodecError> {
    let port_no = PortNo::from_wire(r.u16()?);
    let hw_addr = MacAddr::new(r.mac()?);
    let name_len = r.u16()? as usize;
    let name_bytes = r.bytes(name_len)?;
    let name =
        String::from_utf8(name_bytes.to_vec()).map_err(|_| CodecError::BadField("port name"))?;
    let config_down = r.u8()? != 0;
    let link_down = r.u8()? != 0;
    Ok(PortDesc {
        port_no,
        hw_addr,
        name,
        config_down,
        link_down,
    })
}

fn put_flow_snapshot(buf: &mut Vec<u8>, f: &FlowEntrySnapshot) {
    put_match(buf, &f.mat);
    buf.put_u16(f.priority);
    buf.put_u64(f.cookie);
    buf.put_u16(f.idle_timeout);
    buf.put_u16(f.hard_timeout);
    buf.put_u32(f.remaining_hard.unwrap_or(u32::MAX));
    buf.put_u32(f.duration_sec);
    buf.put_u64(f.packet_count);
    buf.put_u64(f.byte_count);
    buf.put_u8(u8::from(f.send_flow_removed));
    buf.put_u16(f.actions.len() as u16);
    for a in &f.actions {
        put_action(buf, a);
    }
}

fn get_flow_snapshot(r: &mut Reader<'_>) -> Result<FlowEntrySnapshot, CodecError> {
    let mat = get_match(r)?;
    let priority = r.u16()?;
    let cookie = r.u64()?;
    let idle_timeout = r.u16()?;
    let hard_timeout = r.u16()?;
    let remaining_raw = r.u32()?;
    let duration_sec = r.u32()?;
    let packet_count = r.u64()?;
    let byte_count = r.u64()?;
    let send_flow_removed = r.u8()? != 0;
    let n_actions = r.u16()? as usize;
    let mut actions = Vec::with_capacity(n_actions.min(256));
    for _ in 0..n_actions {
        actions.push(get_action(r)?);
    }
    Ok(FlowEntrySnapshot {
        mat,
        priority,
        cookie,
        idle_timeout,
        hard_timeout,
        remaining_hard: (remaining_raw != u32::MAX).then_some(remaining_raw),
        duration_sec,
        packet_count,
        byte_count,
        send_flow_removed,
        actions,
    })
}

// -------------------------------------------------------------------------
// bounds-checked byte reader
// -------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    fn skip(&mut self, n: usize) -> Result<(), CodecError> {
        self.bytes(n).map(|_| ())
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.bytes(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.bytes(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.bytes(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn mac(&mut self) -> Result<[u8; 6], CodecError> {
        let b = self.bytes(6)?;
        Ok([b[0], b[1], b[2], b[3], b[4], b[5]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let bytes = encode(&msg, Xid(0x1234_5678));
        let (decoded, xid) = decode(&bytes).unwrap_or_else(|e| {
            panic!("decode failed for {:?}: {e}", msg.kind());
        });
        assert_eq!(msg, decoded, "roundtrip mismatch for {:?}", msg.kind());
        assert_eq!(xid, Xid(0x1234_5678));
        assert_eq!(bytes.len(), frame_len(&bytes).unwrap());
    }

    fn sample_packet() -> Packet {
        Packet::tcp(
            MacAddr::from_index(1),
            MacAddr::from_index(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1024,
            80,
        )
    }

    fn sample_match() -> Match {
        Match::from_packet(&sample_packet(), PortNo::Phys(3))
    }

    #[test]
    fn roundtrip_bodyless() {
        roundtrip(Message::Hello);
        roundtrip(Message::FeaturesRequest);
        roundtrip(Message::BarrierRequest);
        roundtrip(Message::BarrierReply);
    }

    #[test]
    fn roundtrip_echo() {
        roundtrip(Message::EchoRequest(vec![]));
        roundtrip(Message::EchoRequest(vec![1, 2, 3]));
        roundtrip(Message::EchoReply(vec![0xff; 100]));
    }

    #[test]
    fn roundtrip_error() {
        roundtrip(Message::Error(ErrorMsg {
            err_type: ErrorType::FlowModFailed,
            code: ErrorCode::TablesFull,
            data: vec![1, 2, 3, 4],
        }));
    }

    #[test]
    fn roundtrip_features_reply() {
        roundtrip(Message::FeaturesReply(SwitchFeatures {
            datapath_id: DatapathId(42),
            n_buffers: 256,
            n_tables: 1,
            ports: vec![
                PortDesc::up(PortNo::Phys(1), MacAddr::from_index(10)),
                PortDesc {
                    port_no: PortNo::Phys(2),
                    hw_addr: MacAddr::from_index(11),
                    name: "weird-name".into(),
                    config_down: true,
                    link_down: true,
                },
            ],
        }));
    }

    #[test]
    fn roundtrip_packet_in_out() {
        roundtrip(Message::PacketIn(PacketIn {
            buffer_id: BufferId(7),
            in_port: PortNo::Phys(2),
            reason: PacketInReason::NoMatch,
            packet: sample_packet(),
        }));
        roundtrip(Message::PacketOut(PacketOut {
            buffer_id: BufferId::NONE,
            in_port: PortNo::None,
            actions: vec![Action::Output(PortNo::Flood), Action::SetVlanId(VlanId(9))],
            packet: Some(sample_packet()),
        }));
        roundtrip(Message::PacketOut(PacketOut {
            buffer_id: BufferId(3),
            in_port: PortNo::Phys(1),
            actions: vec![],
            packet: None,
        }));
    }

    #[test]
    fn roundtrip_flow_mod_all_commands() {
        for cmd in [
            FlowModCommand::Add,
            FlowModCommand::Modify,
            FlowModCommand::ModifyStrict,
            FlowModCommand::Delete,
            FlowModCommand::DeleteStrict,
        ] {
            let mut fm = FlowMod::add(sample_match())
                .priority(77)
                .cookie(0xdead_beef)
                .idle_timeout(5)
                .hard_timeout(30)
                .action(Action::SetEthDst(MacAddr::from_index(3)))
                .action(Action::Output(PortNo::Phys(4)))
                .notify_removed();
            fm.command = cmd;
            fm.check_overlap = true;
            roundtrip(Message::FlowMod(fm));
        }
    }

    #[test]
    fn roundtrip_all_action_types() {
        let fm = FlowMod::add(Match::any()).actions(vec![
            Action::Output(PortNo::Controller),
            Action::SetVlanId(VlanId(100)),
            Action::SetVlanPcp(5),
            Action::StripVlan,
            Action::SetEthSrc(MacAddr::from_index(1)),
            Action::SetEthDst(MacAddr::from_index(2)),
            Action::SetIpSrc(Ipv4Addr::new(1, 2, 3, 4)),
            Action::SetIpDst(Ipv4Addr::new(5, 6, 7, 8)),
            Action::SetIpTos(0x1c),
            Action::SetTpSrc(1234),
            Action::SetTpDst(80),
        ]);
        roundtrip(Message::FlowMod(fm));
    }

    #[test]
    fn roundtrip_flow_removed() {
        roundtrip(Message::FlowRemoved(FlowRemoved {
            mat: sample_match(),
            cookie: 1,
            priority: 2,
            reason: FlowRemovedReason::IdleTimeout,
            duration_sec: 100,
            idle_timeout: 10,
            packet_count: 12345,
            byte_count: 67890,
        }));
    }

    #[test]
    fn roundtrip_port_messages() {
        roundtrip(Message::PortStatus(PortStatus {
            reason: PortStatusReason::Modify,
            desc: PortDesc::up(PortNo::Phys(9), MacAddr::from_index(9)),
        }));
        roundtrip(Message::PortMod(PortMod {
            port_no: PortNo::Phys(3),
            hw_addr: MacAddr::from_index(3),
            down: true,
        }));
    }

    #[test]
    fn roundtrip_stats() {
        roundtrip(Message::StatsRequest(StatsRequest::Flow {
            mat: Match::any(),
            out_port: PortNo::None,
        }));
        roundtrip(Message::StatsRequest(StatsRequest::Aggregate {
            mat: sample_match(),
            out_port: PortNo::Phys(1),
        }));
        roundtrip(Message::StatsRequest(StatsRequest::Table));
        roundtrip(Message::StatsRequest(StatsRequest::Port {
            port: PortNo::None,
        }));

        roundtrip(Message::StatsReply(StatsReply::Flow(vec![
            FlowEntrySnapshot {
                mat: sample_match(),
                priority: 1,
                cookie: 2,
                idle_timeout: 3,
                hard_timeout: 4,
                remaining_hard: Some(2),
                duration_sec: 2,
                packet_count: 10,
                byte_count: 640,
                send_flow_removed: true,
                actions: vec![Action::Output(PortNo::Phys(1))],
            },
        ])));
        roundtrip(Message::StatsReply(StatsReply::Aggregate {
            packet_count: 1,
            byte_count: 2,
            flow_count: 3,
        }));
        roundtrip(Message::StatsReply(StatsReply::Table(TableStats {
            active_count: 10,
            lookup_count: 100,
            matched_count: 90,
            max_entries: 1024,
        })));
        roundtrip(Message::StatsReply(StatsReply::Port(vec![PortStats {
            port_no: 1,
            rx_packets: 1,
            tx_packets: 2,
            rx_bytes: 3,
            tx_bytes: 4,
            rx_dropped: 5,
            tx_dropped: 6,
        }])));
    }

    #[test]
    fn match_wildcards_roundtrip_partial() {
        // A match with only some fields set must decode identically.
        let m = Match {
            eth_dst: Some(MacAddr::from_index(5)),
            ip_dst: Some((Ipv4Addr::new(10, 1, 0, 0), 16)),
            tp_dst: Some(443),
            ..Match::default()
        };
        roundtrip(Message::FlowMod(FlowMod::add(m)));
    }

    #[test]
    fn decode_rejects_bad_version() {
        let mut bytes = encode(&Message::Hello, Xid(1));
        bytes[0] = 0x04;
        assert_eq!(decode(&bytes), Err(CodecError::BadVersion(0x04)));
    }

    #[test]
    fn decode_rejects_unknown_type() {
        let mut bytes = encode(&Message::Hello, Xid(1));
        bytes[1] = 200;
        assert_eq!(decode(&bytes), Err(CodecError::UnknownType(200)));
    }

    #[test]
    fn decode_rejects_truncation_at_every_length() {
        let bytes = encode(
            &Message::FlowMod(FlowMod::add(sample_match()).action(Action::Output(PortNo::Phys(1)))),
            Xid(1),
        );
        for cut in 0..bytes.len() {
            let res = decode(&bytes[..cut]);
            assert!(
                res.is_err(),
                "decode of {cut}-byte prefix unexpectedly succeeded"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut bytes = encode(&Message::Hello, Xid(1));
        bytes.push(0);
        assert!(matches!(decode(&bytes), Err(CodecError::TrailingBytes(1))));
    }

    #[test]
    fn frame_len_needs_four_bytes() {
        assert!(frame_len(&[1, 2, 3]).is_err());
        let bytes = encode(&Message::BarrierRequest, Xid(0));
        assert_eq!(frame_len(&bytes).unwrap(), HEADER_LEN);
    }

    #[test]
    fn header_layout_is_of10() {
        let bytes = encode(&Message::Hello, Xid(0xaabbccdd));
        assert_eq!(bytes[0], 0x01);
        assert_eq!(bytes[1], T_HELLO);
        assert_eq!(u16::from_be_bytes([bytes[2], bytes[3]]), 8);
        assert_eq!(&bytes[4..8], &[0xaa, 0xbb, 0xcc, 0xdd]);
    }

    #[test]
    fn flow_mod_wire_size_is_realistic() {
        // OF 1.0 flow_mod body is 64 bytes + 8/action; ours should be within
        // the same order of magnitude so latency measurements are honest.
        let fm = FlowMod::add(sample_match()).action(Action::Output(PortNo::Phys(1)));
        let bytes = encode(&Message::FlowMod(fm), Xid(0));
        assert!(
            bytes.len() >= 60 && bytes.len() <= 120,
            "unexpected size {}",
            bytes.len()
        );
    }
}
