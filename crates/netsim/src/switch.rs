//! A simulated OpenFlow 1.0 switch.
//!
//! The switch owns a [`FlowTable`], per-port state and counters, and a
//! packet buffer pool. It consumes controller→switch [`Message`]s and
//! produces replies, asynchronous notifications, and dataplane emissions.
//! Every state-altering message reports the [`PreState`] it displaced so the
//! transaction layer can invert it.

use crate::clock::SimTime;
use crate::flow_table::FlowTable;
use legosdn_codec::Codec;
use legosdn_openflow::error::{ErrorCode, ErrorType};
use legosdn_openflow::inverse::PreState;
use legosdn_openflow::messages::{
    ErrorMsg, FlowRemoved, FlowRemovedReason, Message, PacketIn, PacketInReason, PortDesc,
    PortStats, PortStatus, PortStatusReason, StatsReply, StatsRequest, SwitchFeatures,
};
use legosdn_openflow::prelude::{Action, BufferId, DatapathId, MacAddr, Packet, PortNo};
use std::collections::BTreeMap;

/// Everything a message or packet arrival caused.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SwitchOutput {
    /// Direct responses to the requester (echo replies, stats, barriers,
    /// errors).
    pub replies: Vec<Message>,
    /// Asynchronous controller notifications (flow-removed, port-status,
    /// packet-in).
    pub notifications: Vec<Message>,
    /// Packets leaving the switch: `(out_port, packet)`.
    pub emissions: Vec<(PortNo, Packet)>,
    /// Pre-state displaced by a state-altering message, for inversion.
    pub pre_state: Option<PreState>,
}

impl SwitchOutput {
    /// Empty every part, keeping the lists' storage for the next call.
    fn clear(&mut self) {
        self.replies.clear();
        self.notifications.clear();
        self.emissions.clear();
        self.pre_state = None;
    }
}

/// Per-port runtime state.
#[derive(Clone, Debug, Codec)]
pub struct PortState {
    pub desc: PortDesc,
    pub stats: PortStats,
}

/// A simulated switch.
#[derive(Clone, Debug, Codec)]
pub struct Switch {
    dpid: DatapathId,
    ports: BTreeMap<u16, PortState>,
    table: FlowTable,
    buffers: Vec<(BufferId, Packet, PortNo)>,
    next_buffer: u32,
    n_buffers: u32,
    /// Whether the switch itself is up. A down switch drops everything.
    up: bool,
}

impl Switch {
    /// A switch with ports `1..=n_ports`, all up.
    #[must_use]
    pub fn new(dpid: DatapathId, n_ports: u16) -> Self {
        Self::with_table_capacity(dpid, n_ports, 0)
    }

    /// A switch whose flow table holds at most `table_capacity` entries
    /// (0 = unbounded).
    #[must_use]
    pub fn with_table_capacity(dpid: DatapathId, n_ports: u16, table_capacity: usize) -> Self {
        let mut ports = BTreeMap::new();
        for p in 1..=n_ports {
            let hw = MacAddr::from_index((dpid.0 << 8) | u64::from(p));
            ports.insert(
                p,
                PortState {
                    desc: PortDesc::up(PortNo::Phys(p), hw),
                    stats: PortStats {
                        port_no: p,
                        ..PortStats::default()
                    },
                },
            );
        }
        Switch {
            dpid,
            ports,
            table: FlowTable::with_capacity(table_capacity),
            buffers: Vec::new(),
            next_buffer: 0,
            n_buffers: 256,
            up: true,
        }
    }

    /// The datapath id.
    #[must_use]
    pub fn dpid(&self) -> DatapathId {
        self.dpid
    }

    /// Whether the switch is powered on.
    #[must_use]
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Power the switch on/off. Powering off clears the flow table and
    /// buffers (state is lost, as with a real reboot).
    pub fn set_up(&mut self, up: bool) {
        if self.up && !up {
            self.table = FlowTable::default();
            self.buffers.clear();
        }
        self.up = up;
    }

    /// Read-only flow table access (invariant checkers, NetLog).
    #[must_use]
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Port descriptors.
    pub fn ports(&self) -> impl Iterator<Item = &PortState> {
        self.ports.values()
    }

    /// A specific port's state.
    #[must_use]
    pub fn port(&self, port: u16) -> Option<&PortState> {
        self.ports.get(&port)
    }

    /// Live physical ports (up administratively and physically).
    pub fn live_ports(&self) -> impl Iterator<Item = u16> + '_ {
        self.ports
            .iter()
            .filter(|(_, s)| s.desc.is_live())
            .map(|(p, _)| *p)
    }

    /// Set a port's *physical* link state; returns the port-status
    /// notification if the state changed.
    pub fn set_link_down(&mut self, port: u16, down: bool) -> Option<Message> {
        let state = self.ports.get_mut(&port)?;
        if state.desc.link_down == down {
            return None;
        }
        state.desc.link_down = down;
        Some(Message::PortStatus(PortStatus {
            reason: PortStatusReason::Modify,
            desc: state.desc.clone(),
        }))
    }

    /// Handle a controller→switch message, writing what it caused into
    /// `out`. Whatever `out` held is cleared first and its storage reused,
    /// so a caller that keeps one `SwitchOutput` allocates only for what
    /// outgrows it.
    pub fn handle_message(&mut self, msg: &Message, now: SimTime, out: &mut SwitchOutput) {
        out.clear();
        if !self.up {
            return;
        }
        let reply = match msg {
            Message::Hello => Message::Hello,
            Message::EchoRequest(d) => Message::EchoReply(d.clone()),
            Message::FeaturesRequest => Message::FeaturesReply(SwitchFeatures {
                datapath_id: self.dpid,
                n_buffers: self.n_buffers,
                n_tables: 1,
                ports: self.ports.values().map(|s| s.desc.clone()).collect(),
            }),
            Message::BarrierRequest => Message::BarrierReply,
            Message::FlowMod(fm) => return self.handle_flow_mod(fm, now, out),
            Message::PacketOut(po) => {
                let buffered;
                let packet = if po.buffer_id.is_some() {
                    match self.take_buffer(po.buffer_id) {
                        Some((pkt, _)) => {
                            buffered = pkt;
                            &buffered
                        }
                        None => {
                            out.replies.push(Message::Error(ErrorMsg {
                                err_type: ErrorType::BadRequest,
                                code: ErrorCode::Other(0x100), // bad buffer
                                data: Vec::new(),
                            }));
                            return;
                        }
                    }
                } else {
                    match &po.packet {
                        Some(p) => p,
                        None => {
                            out.replies.push(Message::Error(ErrorMsg {
                                err_type: ErrorType::BadRequest,
                                code: ErrorCode::BadPort,
                                data: Vec::new(),
                            }));
                            return;
                        }
                    }
                };
                return emit(&mut self.ports, &po.actions, packet, po.in_port, out);
            }
            Message::PortMod(pm) => {
                let Some(state) = pm.port_no.phys().and_then(|p| self.ports.get_mut(&p)) else {
                    return out.replies.push(bad_port());
                };
                let was_down = state.desc.config_down;
                state.desc.config_down = pm.down;
                out.pre_state = Some(PreState::PortWasDown(was_down));
                if was_down != pm.down {
                    out.notifications.push(Message::PortStatus(PortStatus {
                        reason: PortStatusReason::Modify,
                        desc: state.desc.clone(),
                    }));
                }
                return;
            }
            Message::StatsRequest(req) => self.handle_stats(req, now),
            // Switch-to-controller messages arriving at a switch are protocol
            // violations.
            _ => Message::Error(ErrorMsg {
                err_type: ErrorType::BadRequest,
                code: ErrorCode::Unsupported,
                data: Vec::new(),
            }),
        };
        out.replies.push(reply);
    }

    fn handle_flow_mod(
        &mut self,
        fm: &legosdn_openflow::messages::FlowMod,
        now: SimTime,
        out: &mut SwitchOutput,
    ) {
        let outcome = match self.table.apply(fm, now) {
            Ok(outcome) => outcome,
            Err(e) => return out.replies.push(Message::Error(e)),
        };
        for snap in outcome.notify_removed {
            out.notifications.push(Message::FlowRemoved(FlowRemoved {
                mat: snap.mat,
                cookie: snap.cookie,
                priority: snap.priority,
                reason: FlowRemovedReason::Delete,
                duration_sec: snap.duration_sec,
                idle_timeout: snap.idle_timeout,
                packet_count: snap.packet_count,
                byte_count: snap.byte_count,
            }));
        }
        out.pre_state = Some(if fm.is_delete() {
            PreState::DeletedFlows(outcome.displaced)
        } else {
            PreState::DisplacedFlows(outcome.displaced)
        });
        // A flow-mod naming a buffered packet forwards it through the
        // (new) table immediately.
        if fm.buffer_id.is_some() {
            if let Some((pkt, in_port)) = self.take_buffer(fm.buffer_id) {
                self.forward(&pkt, in_port, now, out);
            }
        }
    }

    fn handle_stats(&self, req: &StatsRequest, now: SimTime) -> Message {
        Message::StatsReply(match req {
            StatsRequest::Flow { mat, out_port } => {
                StatsReply::Flow(self.table.snapshot_matching(mat, *out_port, now))
            }
            StatsRequest::Aggregate { mat, out_port } => {
                let snaps = self.table.snapshot_matching(mat, *out_port, now);
                StatsReply::Aggregate {
                    packet_count: snaps.iter().map(|s| s.packet_count).sum(),
                    byte_count: snaps.iter().map(|s| s.byte_count).sum(),
                    flow_count: snaps.len() as u32,
                }
            }
            StatsRequest::Table => StatsReply::Table(self.table.stats()),
            StatsRequest::Port { port } => {
                let stats = match port.phys() {
                    Some(p) => self
                        .ports
                        .get(&p)
                        .map(|s| vec![s.stats])
                        .unwrap_or_default(),
                    None => self.ports.values().map(|s| s.stats).collect(),
                };
                StatsReply::Port(stats)
            }
        })
    }

    /// A packet arrives on `in_port`. Looks up the flow table; on a miss the
    /// packet is buffered and punted to the controller. What it caused is
    /// written into `out`, as [`Switch::handle_message`] does.
    pub fn receive_packet(
        &mut self,
        in_port: u16,
        pkt: &Packet,
        now: SimTime,
        out: &mut SwitchOutput,
    ) {
        out.clear();
        if !self.up {
            return;
        }
        let Some(state) = self.ports.get_mut(&in_port).filter(|p| p.desc.is_live()) else {
            return;
        };
        state.stats.rx_packets += 1;
        state.stats.rx_bytes += u64::from(pkt.wire_len());
        self.forward(pkt, PortNo::Phys(in_port), now, out);
    }

    /// Forward by the matching entry's actions, borrowed where the table
    /// holds them.
    fn forward(&mut self, pkt: &Packet, in_port: PortNo, now: SimTime, out: &mut SwitchOutput) {
        let Some(entry) = self.table.lookup(pkt, in_port, now) else {
            let buffer_id = self.buffer_packet(pkt.clone(), in_port);
            out.notifications.push(Message::PacketIn(PacketIn {
                buffer_id,
                in_port,
                reason: PacketInReason::NoMatch,
                packet: pkt.clone(),
            }));
            return;
        };
        if entry.actions.is_empty() {
            // Explicit drop rule.
            if let Some(state) = in_port.phys().and_then(|p| self.ports.get_mut(&p)) {
                state.stats.rx_dropped += 1;
            }
            return;
        }
        emit(&mut self.ports, &entry.actions, pkt, in_port, out);
    }

    fn buffer_packet(&mut self, pkt: Packet, in_port: PortNo) -> BufferId {
        if self.buffers.len() >= self.n_buffers as usize {
            self.buffers.remove(0);
        }
        let id = BufferId(self.next_buffer);
        self.next_buffer = self.next_buffer.wrapping_add(1);
        if BufferId(self.next_buffer) == BufferId::NONE {
            self.next_buffer = 0;
        }
        self.buffers.push((id, pkt, in_port));
        id
    }

    fn take_buffer(&mut self, id: BufferId) -> Option<(Packet, PortNo)> {
        let pos = self.buffers.iter().position(|(b, _, _)| *b == id)?;
        let (_, pkt, in_port) = self.buffers.remove(pos);
        Some((pkt, in_port))
    }

    /// Advance time: expire flows, emitting flow-removed notifications.
    pub fn expire_flows(&mut self, now: SimTime) -> Vec<Message> {
        self.table
            .expire(now)
            .into_iter()
            .filter(|e| e.notify)
            .map(|e| {
                Message::FlowRemoved(FlowRemoved {
                    mat: e.snapshot.mat,
                    cookie: e.snapshot.cookie,
                    priority: e.snapshot.priority,
                    reason: e.reason,
                    duration_sec: e.snapshot.duration_sec,
                    idle_timeout: e.snapshot.idle_timeout,
                    packet_count: e.snapshot.packet_count,
                    byte_count: e.snapshot.byte_count,
                })
            })
            .collect()
    }
}

/// Send `pkt` as `actions` direct. Every header rewrite in the list
/// applies to the one packet that each of its outputs sends, in list
/// order: a first pass rewrites, a second emits.
fn emit(
    ports: &mut BTreeMap<u16, PortState>,
    actions: &[Action],
    pkt: &Packet,
    in_port: PortNo,
    out: &mut SwitchOutput,
) {
    let mut rewritten = pkt.clone();
    for a in actions {
        a.apply(&mut rewritten);
    }
    for a in actions {
        let Action::Output(port) = *a else {
            continue;
        };
        match port {
            PortNo::Phys(p) => transmit(ports, p, &rewritten, out),
            PortNo::InPort => {
                if let Some(p) = in_port.phys() {
                    transmit(ports, p, &rewritten, out);
                }
            }
            PortNo::Flood | PortNo::All => {
                for (&p, state) in ports.iter_mut() {
                    if state.desc.is_live() && Some(p) != in_port.phys() {
                        send(state, p, &rewritten, out);
                    }
                }
            }
            PortNo::Controller => {
                out.notifications.push(Message::PacketIn(PacketIn {
                    buffer_id: BufferId::NONE,
                    in_port,
                    reason: PacketInReason::Action,
                    packet: rewritten.clone(),
                }));
            }
            // Normal / Local / Table / None: unsupported sinks; drop.
            _ => {}
        }
    }
}

/// Send `pkt` out of `port` if it is live; count a drop if not.
fn transmit(ports: &mut BTreeMap<u16, PortState>, port: u16, pkt: &Packet, out: &mut SwitchOutput) {
    let Some(state) = ports.get_mut(&port) else {
        return;
    };
    if !state.desc.is_live() {
        state.stats.tx_dropped += 1;
        return;
    }
    send(state, port, pkt, out);
}

/// Send `pkt` out of the live port `port`, whose state is `state`.
fn send(state: &mut PortState, port: u16, pkt: &Packet, out: &mut SwitchOutput) {
    state.stats.tx_packets += 1;
    state.stats.tx_bytes += u64::from(pkt.wire_len());
    out.emissions.push((PortNo::Phys(port), pkt.clone()));
}

fn bad_port() -> Message {
    Message::Error(ErrorMsg {
        err_type: ErrorType::PortModFailed,
        code: ErrorCode::BadPort,
        data: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_openflow::prelude::{Action, FlowMod, Match, PortMod};

    fn sw() -> Switch {
        Switch::new(DatapathId(1), 4)
    }

    fn handle(s: &mut Switch, msg: &Message) -> SwitchOutput {
        let mut out = SwitchOutput::default();
        s.handle_message(msg, SimTime::ZERO, &mut out);
        out
    }

    fn receive(s: &mut Switch, in_port: u16) -> SwitchOutput {
        let mut out = SwitchOutput::default();
        s.receive_packet(in_port, &pkt(), SimTime::ZERO, &mut out);
        out
    }

    fn pkt() -> Packet {
        Packet::ethernet(MacAddr::from_index(1), MacAddr::from_index(2))
    }

    #[test]
    fn hello_and_echo() {
        let mut s = sw();
        let out = handle(&mut s, &Message::Hello);
        assert_eq!(out.replies, vec![Message::Hello]);
        let out = handle(&mut s, &Message::EchoRequest(vec![1, 2]));
        assert_eq!(out.replies, vec![Message::EchoReply(vec![1, 2])]);
    }

    #[test]
    fn features_reply_lists_ports() {
        let mut s = sw();
        let out = handle(&mut s, &Message::FeaturesRequest);
        match &out.replies[0] {
            Message::FeaturesReply(f) => {
                assert_eq!(f.datapath_id, DatapathId(1));
                assert_eq!(f.ports.len(), 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn miss_generates_buffered_packet_in() {
        let mut s = sw();
        let out = receive(&mut s, 1);
        assert_eq!(out.notifications.len(), 1);
        match &out.notifications[0] {
            Message::PacketIn(pi) => {
                assert!(pi.buffer_id.is_some());
                assert_eq!(pi.in_port, PortNo::Phys(1));
                assert_eq!(pi.reason, PacketInReason::NoMatch);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(out.emissions.is_empty());
    }

    #[test]
    fn flow_mod_then_forward() {
        let mut s = sw();
        let fm = FlowMod::add(Match::any()).action(Action::Output(PortNo::Phys(2)));
        let out = handle(&mut s, &Message::FlowMod(fm));
        assert!(out.replies.is_empty());
        assert_eq!(out.pre_state, Some(PreState::DisplacedFlows(vec![])));
        let out = receive(&mut s, 1);
        assert_eq!(out.emissions.len(), 1);
        assert_eq!(out.emissions[0].0, PortNo::Phys(2));
    }

    #[test]
    fn flood_excludes_ingress_and_dead_ports() {
        let mut s = sw();
        s.set_link_down(3, true).unwrap();
        let fm = FlowMod::add(Match::any()).action(Action::Output(PortNo::Flood));
        handle(&mut s, &Message::FlowMod(fm));
        let out = receive(&mut s, 1);
        let mut ports: Vec<_> = out.emissions.iter().filter_map(|(p, _)| p.phys()).collect();
        ports.sort_unstable();
        assert_eq!(ports, vec![2, 4]);
    }

    #[test]
    fn drop_rule_increments_rx_dropped() {
        let mut s = sw();
        let fm = FlowMod::add(Match::any()); // no actions == drop
        handle(&mut s, &Message::FlowMod(fm));
        let out = receive(&mut s, 1);
        assert!(out.emissions.is_empty());
        assert!(out.notifications.is_empty());
        assert_eq!(s.port(1).unwrap().stats.rx_dropped, 1);
    }

    #[test]
    fn packet_out_with_inline_data() {
        let mut s = sw();
        let po = legosdn_openflow::messages::PacketOut {
            buffer_id: BufferId::NONE,
            in_port: PortNo::None,
            actions: vec![Action::Output(PortNo::Phys(3))],
            packet: Some(pkt()),
        };
        let out = handle(&mut s, &Message::PacketOut(po));
        assert_eq!(out.emissions.len(), 1);
        assert_eq!(out.emissions[0].0, PortNo::Phys(3));
    }

    #[test]
    fn packet_out_with_buffer_releases_it() {
        let mut s = sw();
        let miss = receive(&mut s, 1);
        let buffer_id = match &miss.notifications[0] {
            Message::PacketIn(pi) => pi.buffer_id,
            other => panic!("unexpected {other:?}"),
        };
        let po = legosdn_openflow::messages::PacketOut {
            buffer_id,
            in_port: PortNo::Phys(1),
            actions: vec![Action::Output(PortNo::Phys(2))],
            packet: None,
        };
        let out = handle(&mut s, &Message::PacketOut(po.clone()));
        assert_eq!(out.emissions.len(), 1);
        // Second use of the same buffer errors.
        let out = handle(&mut s, &Message::PacketOut(po));
        assert!(matches!(&out.replies[0], Message::Error(_)));
    }

    #[test]
    fn flow_mod_with_buffer_forwards_buffered_packet() {
        let mut s = sw();
        let miss = receive(&mut s, 1);
        let buffer_id = match &miss.notifications[0] {
            Message::PacketIn(pi) => pi.buffer_id,
            other => panic!("unexpected {other:?}"),
        };
        let mut fm = FlowMod::add(Match::any()).action(Action::Output(PortNo::Phys(4)));
        fm.buffer_id = buffer_id;
        let out = handle(&mut s, &Message::FlowMod(fm));
        assert_eq!(out.emissions.len(), 1);
        assert_eq!(out.emissions[0].0, PortNo::Phys(4));
    }

    #[test]
    fn port_mod_reports_pre_state_and_notifies() {
        let mut s = sw();
        let pm = PortMod {
            port_no: PortNo::Phys(2),
            hw_addr: s.port(2).unwrap().desc.hw_addr,
            down: true,
        };
        let out = handle(&mut s, &Message::PortMod(pm.clone()));
        assert_eq!(out.pre_state, Some(PreState::PortWasDown(false)));
        assert_eq!(out.notifications.len(), 1);
        // Idempotent re-apply: pre-state now true, no notification.
        let out = handle(&mut s, &Message::PortMod(pm));
        assert_eq!(out.pre_state, Some(PreState::PortWasDown(true)));
        assert!(out.notifications.is_empty());
        // Admin-down port no longer forwards.
        let fm = FlowMod::add(Match::any()).action(Action::Output(PortNo::Phys(2)));
        handle(&mut s, &Message::FlowMod(fm));
        let out = receive(&mut s, 1);
        assert!(out.emissions.is_empty());
        assert_eq!(s.port(2).unwrap().stats.tx_dropped, 1);
    }

    #[test]
    fn port_mod_unknown_port_errors() {
        let mut s = sw();
        let pm = PortMod {
            port_no: PortNo::Phys(99),
            hw_addr: MacAddr::from_index(0),
            down: true,
        };
        let out = handle(&mut s, &Message::PortMod(pm));
        assert!(matches!(&out.replies[0], Message::Error(e) if e.code == ErrorCode::BadPort));
    }

    #[test]
    fn stats_flow_and_aggregate() {
        let mut s = sw();
        let fm = FlowMod::add(Match::any()).action(Action::Output(PortNo::Phys(2)));
        handle(&mut s, &Message::FlowMod(fm));
        receive(&mut s, 1);
        let out = handle(
            &mut s,
            &Message::StatsRequest(StatsRequest::Flow {
                mat: Match::any(),
                out_port: PortNo::None,
            }),
        );
        match &out.replies[0] {
            Message::StatsReply(StatsReply::Flow(flows)) => {
                assert_eq!(flows.len(), 1);
                assert_eq!(flows[0].packet_count, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
        let out = handle(
            &mut s,
            &Message::StatsRequest(StatsRequest::Aggregate {
                mat: Match::any(),
                out_port: PortNo::None,
            }),
        );
        match &out.replies[0] {
            Message::StatsReply(StatsReply::Aggregate {
                packet_count,
                flow_count,
                ..
            }) => {
                assert_eq!(*packet_count, 1);
                assert_eq!(*flow_count, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn stats_port_all_and_single() {
        let mut s = sw();
        let out = handle(
            &mut s,
            &Message::StatsRequest(StatsRequest::Port { port: PortNo::None }),
        );
        match &out.replies[0] {
            Message::StatsReply(StatsReply::Port(ps)) => assert_eq!(ps.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
        let out = handle(
            &mut s,
            &Message::StatsRequest(StatsRequest::Port {
                port: PortNo::Phys(2),
            }),
        );
        match &out.replies[0] {
            Message::StatsReply(StatsReply::Port(ps)) => {
                assert_eq!(ps.len(), 1);
                assert_eq!(ps[0].port_no, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn expire_emits_flow_removed() {
        let mut s = sw();
        let fm = FlowMod::add(Match::any())
            .hard_timeout(5)
            .action(Action::Output(PortNo::Phys(2)))
            .notify_removed();
        handle(&mut s, &Message::FlowMod(fm));
        assert!(s.expire_flows(SimTime::from_secs(4)).is_empty());
        let removed = s.expire_flows(SimTime::from_secs(5));
        assert_eq!(removed.len(), 1);
        assert!(matches!(&removed[0], Message::FlowRemoved(fr)
            if fr.reason == FlowRemovedReason::HardTimeout));
    }

    #[test]
    fn down_switch_is_silent() {
        let mut s = sw();
        let fm = FlowMod::add(Match::any()).action(Action::Output(PortNo::Phys(2)));
        handle(&mut s, &Message::FlowMod(fm));
        s.set_up(false);
        assert!(receive(&mut s, 1).notifications.is_empty());
        assert!(handle(&mut s, &Message::Hello).replies.is_empty());
        // Power-cycle loses the flow table.
        s.set_up(true);
        assert!(s.table().is_empty());
    }

    #[test]
    fn a_reused_output_holds_only_the_latest_call() {
        let mut s = sw();
        let mut out = SwitchOutput::default();
        s.receive_packet(1, &pkt(), SimTime::ZERO, &mut out);
        assert_eq!(out.notifications.len(), 1, "a miss punts");
        let fm = FlowMod::add(Match::any()).action(Action::Output(PortNo::Flood));
        s.handle_message(&Message::FlowMod(fm), SimTime::ZERO, &mut out);
        assert!(out.notifications.is_empty() && out.emissions.is_empty());
        assert_eq!(out.pre_state, Some(PreState::DisplacedFlows(vec![])));
        s.receive_packet(1, &pkt(), SimTime::ZERO, &mut out);
        assert_eq!((out.emissions.len(), out.pre_state.is_none()), (3, true));
        s.handle_message(&Message::Hello, SimTime::ZERO, &mut out);
        assert_eq!(out.replies, vec![Message::Hello]);
        assert!(out.emissions.is_empty());
    }

    #[test]
    fn rewrites_apply_to_every_output_in_list_order() {
        let mut s = sw();
        let fm = FlowMod::add(Match::any())
            .action(Action::Output(PortNo::Phys(2)))
            .action(Action::SetEthDst(MacAddr::from_index(9)))
            .action(Action::Output(PortNo::InPort))
            .action(Action::Output(PortNo::Controller));
        handle(&mut s, &Message::FlowMod(fm));
        let out = receive(&mut s, 1);
        let ports: Vec<_> = out.emissions.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![PortNo::Phys(2), PortNo::Phys(1)]);
        assert!(out
            .emissions
            .iter()
            .all(|(_, p)| p.eth_dst == MacAddr::from_index(9)));
        assert!(matches!(&out.notifications[..], [Message::PacketIn(pi)]
            if pi.reason == PacketInReason::Action && pi.packet.eth_dst == MacAddr::from_index(9)));
    }

    #[test]
    fn delete_strict_pre_state_is_deleted_flows() {
        let mut s = sw();
        let m = Match::eth_dst(MacAddr::from_index(2));
        let fm = FlowMod::add(m.clone())
            .priority(9)
            .action(Action::Output(PortNo::Phys(2)));
        handle(&mut s, &Message::FlowMod(fm));
        let out = handle(&mut s, &Message::FlowMod(FlowMod::delete_strict(m, 9)));
        match out.pre_state {
            Some(PreState::DeletedFlows(snaps)) => assert_eq!(snaps.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}
