//! The OpenFlow 1.0 message set.
//!
//! [`Message`] is the single enum carried between switches, the controller,
//! and (over the AppVisor RPC) isolated applications. [`MessageKind`] is the
//! subscription vocabulary: apps register interest in kinds, and the paper's
//! Crash-Pad policy language keys compromise rules on kinds.

use crate::actions::Action;
use crate::error::{ErrorCode, ErrorType};
use crate::matching::Match;
use crate::packet::Packet;
use crate::types::{BufferId, DatapathId, MacAddr, PortNo};
use legosdn_codec::Codec;

/// `ofp_flow_mod` command.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Codec)]
pub enum FlowModCommand {
    /// Add a new flow (replacing an identical match+priority entry).
    Add,
    /// Modify actions of all matching flows (non-strict).
    Modify,
    /// Modify actions of the strictly-matching flow.
    ModifyStrict,
    /// Delete all matching flows (non-strict, wildcards subsume).
    Delete,
    /// Delete the strictly-matching flow.
    DeleteStrict,
}

/// `ofp_flow_mod`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Codec)]
pub struct FlowMod {
    pub command: FlowModCommand,
    pub mat: Match,
    pub cookie: u64,
    pub priority: u16,
    pub idle_timeout: u16,
    pub hard_timeout: u16,
    pub buffer_id: BufferId,
    /// For delete commands: restrict to flows with this output port.
    pub out_port: PortNo,
    /// Request a `FlowRemoved` when this flow expires or is deleted.
    pub send_flow_removed: bool,
    /// Refuse to add if an overlapping entry of the same priority exists.
    pub check_overlap: bool,
    pub actions: Vec<Action>,
}

impl FlowMod {
    /// Start building an `Add` flow-mod for `mat`.
    #[must_use]
    pub fn add(mat: Match) -> Self {
        FlowMod {
            command: FlowModCommand::Add,
            mat,
            cookie: 0,
            priority: 0x8000,
            idle_timeout: 0,
            hard_timeout: 0,
            buffer_id: BufferId::NONE,
            out_port: PortNo::None,
            send_flow_removed: false,
            check_overlap: false,
            actions: Vec::new(),
        }
    }

    /// Start building a non-strict `Delete` flow-mod for `mat`.
    #[must_use]
    pub fn delete(mat: Match) -> Self {
        FlowMod {
            command: FlowModCommand::Delete,
            ..FlowMod::add(mat)
        }
    }

    /// Start building a strict `Delete` flow-mod for `mat` at `priority`.
    #[must_use]
    pub fn delete_strict(mat: Match, priority: u16) -> Self {
        FlowMod {
            command: FlowModCommand::DeleteStrict,
            priority,
            ..FlowMod::add(mat)
        }
    }

    /// Builder: set priority.
    #[must_use]
    pub fn priority(mut self, p: u16) -> Self {
        self.priority = p;
        self
    }

    /// Builder: set cookie.
    #[must_use]
    pub fn cookie(mut self, c: u64) -> Self {
        self.cookie = c;
        self
    }

    /// Builder: set idle timeout (seconds of inactivity before expiry).
    #[must_use]
    pub fn idle_timeout(mut self, secs: u16) -> Self {
        self.idle_timeout = secs;
        self
    }

    /// Builder: set hard timeout (seconds before unconditional expiry).
    #[must_use]
    pub fn hard_timeout(mut self, secs: u16) -> Self {
        self.hard_timeout = secs;
        self
    }

    /// Builder: append an action.
    #[must_use]
    pub fn action(mut self, a: Action) -> Self {
        self.actions.push(a);
        self
    }

    /// Builder: replace the action list.
    #[must_use]
    pub fn actions(mut self, acts: Vec<Action>) -> Self {
        self.actions = acts;
        self
    }

    /// Builder: request flow-removed notifications.
    #[must_use]
    pub fn notify_removed(mut self) -> Self {
        self.send_flow_removed = true;
        self
    }

    /// Whether this command mutates switch state (all flow-mods do).
    #[must_use]
    pub fn is_delete(&self) -> bool {
        matches!(
            self.command,
            FlowModCommand::Delete | FlowModCommand::DeleteStrict
        )
    }
}

/// Why a `PacketIn` was generated.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Codec)]
pub enum PacketInReason {
    /// No matching flow entry.
    NoMatch,
    /// An explicit output-to-controller action.
    Action,
}

/// `ofp_packet_in`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Codec)]
pub struct PacketIn {
    pub buffer_id: BufferId,
    pub in_port: PortNo,
    pub reason: PacketInReason,
    pub packet: Packet,
}

/// `ofp_packet_out`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Codec)]
pub struct PacketOut {
    pub buffer_id: BufferId,
    pub in_port: PortNo,
    pub actions: Vec<Action>,
    /// Present when `buffer_id == BufferId::NONE`.
    pub packet: Option<Packet>,
}

/// Why a `FlowRemoved` was generated.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Codec)]
pub enum FlowRemovedReason {
    IdleTimeout,
    HardTimeout,
    Delete,
}

/// `ofp_flow_removed`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Codec)]
pub struct FlowRemoved {
    pub mat: Match,
    pub cookie: u64,
    pub priority: u16,
    pub reason: FlowRemovedReason,
    /// Seconds the flow was installed.
    pub duration_sec: u32,
    pub idle_timeout: u16,
    pub packet_count: u64,
    pub byte_count: u64,
}

/// Why a `PortStatus` was generated.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Codec)]
pub enum PortStatusReason {
    Add,
    Delete,
    Modify,
}

/// `ofp_phy_port` (subset).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Codec)]
pub struct PortDesc {
    pub port_no: PortNo,
    pub hw_addr: MacAddr,
    pub name: String,
    /// Administratively down (`OFPPC_PORT_DOWN`).
    pub config_down: bool,
    /// No physical link (`OFPPS_LINK_DOWN`).
    pub link_down: bool,
}

impl PortDesc {
    /// A port that is up both administratively and physically.
    #[must_use]
    pub fn up(port_no: PortNo, hw_addr: MacAddr) -> Self {
        PortDesc {
            port_no,
            hw_addr,
            name: format!("eth{port_no}"),
            config_down: false,
            link_down: false,
        }
    }

    /// Usable for forwarding?
    #[must_use]
    pub fn is_live(&self) -> bool {
        !self.config_down && !self.link_down
    }
}

/// `ofp_port_status`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Codec)]
pub struct PortStatus {
    pub reason: PortStatusReason,
    pub desc: PortDesc,
}

/// A statistics request (`ofp_stats_request` subset).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Codec)]
pub enum StatsRequest {
    /// Per-flow stats for flows subsumed by the match.
    Flow { mat: Match, out_port: PortNo },
    /// Aggregate stats for flows subsumed by the match.
    Aggregate { mat: Match, out_port: PortNo },
    /// Per-port counters; `PortNo::None` means all ports.
    Port { port: PortNo },
    /// Flow-table summary.
    Table,
}

/// A single flow's statistics, also the snapshot NetLog stores before a
/// delete so the entry can be faithfully restored (paper §3.2).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Codec)]
pub struct FlowEntrySnapshot {
    pub mat: Match,
    pub priority: u16,
    pub cookie: u64,
    pub idle_timeout: u16,
    pub hard_timeout: u16,
    /// Remaining seconds before hard expiry at snapshot time (`None` if the
    /// flow has no hard timeout).
    pub remaining_hard: Option<u32>,
    pub duration_sec: u32,
    pub packet_count: u64,
    pub byte_count: u64,
    pub send_flow_removed: bool,
    pub actions: Vec<Action>,
}

/// Per-port counters.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Codec)]
pub struct PortStats {
    pub port_no: u16,
    pub rx_packets: u64,
    pub tx_packets: u64,
    pub rx_bytes: u64,
    pub tx_bytes: u64,
    pub rx_dropped: u64,
    pub tx_dropped: u64,
}

/// Flow-table summary counters.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Codec)]
pub struct TableStats {
    pub active_count: u32,
    pub lookup_count: u64,
    pub matched_count: u64,
    pub max_entries: u32,
}

/// A statistics reply (`ofp_stats_reply` subset).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Codec)]
pub enum StatsReply {
    Flow(Vec<FlowEntrySnapshot>),
    Aggregate {
        packet_count: u64,
        byte_count: u64,
        flow_count: u32,
    },
    Port(Vec<PortStats>),
    Table(TableStats),
}

/// `ofp_switch_features` (features reply).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Codec)]
pub struct SwitchFeatures {
    pub datapath_id: DatapathId,
    pub n_buffers: u32,
    pub n_tables: u8,
    pub ports: Vec<PortDesc>,
}

/// `ofp_port_mod` (subset: administrative up/down).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Codec)]
pub struct PortMod {
    pub port_no: PortNo,
    pub hw_addr: MacAddr,
    /// Set the port administratively down (true) or up (false).
    pub down: bool,
}

/// `ofp_error_msg`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Codec)]
pub struct ErrorMsg {
    pub err_type: ErrorType,
    pub code: ErrorCode,
    /// First bytes of the offending message, as OF 1.0 requires.
    pub data: Vec<u8>,
}

/// Every OpenFlow message the system speaks.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Codec)]
pub enum Message {
    Hello,
    EchoRequest(Vec<u8>),
    EchoReply(Vec<u8>),
    FeaturesRequest,
    FeaturesReply(SwitchFeatures),
    PacketIn(PacketIn),
    PacketOut(PacketOut),
    FlowMod(FlowMod),
    FlowRemoved(FlowRemoved),
    PortStatus(PortStatus),
    PortMod(PortMod),
    StatsRequest(StatsRequest),
    StatsReply(StatsReply),
    BarrierRequest,
    BarrierReply,
    Error(ErrorMsg),
}

/// The kind of a message, used for subscriptions and policy keys.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Codec)]
pub enum MessageKind {
    Hello,
    EchoRequest,
    EchoReply,
    FeaturesRequest,
    FeaturesReply,
    PacketIn,
    PacketOut,
    FlowMod,
    FlowRemoved,
    PortStatus,
    PortMod,
    StatsRequest,
    StatsReply,
    BarrierRequest,
    BarrierReply,
    Error,
}

impl MessageKind {
    /// Every kind, in wire-type order.
    pub const ALL: [MessageKind; 16] = [
        MessageKind::Hello,
        MessageKind::EchoRequest,
        MessageKind::EchoReply,
        MessageKind::FeaturesRequest,
        MessageKind::FeaturesReply,
        MessageKind::PacketIn,
        MessageKind::PacketOut,
        MessageKind::FlowMod,
        MessageKind::FlowRemoved,
        MessageKind::PortStatus,
        MessageKind::PortMod,
        MessageKind::StatsRequest,
        MessageKind::StatsReply,
        MessageKind::BarrierRequest,
        MessageKind::BarrierReply,
        MessageKind::Error,
    ];
}

impl Message {
    /// The kind discriminant of this message.
    #[must_use]
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::Hello => MessageKind::Hello,
            Message::EchoRequest(_) => MessageKind::EchoRequest,
            Message::EchoReply(_) => MessageKind::EchoReply,
            Message::FeaturesRequest => MessageKind::FeaturesRequest,
            Message::FeaturesReply(_) => MessageKind::FeaturesReply,
            Message::PacketIn(_) => MessageKind::PacketIn,
            Message::PacketOut(_) => MessageKind::PacketOut,
            Message::FlowMod(_) => MessageKind::FlowMod,
            Message::FlowRemoved(_) => MessageKind::FlowRemoved,
            Message::PortStatus(_) => MessageKind::PortStatus,
            Message::PortMod(_) => MessageKind::PortMod,
            Message::StatsRequest(_) => MessageKind::StatsRequest,
            Message::StatsReply(_) => MessageKind::StatsReply,
            Message::BarrierRequest => MessageKind::BarrierRequest,
            Message::BarrierReply => MessageKind::BarrierReply,
            Message::Error(_) => MessageKind::Error,
        }
    }

    /// Does this message, sent controller→switch, alter durable switch
    /// state? This is NetLog's "state-altering control message" predicate
    /// (paper §3.2): such messages must be logged with enough pre-state to
    /// be inverted.
    #[must_use]
    pub fn alters_network_state(&self) -> bool {
        matches!(self, Message::FlowMod(_) | Message::PortMod(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Ipv4Addr, Xid};

    #[test]
    fn flowmod_builder_defaults() {
        let fm = FlowMod::add(Match::any());
        assert_eq!(fm.command, FlowModCommand::Add);
        assert_eq!(fm.priority, 0x8000);
        assert_eq!(fm.buffer_id, BufferId::NONE);
        assert!(fm.actions.is_empty());
        assert!(!fm.send_flow_removed);
    }

    #[test]
    fn flowmod_builder_chains() {
        let fm = FlowMod::add(Match::any())
            .priority(7)
            .cookie(0xdead)
            .idle_timeout(10)
            .hard_timeout(60)
            .action(Action::Output(PortNo::Phys(2)))
            .notify_removed();
        assert_eq!(fm.priority, 7);
        assert_eq!(fm.cookie, 0xdead);
        assert_eq!(fm.idle_timeout, 10);
        assert_eq!(fm.hard_timeout, 60);
        assert_eq!(fm.actions.len(), 1);
        assert!(fm.send_flow_removed);
    }

    #[test]
    fn delete_builders_set_command() {
        assert!(FlowMod::delete(Match::any()).is_delete());
        let ds = FlowMod::delete_strict(Match::any(), 42);
        assert!(ds.is_delete());
        assert_eq!(ds.priority, 42);
        assert!(!FlowMod::add(Match::any()).is_delete());
    }

    #[test]
    fn message_kind_covers_all_variants() {
        // Spot-check a few and confirm ALL has no duplicates.
        assert_eq!(Message::Hello.kind(), MessageKind::Hello);
        assert_eq!(Message::BarrierReply.kind(), MessageKind::BarrierReply);
        let mut kinds: Vec<_> = MessageKind::ALL.to_vec();
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), 16);
    }

    #[test]
    fn state_altering_predicate() {
        assert!(Message::FlowMod(FlowMod::add(Match::any())).alters_network_state());
        assert!(Message::PortMod(PortMod {
            port_no: PortNo::Phys(1),
            hw_addr: MacAddr::from_index(1),
            down: true,
        })
        .alters_network_state());
        assert!(!Message::Hello.alters_network_state());
        assert!(!Message::PacketOut(PacketOut {
            buffer_id: BufferId::NONE,
            in_port: PortNo::None,
            actions: vec![],
            packet: None,
        })
        .alters_network_state());
    }

    #[test]
    fn port_desc_liveness() {
        let mut pd = PortDesc::up(PortNo::Phys(1), MacAddr::from_index(1));
        assert!(pd.is_live());
        pd.link_down = true;
        assert!(!pd.is_live());
        pd.link_down = false;
        pd.config_down = true;
        assert!(!pd.is_live());
    }

    #[test]
    fn snapshot_is_plain_data() {
        let snap = FlowEntrySnapshot {
            mat: Match::ip_dst_prefix(Ipv4Addr::new(10, 0, 0, 0), 8),
            priority: 1,
            cookie: 2,
            idle_timeout: 3,
            hard_timeout: 4,
            remaining_hard: Some(2),
            duration_sec: 2,
            packet_count: 100,
            byte_count: 6400,
            send_flow_removed: false,
            actions: vec![Action::Output(PortNo::Phys(1))],
        };
        let clone = snap.clone();
        assert_eq!(snap, clone);
        let _ = Xid(0); // silence unused import in some cfgs
    }
}
