//! OpenFlow 1.0 subset: message model, binary wire codec, and message inversion.
//!
//! This crate models the slice of OpenFlow 1.0 that the LegoSDN paper's
//! prototype exercises on FloodLight: the symmetric/handshake messages, the
//! controller-to-switch state-modification messages (`FlowMod`, `PacketOut`,
//! `PortMod`, barriers, statistics requests) and the asynchronous
//! switch-to-controller messages (`PacketIn`, `FlowRemoved`, `PortStatus`,
//! statistics replies, errors).
//!
//! Two properties of the message set are load-bearing for LegoSDN and are
//! first-class here:
//!
//! 1. **Wire codec** ([`wire`]): every message encodes to and decodes from
//!    the OpenFlow 1.0 binary framing (version/type/length/xid header).
//!    AppVisor's proxy⇄stub RPC carries these bytes, so isolation-latency
//!    measurements include real serialization cost (paper §3.1).
//! 2. **Invertibility** ([`inverse`]): for every state-altering control
//!    message `A` there exists a message (or set of messages) `B` that undoes
//!    `A`'s state change, given a snapshot of the state `A` displaced. NetLog
//!    is built on exactly this insight (paper §3.2).
//!
//! # Example
//!
//! ```
//! use legosdn_openflow::prelude::*;
//!
//! let fm = FlowMod::add(Match::exact_eth(MacAddr::new([0, 0, 0, 0, 0, 1]),
//!                                        MacAddr::new([0, 0, 0, 0, 0, 2])))
//!     .priority(100)
//!     .idle_timeout(5)
//!     .action(Action::Output(PortNo::Phys(3)));
//! let msg = Message::FlowMod(fm);
//! let bytes = legosdn_openflow::wire::encode(&msg, Xid(7));
//! let (decoded, xid) = legosdn_openflow::wire::decode(&bytes).unwrap();
//! assert_eq!(msg, decoded);
//! assert_eq!(xid, Xid(7));
//! ```

#![forbid(unsafe_code)]

pub mod actions;
pub mod error;
pub mod inverse;
pub mod matching;
pub mod messages;
pub mod packet;
pub mod types;
pub mod wire;

pub mod prelude {
    //! Convenient glob import of the types used by virtually every consumer.
    pub use crate::actions::Action;
    pub use crate::error::{CodecError, ErrorCode, ErrorType};
    pub use crate::inverse::inverse_into;
    pub use crate::matching::{ExactKey, Match, WildcardClass};
    pub use crate::messages::{
        ErrorMsg, FlowEntrySnapshot, FlowMod, FlowModCommand, FlowRemoved, FlowRemovedReason,
        Message, MessageKind, PacketIn, PacketInReason, PacketOut, PortDesc, PortMod, PortStats,
        PortStatus, PortStatusReason, StatsReply, StatsRequest, SwitchFeatures, TableStats,
    };
    pub use crate::packet::{EtherType, IpProto, Packet};
    pub use crate::types::{BufferId, DatapathId, Ipv4Addr, MacAddr, PortNo, VlanId, Xid};
}

pub use prelude::*;
