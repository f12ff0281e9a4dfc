//! AppVisor — the isolation layer between SDN applications and the
//! controller (paper §3.1, §4.1).
//!
//! The paper's architecture splits app hosting into two halves:
//!
//! - the **proxy** ([`proxy::AppVisorProxy`]) runs alongside the controller,
//!   dispatches events to isolated apps, maintains the subscription table,
//!   and detects crashes via explicit reports, communication failures, and
//!   heartbeat loss;
//! - the **stub** (hosted by a [`stub::StubHost`]) holds one app in its
//!   own fault domain, converts controller calls to RPC frames, and sends
//!   periodic heartbeats.
//!
//! The RPC rides a [`transport::Transport`]: in-memory queues, or UDP (the
//! paper's prototype transport) or TCP loopback through the poller — one
//! I/O model, in [`poll`]. A fault domain is the app's `Sandbox`, on a
//! pool of host threads — the process-isolation substitution documented
//! in DESIGN.md §2.

pub mod poll;
pub mod proxy;
pub mod rpc;
pub mod stub;
pub mod transport;

pub use poll::{
    queue_duplex_pair, tcp_duplex_pair, udp_duplex_pair, Duplex, FrameQueue, FrameSink,
    FrameSource, PolledTransport, Poller, QueueTransport,
};
pub use proxy::{
    AppHandle, AppVisorProxy, AppWireStats, DeliverOutcome, IoMode, ProxyConfig, ProxyError,
    TransportKind,
};
pub use rpc::{
    decode_frame, encode_deliver, encode_deliver_delta, encode_frame, encode_frame_sized,
    RpcMessage,
};
pub use stub::{StubConfig, StubHost, StubReport};
pub use transport::{FlakyTransport, Transport, TransportError, MAX_DATAGRAM};
