//! AppVisor — the isolation layer between SDN applications and the
//! controller (paper §3.1, §4.1).
//!
//! The paper's architecture splits app hosting into two halves:
//!
//! - the **proxy** ([`proxy::AppVisorProxy`]) runs alongside the controller,
//!   dispatches events to isolated apps, maintains the subscription table,
//!   and detects crashes via explicit `Crashed` reports and communication
//!   failures (no reply by a delivery's deadline);
//! - the **stub** (hosted by a [`stub::StubHost`]) holds one app in its
//!   own fault domain and converts controller calls to RPC frames; it
//!   speaks only to answer the proxy.
//!
//! The RPC rides a [`transport::Transport`], the one I/O seam on both
//! sides: an in-memory [`QueueTransport`] or a UDP loopback
//! [`UdpTransport`] (the paper's prototype transport), one type per
//! medium used at both ends — the I/O model is in [`poll`]. A fault
//! domain is the app's `Sandbox`, on a pool of host threads — the
//! process-isolation substitution documented in DESIGN.md §2. Tests
//! that turn on a timeout drive the stub inline ([`InlineStub`]).

#![forbid(unsafe_code)]

pub mod poll;
pub mod proxy;
pub mod rpc;
pub mod stub;
pub mod transport;

pub use legosdn_controller::DeliverOutcome;
pub use poll::{QueueTransport, UdpTransport};
pub use proxy::{
    AppHandle, AppVisorProxy, AppWireStats, IoMode, ProxyConfig, ProxyError, TransportKind,
    STUB_WINDOW,
};
pub use rpc::{
    decode_frame, encode_deliver, encode_deliver_delta, encode_frame, encode_frame_into,
    encode_snapshot_reply, RpcMessage,
};
pub use stub::{StubConfig, StubHost, StubReport};
pub use transport::{FlakyTransport, InlineStub, Transport, TransportError, MAX_DATAGRAM};
