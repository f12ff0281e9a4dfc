//! The proxy⇄stub RPC protocol (paper §4.1).
//!
//! "The stub is a light-weight wrapper around the actual SDN-App and
//! converts all calls from the SDN-App to the controller to messages which
//! are then delivered to the proxy. [...] the stub and proxy implement a
//! simple RPC-like mechanism."
//!
//! Frames are length-prefixed: `u32 LE length | body`, with the body encoded
//! by the deterministic binary codec.
//!
//! An app needs the controller's topology/device views to process an
//! event, and the stub keeps its own copy of them. The proxy ships the
//! views whole once — [`RpcMessage::EventDeliver`], on first contact and
//! again after any failure — and from then on only what changed since the
//! delivery frame before: [`RpcMessage::EventDeliverDelta`] names that
//! frame in `base` and carries the entry-level diff against its views. A
//! stub applies a delta only on top of exactly that frame; on any other
//! `base` it stays silent, so the app never runs on views the proxy did
//! not build the frame from and the proxy's delivery timeout reports the
//! break as the communication failure it is.

use legosdn_codec::Codec;
use legosdn_controller::app::Command;
use legosdn_controller::event::{Event, EventKind};
use legosdn_controller::services::{DeviceDelta, DeviceView, TopologyDelta, TopologyView};
use legosdn_controller::snapshot;
use legosdn_netsim::SimTime;

/// One RPC frame.
#[derive(Clone, Debug, PartialEq, Codec)]
pub enum RpcMessage {
    // ------------------------------------------------ stub → proxy
    /// First message after stub start: name + subscriptions.
    Register {
        app_name: String,
        subscriptions: Vec<EventKind>,
    },
    /// Periodic liveness signal ("the stub also sends periodic heart beat
    /// messages").
    Heartbeat { seq: u64 },
    /// Event processed successfully; these are the app's commands.
    EventAck { seq: u64, commands: Vec<Command> },
    /// The app crashed processing the event (the stub survives to report it
    /// when crash reporting is enabled; otherwise the proxy sees silence).
    Crashed { seq: u64, panic_message: String },
    /// Snapshot bytes, on request.
    SnapshotReply { seq: u64, bytes: Vec<u8> },
    /// Restore finished.
    RestoreAck { seq: u64, ok: bool },

    // ------------------------------------------------ proxy → stub
    /// Deliver an event with the full views needed to process it.
    EventDeliver {
        seq: u64,
        event: Event,
        topology: TopologyView,
        devices: DeviceView,
        now: SimTime,
    },
    /// Request a state snapshot (the checkpoint primitive).
    SnapshotRequest { seq: u64 },
    /// Restore app state from snapshot bytes (the CRIU-restore analogue).
    RestoreRequest { seq: u64, bytes: Vec<u8> },
    /// Orderly shutdown.
    Shutdown,
    /// Deliver an event to a stub that holds the views of delivery frame
    /// `base`: `topology`/`devices` turn those into this event's views.
    EventDeliverDelta {
        seq: u64,
        event: Event,
        base: u64,
        topology: TopologyDelta,
        devices: DeviceDelta,
        now: SimTime,
    },
}

/// Smallest buffer a frame is written into: every control frame
/// (register, heartbeat, requests, acks without commands) fits.
const MIN_FRAME_CAPACITY: usize = 64;

/// Write one frame into one buffer: leave room for the length prefix, let
/// `body` append the encoding behind it, then fill the prefix in. A
/// `capacity` that covers the frame makes this a single allocation.
fn framed(capacity: usize, body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(capacity.max(MIN_FRAME_CAPACITY));
    out.extend_from_slice(&[0u8; 4]);
    body(&mut out);
    let len = u32::try_from(out.len() - 4).expect("an rpc frame body is far below 4 GiB");
    out[..4].copy_from_slice(&len.to_le_bytes());
    out
}

/// Encode a frame (length prefix + body).
#[must_use]
pub fn encode_frame(msg: &RpcMessage) -> Vec<u8> {
    encode_frame_sized(msg, 0)
}

/// [`encode_frame`] into a buffer that starts `capacity` bytes large —
/// the size the stream's previous frame of this kind came to. Only the
/// number of allocations depends on it.
#[must_use]
pub fn encode_frame_sized(msg: &RpcMessage, capacity: usize) -> Vec<u8> {
    framed(capacity, |out| msg.encode(out))
}

/// Variant indices of the two delivery frames, as `#[derive(Codec)]`
/// numbers [`RpcMessage`]'s variants (declaration order, `u32`).
const EVENT_DELIVER: u32 = 6;
const EVENT_DELIVER_DELTA: u32 = 10;

/// The bytes of `encode_frame(&RpcMessage::EventDeliver { .. })` from
/// borrowed parts: the proxy does not clone the event (packet payload
/// included) and both views just to own a message it encodes once.
#[must_use]
pub fn encode_deliver(
    seq: u64,
    event: &Event,
    topology: &TopologyView,
    devices: &DeviceView,
    now: SimTime,
    capacity: usize,
) -> Vec<u8> {
    framed(capacity, |out| {
        EVENT_DELIVER.encode(out);
        seq.encode(out);
        event.encode(out);
        topology.encode(out);
        devices.encode(out);
        now.encode(out);
    })
}

/// The bytes of `encode_frame(&RpcMessage::EventDeliverDelta { .. })`
/// from borrowed parts; see [`encode_deliver`].
#[must_use]
pub fn encode_deliver_delta(
    seq: u64,
    event: &Event,
    base: u64,
    topology: &TopologyDelta,
    devices: &DeviceDelta,
    now: SimTime,
    capacity: usize,
) -> Vec<u8> {
    framed(capacity, |out| {
        EVENT_DELIVER_DELTA.encode(out);
        seq.encode(out);
        event.encode(out);
        base.encode(out);
        topology.encode(out);
        devices.encode(out);
        now.encode(out);
    })
}

/// Decode a frame produced by [`encode_frame`].
pub fn decode_frame(bytes: &[u8]) -> Result<RpcMessage, snapshot::CodecError> {
    if bytes.len() < 4 {
        return Err(snapshot::CodecError::Eof);
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    if bytes.len() < 4 + len {
        return Err(snapshot::CodecError::Eof);
    }
    snapshot::from_bytes(&bytes[4..4 + len])
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_openflow::prelude::*;

    fn roundtrip(msg: RpcMessage) {
        let bytes = encode_frame(&msg);
        let back = decode_frame(&bytes).expect("decode");
        assert_eq!(back, msg);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(RpcMessage::Register {
            app_name: "router".into(),
            subscriptions: vec![EventKind::PacketIn, EventKind::LinkDown],
        });
        roundtrip(RpcMessage::Heartbeat { seq: 42 });
        roundtrip(RpcMessage::EventAck {
            seq: 7,
            commands: vec![Command {
                dpid: DatapathId(1),
                msg: Message::FlowMod(
                    FlowMod::add(Match::any()).action(Action::Output(PortNo::Flood)),
                ),
            }],
        });
        roundtrip(RpcMessage::Crashed {
            seq: 9,
            panic_message: "injected".into(),
        });
        roundtrip(RpcMessage::SnapshotReply {
            seq: 3,
            bytes: vec![1, 2, 3],
        });
        roundtrip(RpcMessage::RestoreAck { seq: 4, ok: true });
        roundtrip(RpcMessage::SnapshotRequest { seq: 5 });
        roundtrip(RpcMessage::RestoreRequest {
            seq: 6,
            bytes: vec![],
        });
        roundtrip(RpcMessage::Shutdown);
    }

    #[test]
    fn event_deliver_carries_views() {
        let mut topology = TopologyView::default();
        topology.switch_up(DatapathId(1), vec![]);
        let devices = DeviceView::default();
        roundtrip(RpcMessage::EventDeliver {
            seq: 1,
            event: Event::SwitchUp(DatapathId(1)),
            topology,
            devices,
            now: SimTime::from_secs(5),
        });
    }

    #[test]
    fn event_deliver_delta_carries_only_the_change() {
        let mut older = TopologyView::default();
        for d in 1..=40 {
            older.switch_up(DatapathId(d), vec![]);
        }
        let mut newer = older.clone();
        newer.switch_up(DatapathId(41), vec![]);
        let devices = DeviceView::default();
        let delta = RpcMessage::EventDeliverDelta {
            seq: 2,
            event: Event::SwitchUp(DatapathId(41)),
            base: 1,
            topology: older.diff(&newer),
            devices: devices.diff(&devices),
            now: SimTime::from_secs(5),
        };
        let full = RpcMessage::EventDeliver {
            seq: 2,
            event: Event::SwitchUp(DatapathId(41)),
            topology: newer,
            devices,
            now: SimTime::from_secs(5),
        };
        assert!(encode_frame(&delta).len() * 4 < encode_frame(&full).len());
        roundtrip(delta);
    }

    #[test]
    fn truncated_frames_error() {
        let bytes = encode_frame(&RpcMessage::Heartbeat { seq: 1 });
        for cut in 0..bytes.len() {
            assert!(decode_frame(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
