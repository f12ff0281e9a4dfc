//! Shared helpers for application implementations.

use legosdn_codec::Codec;
use legosdn_controller::app::{RestoreError, Snapshot};
use legosdn_controller::snapshot;

/// Serialize an app state, its memos shared.
pub fn snap<T: Codec>(state: &T) -> Snapshot {
    Snapshot::of(state)
}

/// Deserialize an app state.
pub fn unsnap<T: Codec>(bytes: &[u8]) -> Result<T, RestoreError> {
    snapshot::from_bytes(bytes).map_err(|e| RestoreError(e.to_string()))
}

/// Reply to a packet-in: reuse the switch buffer when one exists, otherwise
/// carry the packet inline.
#[must_use]
pub fn packet_out_reply(
    pi: &legosdn_openflow::messages::PacketIn,
    actions: Vec<legosdn_openflow::prelude::Action>,
) -> legosdn_openflow::messages::PacketOut {
    legosdn_openflow::messages::PacketOut {
        buffer_id: pi.buffer_id,
        in_port: pi.in_port,
        actions,
        packet: if pi.buffer_id.is_some() {
            None
        } else {
            Some(pi.packet.clone())
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_openflow::prelude::*;

    #[test]
    fn snapshot_helpers_roundtrip() {
        let v = vec![(1u32, "a".to_string())];
        let bytes = snap(&v);
        let back: Vec<(u32, String)> = unsnap(&bytes.flat()).unwrap();
        assert_eq!(back, v);
        assert!(unsnap::<u64>(&bytes.flat()[..1]).is_err());
    }

    #[test]
    fn packet_out_reply_uses_buffer_when_present() {
        let pkt = Packet::ethernet(MacAddr::from_index(1), MacAddr::from_index(2));
        let buffered = PacketIn {
            buffer_id: BufferId(5),
            in_port: PortNo::Phys(1),
            reason: PacketInReason::NoMatch,
            packet: pkt.clone(),
        };
        let po = packet_out_reply(&buffered, vec![Action::Output(PortNo::Flood)]);
        assert_eq!(po.buffer_id, BufferId(5));
        assert!(po.packet.is_none());

        let unbuffered = PacketIn {
            buffer_id: BufferId::NONE,
            ..buffered
        };
        let po = packet_out_reply(&unbuffered, vec![]);
        assert_eq!(po.packet, Some(pkt));
    }
}
