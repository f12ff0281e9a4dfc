//! Application snapshot encoding — a thin facade over [`legosdn_codec`].
//!
//! Historically this module carried its own serde-based serializer; the
//! build environment is fully offline, so the format now lives in the
//! std-only `legosdn-codec` crate (same wire format: fixed-width
//! little-endian integers, `u64` length prefixes, one-byte option/bool
//! tags, `u32` enum variant indices). This module stays as the stable
//! import path for apps and Crash-Pad: `snapshot::to_bytes` /
//! `snapshot::from_bytes` / `snapshot::CodecError`, and
//! `snapshot::Snapshot`, the checkpoint an app's `snapshot` returns.
//!
//! The format is not self-describing: decoding must use the same types as
//! encoding.

pub use legosdn_codec::{from_bytes, to_bytes, Codec, CodecError, Snapshot};

#[cfg(test)]
mod tests {
    use super::*;

    // Primitive/collection/derive coverage lives in `legosdn-codec`; the
    // tests here pin the *domain* types to the wire format.

    #[test]
    fn real_domain_types_roundtrip() {
        use crate::services::{DeviceView, TopologyView};
        use legosdn_netsim::{Endpoint, SimTime};
        use legosdn_openflow::prelude::*;

        let mut topo = TopologyView::default();
        topo.switch_up(
            DatapathId(1),
            vec![PortDesc::up(PortNo::Phys(1), MacAddr::from_index(1))],
        );
        topo.link_up(
            Endpoint::new(DatapathId(1), 1),
            Endpoint::new(DatapathId(2), 2),
        );
        let bytes = to_bytes(&topo).unwrap();
        let back: TopologyView = from_bytes(&bytes).unwrap();
        assert_eq!(back, topo);

        let mut dev = DeviceView::default();
        dev.learn(
            MacAddr::from_index(3),
            Some(Ipv4Addr::from_index(3)),
            Endpoint::new(DatapathId(1), 4),
            SimTime::from_secs(9),
        );
        let bytes = to_bytes(&dev).unwrap();
        let back: DeviceView = from_bytes(&bytes).unwrap();
        assert_eq!(back, dev);
    }

    #[test]
    fn event_roundtrip() {
        use crate::event::Event;
        use legosdn_openflow::prelude::*;
        let ev = Event::PacketIn(
            DatapathId(4),
            PacketIn {
                buffer_id: BufferId(9),
                in_port: PortNo::Phys(2),
                reason: PacketInReason::NoMatch,
                packet: Packet::tcp(
                    MacAddr::from_index(1),
                    MacAddr::from_index(2),
                    Ipv4Addr::from_index(1),
                    Ipv4Addr::from_index(2),
                    123,
                    80,
                ),
            },
        );
        let bytes = to_bytes(&ev).unwrap();
        let back: Event = from_bytes(&bytes).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn error_api_is_preserved() {
        let mut bytes = to_bytes(&7u32).unwrap();
        bytes.push(0);
        assert_eq!(from_bytes::<u32>(&bytes), Err(CodecError::Trailing(1)));
        assert!(from_bytes::<bool>(&[7]).is_err());
    }
}
