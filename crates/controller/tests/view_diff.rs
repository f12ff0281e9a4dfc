//! The copy-on-write views' two external contracts: `diff`/`apply` turn
//! any view into any other (older into newer or back, or across two
//! histories that diverged), and the `Arc`s inside never reach the wire.

use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_controller::snapshot;
use legosdn_netsim::{Endpoint, SimTime};
use legosdn_openflow::messages::PortDesc;
use legosdn_openflow::prelude::{DatapathId, Ipv4Addr, MacAddr, PortNo};
use legosdn_testkit::{forall, Rng};

fn ep(rng: &mut Rng) -> Endpoint {
    Endpoint::new(DatapathId(rng.gen_range(1u64..8)), rng.gen_range(1u16..4))
}

fn port(rng: &mut Rng) -> PortDesc {
    let mut desc = PortDesc::up(
        PortNo::Phys(rng.gen_range(1u16..4)),
        MacAddr::from_index(rng.gen_range(1u64..4)),
    );
    desc.link_down = rng.gen_bool(0.5);
    desc
}

/// One random controller-side mutation, no-ops included.
fn mutate(rng: &mut Rng, topology: &mut TopologyView, devices: &mut DeviceView) {
    let dpid = DatapathId(rng.gen_range(1u64..8));
    match rng.gen_range(0u32..7) {
        0 => topology.switch_up(dpid, rng.gen_vec(0..4, port)),
        1 => drop(topology.switch_down(dpid)),
        2 => drop(topology.link_up(ep(rng), ep(rng))),
        3 => drop(topology.link_down(ep(rng), ep(rng))),
        4 => topology.port_refresh(dpid, &port(rng)),
        5 => devices.learn(
            MacAddr::from_index(rng.gen_range(1u64..12)),
            rng.gen_option(|r| Ipv4Addr::from_index(r.gen_range(1u32..12))),
            ep(rng),
            SimTime::from_secs(rng.gen_range(0u64..3)),
        ),
        _ => devices.purge_switch(dpid),
    }
}

fn assert_reaches(from: &(TopologyView, DeviceView), to: &(TopologyView, DeviceView)) {
    let (mut topology, mut devices) = from.clone();
    topology.apply(from.0.diff(&to.0));
    devices.apply(from.1.diff(&to.1));
    assert_eq!(topology, to.0);
    assert_eq!(devices, to.1);
    // Equality above already covers the private graveyard; the bytes say
    // so independently of `PartialEq`.
    assert_eq!(
        snapshot::to_bytes(&topology).unwrap(),
        snapshot::to_bytes(&to.0).unwrap()
    );
}

#[test]
fn diff_then_apply_reaches_the_other_view_in_either_direction() {
    forall(300, |rng| {
        let mut base = (TopologyView::default(), DeviceView::default());
        for _ in 0..rng.gen_range(0usize..40) {
            mutate(rng, &mut base.0, &mut base.1);
        }
        let (mut a, mut b) = (base.clone(), base.clone());
        for _ in 0..rng.gen_range(0usize..12) {
            mutate(rng, &mut a.0, &mut a.1);
        }
        for _ in 0..rng.gen_range(0usize..12) {
            mutate(rng, &mut b.0, &mut b.1);
        }
        // Older to newer and back, then across the divergence.
        assert_reaches(&base, &a);
        assert_reaches(&a, &base);
        assert_reaches(&a, &b);
        assert_reaches(&b, &a);
    });
}

/// The same views, built by the same calls, encoded before the
/// collections moved behind `Arc`s.
const GOLDEN_TOPOLOGY: &str = concat!(
    "0200000000000000010000000000000001000000000000000000000001000200",
    "0000000b04000000000000006574683100000200000000000000000000000000",
    "0000010000000000000001000000000000000100020000000000000001000100",
    "0000000000000300000000000000010000000000000002000000000000000200",
    "03000000000000000100",
);
const GOLDEN_DEVICES: &str = concat!(
    "0200000000000000020000000005020000000005010500000a01000000000000",
    "00030080841e0000000000020000000006020000000006000200000000000000",
    "03000000000000000000",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn views_encode_to_the_bytes_they_had_before_sharing() {
    let at = |d: u64, p: u16| Endpoint::new(DatapathId(d), p);
    let mut topology = TopologyView::default();
    topology.switch_up(
        DatapathId(1),
        vec![PortDesc::up(PortNo::Phys(1), MacAddr::from_index(11))],
    );
    topology.switch_up(DatapathId(2), vec![]);
    topology.switch_up(DatapathId(3), vec![]);
    topology.link_up(at(1, 1), at(2, 1));
    topology.link_up(at(2, 2), at(3, 1));
    topology.switch_down(DatapathId(3)); // one grave, one buried link
    let mut devices = DeviceView::default();
    devices.learn(
        MacAddr::from_index(5),
        Some(Ipv4Addr::from_index(5)),
        at(1, 3),
        SimTime::from_secs(2),
    );
    devices.learn(MacAddr::from_index(6), None, at(2, 3), SimTime::ZERO);
    let topology_bytes = snapshot::to_bytes(&topology).unwrap();
    let devices_bytes = snapshot::to_bytes(&devices).unwrap();
    assert_eq!(hex(&topology_bytes), GOLDEN_TOPOLOGY);
    assert_eq!(hex(&devices_bytes), GOLDEN_DEVICES);
    assert_eq!(
        snapshot::from_bytes::<TopologyView>(&topology_bytes).unwrap(),
        topology
    );
    assert_eq!(
        snapshot::from_bytes::<DeviceView>(&devices_bytes).unwrap(),
        devices
    );
}
