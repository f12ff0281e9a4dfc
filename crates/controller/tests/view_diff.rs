//! The copy-on-write views' external contracts: `diff`/`apply` turn any
//! view into any other (older into newer or back, or across two histories
//! that diverged), the `Arc`s inside never reach the wire, and neither
//! does the topology view's per-switch link index, whose queries answer
//! what a scan of every link answers.

use legosdn_controller::services::{DeviceView, LinkKey, TopologyView};
use legosdn_controller::snapshot;
use legosdn_netsim::{Endpoint, SimTime};
use legosdn_openflow::messages::PortDesc;
use legosdn_openflow::prelude::{DatapathId, Ipv4Addr, MacAddr, PortNo};
use legosdn_testkit::{forall, Rng};
use std::collections::{BTreeMap, BTreeSet};

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

/// The three collections a topology view ships, in encoding order:
/// switches, links, graveyard.
type Shipped = (
    BTreeMap<DatapathId, Vec<PortDesc>>,
    BTreeSet<LinkKey>,
    BTreeMap<DatapathId, Vec<LinkKey>>,
);

// The link queries as they were before the per-switch index: scans over
// every link, kept here as the reference.

fn scan_link_at(links: &BTreeSet<LinkKey>, at: Endpoint) -> Option<LinkKey> {
    links.iter().find(|l| l.a == at || l.b == at).copied()
}

fn scan_links_of(links: &BTreeSet<LinkKey>, dpid: DatapathId) -> Vec<LinkKey> {
    links.iter().filter(|l| l.touches(dpid)).copied().collect()
}

fn scan_neighbors(links: &BTreeSet<LinkKey>, dpid: DatapathId) -> Vec<(u16, Endpoint)> {
    let mut out = Vec::new();
    for l in links {
        if l.a.dpid == dpid {
            out.push((l.a.port, l.b));
        } else if l.b.dpid == dpid {
            out.push((l.b.port, l.a));
        }
    }
    out
}

fn scan_last_known_links(shipped: &Shipped, dpid: DatapathId) -> Vec<LinkKey> {
    let live = scan_links_of(&shipped.1, dpid);
    if !live.is_empty() {
        return live;
    }
    shipped.2.get(&dpid).cloned().unwrap_or_default()
}

/// Every indexed query, at every endpoint the generators reach and one
/// beyond, equals the scan; and the view encodes as its three shipped
/// collections do, index or no index.
fn assert_index_agrees(view: &TopologyView) {
    let bytes = snapshot::to_bytes(view).unwrap();
    let shipped: Shipped = snapshot::from_bytes(&bytes).unwrap();
    assert_eq!(snapshot::to_bytes(&shipped).unwrap(), bytes);
    let links = view.links();
    assert_eq!(&shipped.1, links);
    for d in 0..=8 {
        let dpid = DatapathId(d);
        assert_eq!(view.links_of(dpid), scan_links_of(links, dpid));
        assert_eq!(view.neighbors(dpid), scan_neighbors(links, dpid));
        assert_eq!(
            view.last_known_links(dpid),
            scan_last_known_links(&shipped, dpid)
        );
        for port in 0..=4 {
            let at = Endpoint::new(dpid, port);
            assert_eq!(view.link_at(at), scan_link_at(links, at), "at {at:?}");
        }
    }
}

/// A link no physical network has: a self-link (one endpoint at both
/// ends), or a second link on an endpoint that already carries one.
fn odd_link(rng: &mut Rng, topology: &mut TopologyView) {
    let x = ep(rng);
    if rng.gen_bool(0.5) {
        topology.link_up(x, x);
    } else {
        topology.link_up(x, ep(rng));
        topology.link_up(ep(rng), x);
    }
}

#[test]
fn indexed_link_queries_agree_with_a_scan_after_every_step() {
    forall(200, |rng| {
        let mut a = (TopologyView::default(), DeviceView::default());
        let mut b = a.clone();
        for _ in 0..rng.gen_range(0usize..60) {
            match rng.gen_range(0u32..10) {
                0 => odd_link(rng, &mut a.0),
                1 => a.0.apply(a.0.diff(&b.0)),
                2 => b.0.apply(b.0.diff(&a.0)),
                3 => {
                    let bytes = snapshot::to_bytes(&a.0).unwrap();
                    a.0 = snapshot::from_bytes(&bytes).unwrap();
                }
                4 => std::mem::swap(&mut a, &mut b),
                5 => b = a.clone(),
                _ => mutate(rng, &mut a.0, &mut a.1),
            }
            assert_index_agrees(&a.0);
            assert_index_agrees(&b.0);
        }
    });
}
