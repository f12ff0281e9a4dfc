//! Core controller services: the switch/link topology view and the end-host
//! (device) view.
//!
//! These are the FloodLight-style services apps consult (switch manager,
//! link discovery, device manager). They are plain serializable data so the
//! AppVisor stub can reconstruct them for an isolated app from RPC bytes.
//!
//! Both views are copy-on-write: every collection sits behind an `Arc`, a
//! clone is a pointer bump per collection, and a mutator that would change
//! nothing returns without touching the `Arc` — so `Arc::ptr_eq` between a
//! view and an earlier clone of it means "unchanged". [`TopologyView::diff`]
//! and [`DeviceView::diff`] turn two views into the entry-level change
//! between them, which is what AppVisor ships to a stub that already holds
//! the older one.

use legosdn_codec::Codec;
use legosdn_netsim::{Endpoint, SimTime};
use legosdn_openflow::messages::PortDesc;
use legosdn_openflow::prelude::{DatapathId, Ipv4Addr, MacAddr};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

/// A normalized (smaller endpoint first) inter-switch link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Codec)]
pub struct LinkKey {
    pub a: Endpoint,
    pub b: Endpoint,
}

impl LinkKey {
    /// Normalize endpoint order so each physical link has one key.
    #[must_use]
    pub fn new(x: Endpoint, y: Endpoint) -> Self {
        if (x.dpid, x.port) <= (y.dpid, y.port) {
            LinkKey { a: x, b: y }
        } else {
            LinkKey { a: y, b: x }
        }
    }

    /// Does this link touch `dpid`?
    #[must_use]
    pub fn touches(&self, dpid: DatapathId) -> bool {
        self.a.dpid == dpid || self.b.dpid == dpid
    }

    /// The endpoint on `dpid`, if any.
    #[must_use]
    pub fn endpoint_on(&self, dpid: DatapathId) -> Option<Endpoint> {
        if self.a.dpid == dpid {
            Some(self.a)
        } else if self.b.dpid == dpid {
            Some(self.b)
        } else {
            None
        }
    }
}

/// Entry-level change between two maps, as `(upserts, removals)`.
fn diff_map<K: Ord + Clone, V: PartialEq + Clone>(
    old: &Arc<BTreeMap<K, V>>,
    new: &Arc<BTreeMap<K, V>>,
) -> (Vec<(K, V)>, Vec<K>) {
    if Arc::ptr_eq(old, new) {
        return (Vec::new(), Vec::new());
    }
    // Both sides iterate in key order: one merge walk, no lookups.
    let (mut upserts, mut removals) = (Vec::new(), Vec::new());
    let mut held = old.iter().peekable();
    for (k, v) in new.iter() {
        while let Some((gone, _)) = held.next_if(|(o, _)| *o < k) {
            removals.push(gone.clone());
        }
        if held.next_if(|(o, _)| *o == k).map(|(_, o)| o) != Some(v) {
            upserts.push((k.clone(), v.clone()));
        }
    }
    removals.extend(held.map(|(k, _)| k.clone()));
    (upserts, removals)
}

fn apply_map<K: Ord + Clone, V: Clone>(
    map: &mut Arc<BTreeMap<K, V>>,
    upserts: Vec<(K, V)>,
    removals: Vec<K>,
) {
    if upserts.is_empty() && removals.is_empty() {
        return;
    }
    let map = Arc::make_mut(map);
    for k in removals {
        map.remove(&k);
    }
    map.extend(upserts);
}

fn diff_set<K: Ord + Copy>(old: &Arc<BTreeSet<K>>, new: &Arc<BTreeSet<K>>) -> (Vec<K>, Vec<K>) {
    if Arc::ptr_eq(old, new) {
        return (Vec::new(), Vec::new());
    }
    (
        new.difference(old).copied().collect(),
        old.difference(new).copied().collect(),
    )
}

/// What turns one [`TopologyView`] into another; see [`TopologyView::diff`].
#[derive(Clone, Debug, Default, PartialEq, Codec)]
pub struct TopologyDelta {
    switches_set: Vec<(DatapathId, Vec<PortDesc>)>,
    switches_gone: Vec<DatapathId>,
    links_set: Vec<LinkKey>,
    links_gone: Vec<LinkKey>,
    graveyard_set: Vec<(DatapathId, Vec<LinkKey>)>,
    graveyard_gone: Vec<DatapathId>,
}

/// The controller's view of switches and inter-switch links.
#[derive(Clone, Debug, Default, PartialEq, Codec)]
pub struct TopologyView {
    /// Connected switches and their last-reported port descriptors.
    pub switches: Arc<BTreeMap<DatapathId, Vec<PortDesc>>>,
    /// Discovered links.
    pub links: Arc<BTreeSet<LinkKey>>,
    /// Links each switch carried when it was last seen alive. Consulted by
    /// Crash-Pad's equivalence transform: by the time a `SwitchDown` event
    /// is dispatched, the live link set no longer contains the dead
    /// switch's links.
    graveyard: Arc<BTreeMap<DatapathId, Vec<LinkKey>>>,
}

impl TopologyView {
    /// Register (or refresh) a switch.
    pub fn switch_up(&mut self, dpid: DatapathId, ports: Vec<PortDesc>) {
        if self.switches.get(&dpid) != Some(&ports) {
            Arc::make_mut(&mut self.switches).insert(dpid, ports);
        }
    }

    /// Refresh one port of a known switch's inventory from a port-status
    /// report. Unknown switches and ports are ignored.
    pub fn port_refresh(&mut self, dpid: DatapathId, desc: &PortDesc) {
        let Some(ports) = self.switches.get(&dpid) else {
            return;
        };
        let Some(i) = ports.iter().position(|p| p.port_no == desc.port_no) else {
            return;
        };
        if ports[i] != *desc {
            let ports = Arc::make_mut(&mut self.switches).get_mut(&dpid);
            ports.expect("looked up above")[i] = desc.clone();
        }
    }

    /// Remove a switch; returns the links that died with it. The dead
    /// links are remembered (see [`Self::last_known_links`]).
    pub fn switch_down(&mut self, dpid: DatapathId) -> Vec<LinkKey> {
        if self.switches.contains_key(&dpid) {
            Arc::make_mut(&mut self.switches).remove(&dpid);
        }
        let dead = self.links_of(dpid);
        if !dead.is_empty() {
            let links = Arc::make_mut(&mut self.links);
            for l in &dead {
                links.remove(l);
            }
        }
        if self.graveyard.get(&dpid) != Some(&dead) {
            Arc::make_mut(&mut self.graveyard).insert(dpid, dead.clone());
        }
        dead
    }

    /// The entry-level change that turns `self` into `target`:
    /// `a.apply(a.diff(&b))` leaves `a == b` whichever of the two is the
    /// newer. Collections the two views still share cost a pointer compare.
    #[must_use]
    pub fn diff(&self, target: &TopologyView) -> TopologyDelta {
        let (switches_set, switches_gone) = diff_map(&self.switches, &target.switches);
        let (links_set, links_gone) = diff_set(&self.links, &target.links);
        let (graveyard_set, graveyard_gone) = diff_map(&self.graveyard, &target.graveyard);
        TopologyDelta {
            switches_set,
            switches_gone,
            links_set,
            links_gone,
            graveyard_set,
            graveyard_gone,
        }
    }

    /// Apply a change computed by [`Self::diff`] against this view.
    pub fn apply(&mut self, delta: TopologyDelta) {
        apply_map(&mut self.switches, delta.switches_set, delta.switches_gone);
        if !delta.links_set.is_empty() || !delta.links_gone.is_empty() {
            let links = Arc::make_mut(&mut self.links);
            for l in &delta.links_gone {
                links.remove(l);
            }
            links.extend(delta.links_set);
        }
        apply_map(
            &mut self.graveyard,
            delta.graveyard_set,
            delta.graveyard_gone,
        );
    }

    /// The links a switch carries now — or, if it just went down, the
    /// links it carried when last alive.
    #[must_use]
    pub fn last_known_links(&self, dpid: DatapathId) -> Vec<LinkKey> {
        let live = self.links_of(dpid);
        if !live.is_empty() {
            return live;
        }
        self.graveyard.get(&dpid).cloned().unwrap_or_default()
    }

    /// Record a discovered link. Returns true if it was new.
    pub fn link_up(&mut self, x: Endpoint, y: Endpoint) -> bool {
        let key = LinkKey::new(x, y);
        !self.links.contains(&key) && Arc::make_mut(&mut self.links).insert(key)
    }

    /// Remove a link. Returns true if it was present.
    pub fn link_down(&mut self, x: Endpoint, y: Endpoint) -> bool {
        let key = LinkKey::new(x, y);
        self.links.contains(&key) && Arc::make_mut(&mut self.links).remove(&key)
    }

    /// Is the switch known?
    #[must_use]
    pub fn has_switch(&self, dpid: DatapathId) -> bool {
        self.switches.contains_key(&dpid)
    }

    /// The link (if any) with an endpoint at `(dpid, port)`.
    #[must_use]
    pub fn link_at(&self, at: Endpoint) -> Option<LinkKey> {
        self.links.iter().find(|l| l.a == at || l.b == at).copied()
    }

    /// Links touching a switch.
    #[must_use]
    pub fn links_of(&self, dpid: DatapathId) -> Vec<LinkKey> {
        self.links
            .iter()
            .filter(|l| l.touches(dpid))
            .copied()
            .collect()
    }

    /// Neighbors of a switch: `(out_port, neighbor_dpid, neighbor_in_port)`.
    #[must_use]
    pub fn neighbors(&self, dpid: DatapathId) -> Vec<(u16, Endpoint)> {
        let mut out = Vec::new();
        for l in self.links.iter() {
            if l.a.dpid == dpid {
                out.push((l.a.port, l.b));
            } else if l.b.dpid == dpid {
                out.push((l.b.port, l.a));
            }
        }
        out
    }

    /// BFS shortest switch-path from `src` to `dst`.
    ///
    /// Returns the hops as `(switch, out_port)` pairs: forwarding a packet
    /// at each listed switch out the listed port walks it to `dst`. Empty
    /// path when `src == dst`.
    #[must_use]
    pub fn shortest_path(
        &self,
        src: DatapathId,
        dst: DatapathId,
    ) -> Option<Vec<(DatapathId, u16)>> {
        if !self.has_switch(src) || !self.has_switch(dst) {
            return None;
        }
        if src == dst {
            return Some(Vec::new());
        }
        let mut prev: BTreeMap<DatapathId, (DatapathId, u16)> = BTreeMap::new();
        let mut queue = VecDeque::new();
        queue.push_back(src);
        'bfs: while let Some(cur) = queue.pop_front() {
            for (out_port, peer) in self.neighbors(cur) {
                if peer.dpid == src || prev.contains_key(&peer.dpid) {
                    continue;
                }
                prev.insert(peer.dpid, (cur, out_port));
                if peer.dpid == dst {
                    break 'bfs;
                }
                queue.push_back(peer.dpid);
            }
        }
        if !prev.contains_key(&dst) {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (p, port) = prev[&cur];
            path.push((p, port));
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Number of known links.
    #[must_use]
    pub fn n_links(&self) -> usize {
        self.links.len()
    }
}

/// A known end host.
#[derive(Clone, Debug, PartialEq, Eq, Codec)]
pub struct Device {
    pub mac: MacAddr,
    pub ip: Option<Ipv4Addr>,
    pub attach: Endpoint,
    pub last_seen: SimTime,
}

/// What turns one [`DeviceView`] into another; see [`DeviceView::diff`].
#[derive(Clone, Debug, Default, PartialEq, Codec)]
pub struct DeviceDelta {
    set: Vec<(MacAddr, Device)>,
    gone: Vec<MacAddr>,
}

/// The controller's view of end hosts, learned from packet-ins.
#[derive(Clone, Debug, Default, PartialEq, Codec)]
pub struct DeviceView {
    devices: Arc<BTreeMap<MacAddr, Device>>,
}

impl DeviceView {
    /// Learn (or refresh) a host from an observed packet.
    pub fn learn(&mut self, mac: MacAddr, ip: Option<Ipv4Addr>, attach: Endpoint, now: SimTime) {
        if mac.is_multicast() {
            return;
        }
        let known = self.devices.get(&mac);
        let dev = Device {
            mac,
            ip: ip.or(known.and_then(|d| d.ip)),
            attach,
            last_seen: now,
        };
        if known != Some(&dev) {
            Arc::make_mut(&mut self.devices).insert(mac, dev);
        }
    }

    /// The entry-level change that turns `self` into `target`; same
    /// contract as [`TopologyView::diff`].
    #[must_use]
    pub fn diff(&self, target: &DeviceView) -> DeviceDelta {
        let (set, gone) = diff_map(&self.devices, &target.devices);
        DeviceDelta { set, gone }
    }

    /// Apply a change computed by [`Self::diff`] against this view.
    pub fn apply(&mut self, delta: DeviceDelta) {
        apply_map(&mut self.devices, delta.set, delta.gone);
    }

    /// Look up a host.
    #[must_use]
    pub fn get(&self, mac: MacAddr) -> Option<&Device> {
        self.devices.get(&mac)
    }

    /// Look up a host by IP.
    #[must_use]
    pub fn by_ip(&self, ip: Ipv4Addr) -> Option<&Device> {
        self.devices.values().find(|d| d.ip == Some(ip))
    }

    /// Forget every host attached to `dpid` (switch died).
    pub fn purge_switch(&mut self, dpid: DatapathId) {
        if self.devices.values().any(|d| d.attach.dpid == dpid) {
            Arc::make_mut(&mut self.devices).retain(|_, d| d.attach.dpid != dpid);
        }
    }

    /// Number of known hosts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// True when no hosts are known.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Iterate over known devices.
    pub fn iter(&self) -> impl Iterator<Item = &Device> {
        self.devices.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(d: u64, p: u16) -> Endpoint {
        Endpoint::new(DatapathId(d), p)
    }

    fn line3() -> TopologyView {
        // 1 -(p1:p1)- 2 -(p2:p1)- 3
        let mut t = TopologyView::default();
        for d in 1..=3 {
            t.switch_up(DatapathId(d), vec![]);
        }
        t.link_up(ep(1, 1), ep(2, 1));
        t.link_up(ep(2, 2), ep(3, 1));
        t
    }

    #[test]
    fn link_key_normalizes() {
        assert_eq!(
            LinkKey::new(ep(2, 1), ep(1, 1)),
            LinkKey::new(ep(1, 1), ep(2, 1))
        );
        let k = LinkKey::new(ep(2, 1), ep(1, 1));
        assert_eq!(k.a, ep(1, 1));
        assert!(k.touches(DatapathId(2)));
        assert!(!k.touches(DatapathId(3)));
        assert_eq!(k.endpoint_on(DatapathId(2)), Some(ep(2, 1)));
    }

    #[test]
    fn duplicate_links_dedupe() {
        let mut t = TopologyView::default();
        assert!(t.link_up(ep(1, 1), ep(2, 1)));
        assert!(!t.link_up(ep(2, 1), ep(1, 1)));
        assert_eq!(t.n_links(), 1);
    }

    #[test]
    fn shortest_path_line() {
        let t = line3();
        let path = t.shortest_path(DatapathId(1), DatapathId(3)).unwrap();
        assert_eq!(path, vec![(DatapathId(1), 1), (DatapathId(2), 2)]);
        assert_eq!(
            t.shortest_path(DatapathId(1), DatapathId(1)).unwrap(),
            vec![]
        );
    }

    #[test]
    fn shortest_path_prefers_fewer_hops() {
        // Triangle: 1-2, 2-3, 1-3. Path 1→3 must be direct.
        let mut t = line3();
        t.link_up(ep(1, 2), ep(3, 2));
        let path = t.shortest_path(DatapathId(1), DatapathId(3)).unwrap();
        assert_eq!(path.len(), 1);
        assert_eq!(path[0], (DatapathId(1), 2));
    }

    #[test]
    fn shortest_path_unreachable() {
        let mut t = line3();
        t.switch_up(DatapathId(9), vec![]);
        assert_eq!(t.shortest_path(DatapathId(1), DatapathId(9)), None);
        assert_eq!(t.shortest_path(DatapathId(1), DatapathId(42)), None);
    }

    #[test]
    fn switch_down_kills_its_links() {
        let mut t = line3();
        let dead = t.switch_down(DatapathId(2));
        assert_eq!(dead.len(), 2);
        assert_eq!(t.n_links(), 0);
        assert!(!t.has_switch(DatapathId(2)));
        assert_eq!(t.shortest_path(DatapathId(1), DatapathId(3)), None);
    }

    #[test]
    fn link_at_and_neighbors() {
        let t = line3();
        assert!(t.link_at(ep(2, 1)).is_some());
        assert!(t.link_at(ep(2, 9)).is_none());
        let mut n = t.neighbors(DatapathId(2));
        n.sort_unstable_by_key(|(p, _)| *p);
        assert_eq!(n, vec![(1, ep(1, 1)), (2, ep(3, 1))]);
    }

    #[test]
    fn device_learning_updates_attachment() {
        let mut d = DeviceView::default();
        let mac = MacAddr::from_index(1);
        d.learn(mac, Some(Ipv4Addr::from_index(1)), ep(1, 3), SimTime::ZERO);
        assert_eq!(d.get(mac).unwrap().attach, ep(1, 3));
        // Host moves.
        d.learn(mac, None, ep(2, 4), SimTime::from_secs(5));
        let dev = d.get(mac).unwrap();
        assert_eq!(dev.attach, ep(2, 4));
        assert_eq!(
            dev.ip,
            Some(Ipv4Addr::from_index(1)),
            "IP survives a None refresh"
        );
        assert_eq!(dev.last_seen, SimTime::from_secs(5));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn multicast_sources_are_not_learned() {
        let mut d = DeviceView::default();
        d.learn(MacAddr::BROADCAST, None, ep(1, 1), SimTime::ZERO);
        assert!(d.is_empty());
    }

    /// Run `f`, then report per collection whether it still sits in the
    /// `Arc` it sat in before: `[switches, links, graveyard]`.
    fn untouched(t: &mut TopologyView, f: impl FnOnce(&mut TopologyView)) -> [bool; 3] {
        let before = t.clone();
        f(t);
        [
            Arc::ptr_eq(&before.switches, &t.switches),
            Arc::ptr_eq(&before.links, &t.links),
            Arc::ptr_eq(&before.graveyard, &t.graveyard),
        ]
    }

    fn port(n: u16) -> PortDesc {
        PortDesc::up(
            legosdn_openflow::prelude::PortNo::Phys(n),
            MacAddr::from_index(u64::from(n)),
        )
    }

    #[test]
    fn switch_up_writes_only_a_changed_inventory() {
        let mut t = line3();
        let same = untouched(&mut t, |t| t.switch_up(DatapathId(1), vec![]));
        assert_eq!(same, [true; 3]);
        let changed = untouched(&mut t, |t| t.switch_up(DatapathId(1), vec![port(1)]));
        assert_eq!(changed, [false, true, true]);
        assert_eq!(t.switches[&DatapathId(1)], vec![port(1)]);
    }

    #[test]
    fn port_refresh_writes_only_a_changed_port() {
        let mut t = TopologyView::default();
        t.switch_up(DatapathId(1), vec![port(1), port(2)]);
        let noops = untouched(&mut t, |t| {
            t.port_refresh(DatapathId(1), &port(2)); // identical report
            t.port_refresh(DatapathId(1), &port(9)); // unknown port
            t.port_refresh(DatapathId(7), &port(1)); // unknown switch
        });
        assert_eq!(noops, [true; 3]);
        let mut down = port(2);
        down.link_down = true;
        let changed = untouched(&mut t, |t| t.port_refresh(DatapathId(1), &down));
        assert_eq!(changed, [false, true, true]);
        assert_eq!(t.switches[&DatapathId(1)], vec![port(1), down]);
    }

    #[test]
    fn link_up_and_down_write_only_on_change() {
        let mut t = line3();
        let known = untouched(&mut t, |t| assert!(!t.link_up(ep(2, 1), ep(1, 1))));
        assert_eq!(known, [true; 3]);
        let absent = untouched(&mut t, |t| assert!(!t.link_down(ep(1, 7), ep(3, 7))));
        assert_eq!(absent, [true; 3]);
        let added = untouched(&mut t, |t| assert!(t.link_up(ep(1, 7), ep(3, 7))));
        assert_eq!(added, [true, false, true]);
        let removed = untouched(&mut t, |t| assert!(t.link_down(ep(1, 7), ep(3, 7))));
        assert_eq!(removed, [true, false, true]);
        assert_eq!(t, line3());
    }

    #[test]
    fn switch_down_writes_only_what_it_changes() {
        let mut t = line3();
        t.switch_up(DatapathId(9), vec![]); // isolated: no links to bury
        let first = untouched(&mut t, |t| assert!(t.switch_down(DatapathId(9)).is_empty()));
        assert_eq!(first, [false, true, false], "switch gone, empty grave dug");
        let again = untouched(&mut t, |t| assert!(t.switch_down(DatapathId(9)).is_empty()));
        assert_eq!(again, [true; 3]);
        let real = untouched(&mut t, |t| {
            assert_eq!(t.switch_down(DatapathId(2)).len(), 2)
        });
        assert_eq!(real, [false; 3]);
        assert_eq!(t.last_known_links(DatapathId(2)).len(), 2);
    }

    #[test]
    fn learn_and_purge_write_only_on_change() {
        let mut d = DeviceView::default();
        let mac = MacAddr::from_index(1);
        let ip = Some(Ipv4Addr::from_index(1));
        d.learn(mac, ip, ep(1, 3), SimTime::ZERO);
        let before = d.clone();
        d.learn(mac, None, ep(1, 3), SimTime::ZERO); // same host, same instant
        d.learn(MacAddr::BROADCAST, None, ep(1, 1), SimTime::ZERO);
        d.purge_switch(DatapathId(2)); // nobody lives there
        assert!(Arc::ptr_eq(&before.devices, &d.devices));
        d.learn(mac, None, ep(1, 3), SimTime::from_secs(1));
        assert!(!Arc::ptr_eq(&before.devices, &d.devices));
        assert_eq!(d.get(mac).unwrap().ip, ip);
        assert_eq!(before.get(mac).unwrap().last_seen, SimTime::ZERO);
        let before = d.clone();
        d.purge_switch(DatapathId(1));
        assert!(!Arc::ptr_eq(&before.devices, &d.devices));
        assert!(d.is_empty() && before.len() == 1);
    }

    #[test]
    fn diff_of_shared_views_is_empty_and_apply_of_empty_shares() {
        let a = line3();
        let mut b = a.clone();
        assert_eq!(a.diff(&b), TopologyDelta::default());
        let same = untouched(&mut b, |b| b.apply(TopologyDelta::default()));
        assert_eq!(same, [true; 3]);
        let d = DeviceView::default();
        assert_eq!(d.diff(&d.clone()), DeviceDelta::default());
    }

    #[test]
    fn by_ip_and_purge() {
        let mut d = DeviceView::default();
        d.learn(
            MacAddr::from_index(1),
            Some(Ipv4Addr::from_index(1)),
            ep(1, 3),
            SimTime::ZERO,
        );
        d.learn(
            MacAddr::from_index(2),
            Some(Ipv4Addr::from_index(2)),
            ep(2, 3),
            SimTime::ZERO,
        );
        assert_eq!(
            d.by_ip(Ipv4Addr::from_index(2)).unwrap().mac,
            MacAddr::from_index(2)
        );
        d.purge_switch(DatapathId(1));
        assert_eq!(d.len(), 1);
        assert!(d.get(MacAddr::from_index(1)).is_none());
    }
}
