//! The live network: switches wired by links, hosts at the edge, a virtual
//! clock, and an event queue toward the controller.
//!
//! The network is the system of record for the state NetLog must be able to
//! roll back. [`Network::apply`] therefore returns, with every
//! state-altering message, the [`PreState`] the message displaced.
//!
//! Packets move synchronously: injecting a packet (or emitting one via
//! packet-out) walks it through flow tables hop by hop until it is
//! delivered, dropped, punted to the controller, or found to be looping.
//! An injected packet's walk comes back as a [`DataplaneTrace`]; a
//! packet-out's is walked on scratch, since its sender reads only the
//! network it leaves behind.

use crate::clock::{SimDuration, SimTime};
use crate::flow_table::BuildFnvSplit;
use crate::switch::{Switch, SwitchOutput};
use crate::topology::{Endpoint, HostSpec, LinkSpec, Topology};
use legosdn_openflow::inverse::PreState;
use legosdn_openflow::prelude::{DatapathId, MacAddr, Match, Message, Packet};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Maximum dataplane hops before a walk is declared a loop.
pub const HOP_LIMIT: usize = 64;

/// An asynchronous event toward the controller.
#[derive(Clone, Debug, PartialEq)]
pub enum NetEvent {
    /// An asynchronous switch→controller message (packet-in, flow-removed,
    /// port-status, error).
    FromSwitch(DatapathId, Message),
    /// A switch (re)connected to the control channel.
    SwitchConnected(DatapathId),
    /// A switch disconnected (powered off / control channel lost).
    SwitchDisconnected(DatapathId),
}

/// Errors from control operations against the network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetError {
    UnknownSwitch(DatapathId),
    UnknownHost(MacAddr),
    SwitchDown(DatapathId),
    UnknownLink,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownSwitch(d) => write!(f, "unknown switch {d}"),
            NetError::UnknownHost(m) => write!(f, "unknown host {m}"),
            NetError::SwitchDown(d) => write!(f, "switch {d} is down"),
            NetError::UnknownLink => write!(f, "unknown link"),
        }
    }
}

impl std::error::Error for NetError {}

/// Result of applying a controller message to a switch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ApplyOutcome {
    /// Synchronous replies (echo/stats/barrier replies, errors).
    pub replies: Vec<Message>,
    /// Pre-state displaced by a state-altering message (for inversion).
    pub pre_state: Option<PreState>,
}

/// Record of one packet's walk through the dataplane.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DataplaneTrace {
    /// Switch ports the packet (or a copy of it) arrived at.
    pub hops: usize,
    /// Hosts the packet reached, with the packet as delivered.
    pub delivered: Vec<(MacAddr, Packet)>,
    /// Packet-ins generated during the walk.
    pub packet_ins: usize,
    /// Packets that died on a dead port/link or a drop rule.
    pub drops: usize,
    /// The walk exceeded [`HOP_LIMIT`] or revisited a state — a forwarding
    /// loop.
    pub loop_detected: bool,
}

impl DataplaneTrace {
    /// Was the packet delivered to exactly the given host?
    #[must_use]
    pub fn delivered_to(&self, mac: MacAddr) -> bool {
        self.delivered.iter().any(|(m, _)| *m == mac)
    }

    /// Empty the trace, keeping the storage of `delivered`.
    fn clear(&mut self) {
        self.hops = 0;
        self.delivered.clear();
        self.packet_ins = 0;
        self.drops = 0;
        self.loop_detected = false;
    }
}

#[derive(Clone, Debug)]
struct Link {
    spec: LinkSpec,
    up: bool,
}

/// How many of a switch's latest changes stay described. A check follows
/// every transaction, and a transaction puts one or two flow-mods on one
/// switch; rolled back after its check, it puts as many inverses there
/// before the next transaction's. Beyond that the answer is "unknown",
/// which only costs the asker its precision.
const HISTORY_DEPTH: usize = 4;

/// One step of a switch's history: the stamp the step replaced and the
/// match every table entry it touched lies inside. `from` 0 — a stamp
/// never drawn — marks a step that is not described that way.
#[derive(Clone, Debug)]
struct Step {
    from: u64,
    mat: Match,
}

/// A switch's change stamp and a fixed ring of the steps that led to it,
/// the newest at `next - 1`. Every redraw of the stamp pushes one step,
/// so walking back from the newest retraces the stamps one by one.
/// Allocated whole with the network; a push is one copy of a `Match`
/// (plain data) into place.
#[derive(Clone, Debug)]
struct History {
    stamp: u64,
    next: usize,
    ring: [Step; HISTORY_DEPTH],
}

impl History {
    fn new(stamp: u64) -> Self {
        History {
            stamp,
            next: 0,
            ring: std::array::from_fn(|_| Step {
                from: 0,
                mat: Match::any(),
            }),
        }
    }

    /// Move to the fresh stamp `stamp`. `within` bounds what changed to
    /// the table entries inside that match; `None` is any other change.
    fn advance(&mut self, stamp: u64, within: Option<&Match>) {
        let step = &mut self.ring[self.next];
        self.next = (self.next + 1) % HISTORY_DEPTH;
        step.from = 0;
        if let Some(mat) = within {
            step.from = self.stamp;
            step.mat.clone_from(mat);
        }
        self.stamp = stamp;
    }

    /// The matches of the steps that led from stamp `seen` to the current
    /// one, newest first — if the ring still holds every one of them and
    /// each is described by a match.
    fn since(&self, seen: u64) -> Option<impl Iterator<Item = &Match>> {
        let back = |n: usize| &self.ring[(self.next + HISTORY_DEPTH - n) % HISTORY_DEPTH];
        for n in 1..=HISTORY_DEPTH {
            match back(n).from {
                0 => return None,
                from if from == seen => return Some((1..=n).map(move |k| &back(k).mat)),
                _ => {}
            }
        }
        None
    }
}

/// A lookup table over something immutable: `(key, position)` sorted by
/// key, the first position winning a duplicate key. At a few hundred
/// entries a binary search is as quick as a hash, and three such tables
/// cost 17 KB on `fat_tree(8)` where hash maps took 53 — memory every
/// network pays whether or not anything probes it.
#[derive(Debug)]
struct Index<K>(Vec<(K, u32)>);

impl<K: Ord + Copy> Index<K> {
    fn new(keys: impl Iterator<Item = K>) -> Self {
        let mut v: Vec<(K, u32)> = keys.zip(0..).collect();
        v.sort_unstable();
        v.dedup_by_key(|e| e.0);
        v.shrink_to_fit();
        Index(v)
    }

    fn get(&self, key: K) -> Option<usize> {
        let i = self.0.binary_search_by_key(&key, |e| e.0).ok()?;
        Some(self.0[i].1 as usize)
    }
}

/// What a network shares with its clones: the immutable host list +
/// wiring with the lookups over them the dataplane makes per hop, and
/// the counter every change stamp of the lineage is drawn from.
#[derive(Debug)]
struct Wiring {
    /// The next stamp. Shared, so a value is never reused within the
    /// lineage: two of its networks agree on a switch's stamp only if
    /// that switch's forwarding state is identical in both. Nothing
    /// outside the lineage draws from it.
    next_stamp: AtomicU64,
    /// Switches ascending; a switch's position here is its position in
    /// [`Network::stamps`].
    dpids: Vec<DatapathId>,
    /// MAC → position in `hosts`.
    host_by_mac: Index<MacAddr>,
    /// Attachment point → position in `hosts`.
    host_at: Index<Endpoint>,
    /// Link endpoint → `2 * position in links`, plus one for the `b` end.
    link_at: Index<Endpoint>,
}

impl Wiring {
    fn new(topology: &Topology) -> Self {
        Wiring {
            next_stamp: AtomicU64::new(1),
            dpids: topology.switches.keys().copied().collect(),
            host_by_mac: Index::new(topology.hosts.iter().map(|h| h.mac)),
            host_at: Index::new(topology.hosts.iter().map(|h| h.attach)),
            link_at: Index::new(topology.links.iter().flat_map(|l| [l.a, l.b])),
        }
    }

    /// A stamp no network of the lineage has drawn. `Relaxed` suffices:
    /// a stamp only has to be unique, which an atomic add is at any
    /// ordering; the stamps themselves travel with the `Network` that
    /// holds them.
    fn fresh_stamp(&self) -> u64 {
        self.next_stamp.fetch_add(1, Ordering::Relaxed)
    }
}

/// The identity of a network and its clones, from [`Network::lineage`].
/// It holds the lineage weakly, so the identity of a dropped network is
/// never taken by a new one, and the default one is no network's.
#[derive(Clone, Debug, Default)]
pub struct Lineage(Weak<Wiring>);

impl PartialEq for Lineage {
    fn eq(&self, other: &Self) -> bool {
        Weak::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for Lineage {}

/// The buffers of one dataplane walk and of the switch calls that drive
/// it, kept between calls so a message or a packet costs no allocation
/// for them. Not state: a clone starts empty.
#[derive(Debug, Default)]
struct WalkScratch {
    queue: VecDeque<(Endpoint, Packet)>,
    /// `(dpid, in_port, packet hash)` already walked — the loop detector.
    /// Only ever probed, never iterated, so the hasher is free to be the
    /// cheap deterministic one.
    visited: HashSet<(DatapathId, u16, u64), BuildFnvSplit>,
    /// What a controller message caused at its switch.
    control: SwitchOutput,
    /// What a packet caused at the switch it reached, one hop at a time.
    hop: SwitchOutput,
    /// The walk of a packet-out's emissions, which nobody reads.
    trace: DataplaneTrace,
}

impl Clone for WalkScratch {
    fn clone(&self) -> Self {
        WalkScratch::default()
    }
}

/// The simulated network.
///
/// `Clone` is deliberate: invariant gates (NetLog pre-commit checks) verify
/// candidate rule-sets against a scratch copy before touching the real
/// network.
#[derive(Clone, Debug)]
pub struct Network {
    now: SimTime,
    switches: BTreeMap<DatapathId, Switch>,
    /// Per-switch change stamp, redrawn whenever the switch's forwarding
    /// state (flow table, port liveness, up-flag, or the status of a link
    /// it terminates) may have changed, with what the latest redraws were
    /// for. Kept here rather than in [`Switch`], whose encoding must not
    /// grow. `Clone` copies both verbatim — identical state, identical
    /// stamps, identical past — and the first divergent write on either
    /// side draws a fresh stamp. Parallel to `switches` (ascending dpid).
    history: Vec<History>,
    links: Vec<Link>,
    hosts: Vec<HostSpec>,
    wiring: Arc<Wiring>,
    events: VecDeque<NetEvent>,
    /// Lifetime delivery/drop counters for availability experiments.
    total_delivered: u64,
    total_dropped: u64,
    walk: WalkScratch,
}

impl Network {
    /// Materialize a topology. All switches and links start up; a
    /// `SwitchConnected` event is queued per switch (the initial handshake).
    #[must_use]
    pub fn new(topology: &Topology) -> Self {
        let mut switches = BTreeMap::new();
        for (&dpid, &n_ports) in &topology.switches {
            switches.insert(dpid, Switch::new(dpid, n_ports));
        }
        let mut events = VecDeque::new();
        for &dpid in switches.keys() {
            events.push_back(NetEvent::SwitchConnected(dpid));
        }
        let wiring = Arc::new(Wiring::new(topology));
        Network {
            now: SimTime::ZERO,
            history: switches
                .keys()
                .map(|_| History::new(wiring.fresh_stamp()))
                .collect(),
            switches,
            links: topology
                .links
                .iter()
                .map(|&spec| Link { spec, up: true })
                .collect(),
            hosts: topology.hosts.clone(),
            wiring,
            events,
            total_delivered: 0,
            total_dropped: 0,
            walk: WalkScratch::default(),
        }
    }

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read a switch.
    #[must_use]
    pub fn switch(&self, dpid: DatapathId) -> Option<&Switch> {
        self.switches.get(&dpid)
    }

    /// All switches, ascending by dpid.
    pub fn switches(&self) -> impl Iterator<Item = &Switch> {
        self.switches.values()
    }

    /// All hosts.
    #[must_use]
    pub fn hosts(&self) -> &[HostSpec] {
        &self.hosts
    }

    /// All links with their current status.
    pub fn links(&self) -> impl Iterator<Item = (&LinkSpec, bool)> {
        self.links.iter().map(|l| (&l.spec, l.up))
    }

    /// Identity of the immutable host list + wiring and of the stamps:
    /// made in [`Network::new`] and shared by every clone. Anything
    /// cached against one lineage is meaningless against another.
    #[must_use]
    pub fn lineage(&self) -> Lineage {
        Lineage(Arc::downgrade(&self.wiring))
    }

    /// Every switch's change stamp, ascending by dpid. Between two
    /// networks of one lineage, an equal stamp means the switch's
    /// forwarding state (flow table, port liveness, up-flag, status of
    /// the links it terminates) is identical; counters and packet
    /// buffers are not covered.
    pub fn stamps(&self) -> impl Iterator<Item = (DatapathId, u64)> + '_ {
        self.wiring
            .dpids
            .iter()
            .copied()
            .zip(self.history.iter().map(|h| h.stamp))
    }

    /// What took the switch at position `row` of [`Self::stamps`] from
    /// the stamp `seen` to the one it has now: matches such that every
    /// flow entry added, rewritten or removed in between lies inside one
    /// of them — so a packet none of them matches is forwarded there as
    /// it was at `seen`, and nothing else about the switch changed. Never
    /// a subset. `None` when that cannot be said: something other than a
    /// flow-mod changed the switch (port-mod, expiry, link or power
    /// flap), more steps passed than are kept, or `seen` is not a stamp
    /// this switch had on the way here (a diverged clone's, say).
    pub fn changes_since(&self, row: usize, seen: u64) -> Option<impl Iterator<Item = &Match>> {
        self.history.get(row)?.since(seen)
    }

    /// Record that `dpid`'s forwarding state may have changed; see
    /// [`History::advance`] for `within`.
    fn stamp(&mut self, dpid: DatapathId, within: Option<&Match>) {
        if let Ok(i) = self.wiring.dpids.binary_search(&dpid) {
            self.history[i].advance(self.wiring.fresh_stamp(), within);
        }
    }

    /// The link wired at `at`: its position in `links` and its far end.
    fn link_at(&self, at: Endpoint) -> Option<(usize, Endpoint)> {
        let end = self.wiring.link_at.get(at)?;
        let spec = &self.links[end / 2].spec;
        Some((end / 2, if end % 2 == 0 { spec.b } else { spec.a }))
    }

    /// Find a host by MAC.
    #[must_use]
    pub fn host_by_mac(&self, mac: MacAddr) -> Option<&HostSpec> {
        self.wiring.host_by_mac.get(mac).map(|i| &self.hosts[i])
    }

    /// The host attached at `(dpid, port)`, if any.
    #[must_use]
    pub fn host_at(&self, at: Endpoint) -> Option<&HostSpec> {
        self.wiring.host_at.get(at).map(|i| &self.hosts[i])
    }

    /// The far end of the up link at `(dpid, port)`, if any.
    #[must_use]
    pub fn link_peer(&self, at: Endpoint) -> Option<Endpoint> {
        let (idx, peer) = self.link_at(at)?;
        self.links[idx].up.then_some(peer)
    }

    /// Like [`Self::link_peer`] but ignoring link status — the wiring, not
    /// the weather.
    #[must_use]
    pub fn wired_peer(&self, at: Endpoint) -> Option<Endpoint> {
        self.link_at(at).map(|(_, peer)| peer)
    }

    /// Lifetime `(delivered, dropped)` dataplane counters.
    #[must_use]
    pub fn delivery_counters(&self) -> (u64, u64) {
        (self.total_delivered, self.total_dropped)
    }

    /// Drain pending controller-bound events.
    pub fn poll_events(&mut self) -> Vec<NetEvent> {
        self.events.drain(..).collect()
    }

    /// Peek the oldest pending controller-bound event without draining:
    /// `None` means the network has nothing left to tell the controller.
    #[must_use]
    pub fn peek_event(&self) -> Option<&NetEvent> {
        self.events.front()
    }

    /// Apply a controller→switch message.
    pub fn apply(&mut self, dpid: DatapathId, msg: &Message) -> Result<ApplyOutcome, NetError> {
        let now = self.now;
        let sw = self
            .switches
            .get_mut(&dpid)
            .ok_or(NetError::UnknownSwitch(dpid))?;
        if !sw.is_up() {
            return Err(NetError::SwitchDown(dpid));
        }
        let mut out = std::mem::take(&mut self.walk.control);
        sw.handle_message(msg, now, &mut out);
        if msg.alters_network_state() {
            // A flow-mod of any command touches only entries whose match
            // lies inside its own (an add or a strict form: equal to it;
            // a loose modify or delete: subsumed by it). One the table
            // refused (overlap, full) changed nothing, which is inside
            // any match.
            self.stamp(
                dpid,
                match msg {
                    Message::FlowMod(fm) => Some(&fm.mat),
                    _ => None,
                },
            );
        }
        for n in out.notifications.drain(..) {
            self.events.push_back(NetEvent::FromSwitch(dpid, n));
        }
        if !out.emissions.is_empty() {
            let mut trace = std::mem::take(&mut self.walk.trace);
            for (port, pkt) in out.emissions.drain(..) {
                if let Some(p) = port.phys() {
                    self.route_emission(Endpoint::new(dpid, p), pkt, &mut trace);
                    self.walk(&mut trace);
                }
            }
            trace.clear();
            self.walk.trace = trace;
        }
        let outcome = ApplyOutcome {
            replies: std::mem::take(&mut out.replies),
            pre_state: out.pre_state.take(),
        };
        self.walk.control = out;
        Ok(outcome)
    }

    /// Put a barrier before `dpid`: what was sent to it before takes
    /// effect before what follows. Messages apply as they arrive here, so
    /// that holds already; the barrier builds no `BarrierReply`, which
    /// nobody would read, and fails only where a `BarrierRequest` would.
    pub fn barrier(&self, dpid: DatapathId) -> Result<(), NetError> {
        match self.switches.get(&dpid) {
            None => Err(NetError::UnknownSwitch(dpid)),
            Some(sw) if !sw.is_up() => Err(NetError::SwitchDown(dpid)),
            Some(_) => Ok(()),
        }
    }

    /// Inject a packet from a host into the network.
    pub fn inject(&mut self, src: MacAddr, pkt: Packet) -> Result<DataplaneTrace, NetError> {
        let host = self.host_by_mac(src).ok_or(NetError::UnknownHost(src))?;
        let mut trace = DataplaneTrace::default();
        self.walk.queue.push_back((host.attach, pkt));
        self.walk(&mut trace);
        Ok(trace)
    }

    /// Drain the walk queue into `trace`, then leave the scratch empty for
    /// the next walk.
    fn walk(&mut self, trace: &mut DataplaneTrace) {
        let mut out = std::mem::take(&mut self.walk.hop);
        let mut hops = 0usize;
        while let Some((at, pkt)) = self.walk.queue.pop_front() {
            hops += 1;
            if hops > HOP_LIMIT {
                trace.loop_detected = true;
                break;
            }
            if !self
                .walk
                .visited
                .insert((at.dpid, at.port, hash_packet(&pkt)))
            {
                // Same packet re-entering the same port: a forwarding loop.
                trace.loop_detected = true;
                continue;
            }
            trace.hops += 1;
            let now = self.now;
            let Some(sw) = self.switches.get_mut(&at.dpid) else {
                trace.drops += 1;
                self.total_dropped += 1;
                continue;
            };
            sw.receive_packet(at.port, &pkt, now, &mut out);
            for n in out.notifications.drain(..) {
                if matches!(n, Message::PacketIn(_)) {
                    trace.packet_ins += 1;
                }
                self.events.push_back(NetEvent::FromSwitch(at.dpid, n));
            }
            for (port, emitted) in out.emissions.drain(..) {
                if let Some(p) = port.phys() {
                    self.route_emission(Endpoint::new(at.dpid, p), emitted, trace);
                }
            }
        }
        self.walk.hop = out;
        self.walk.queue.clear();
        self.walk.visited.clear();
    }

    /// Decide where a packet leaving `(dpid, port)` lands: a host, the far
    /// end of a live link (queued for the walk), or nowhere.
    fn route_emission(&mut self, from: Endpoint, pkt: Packet, trace: &mut DataplaneTrace) {
        if let Some(host) = self.host_at(from) {
            trace.delivered.push((host.mac, pkt));
            self.total_delivered += 1;
            return;
        }
        match self.link_peer(from) {
            Some(peer) => {
                let peer_up = self
                    .switches
                    .get(&peer.dpid)
                    .map(Switch::is_up)
                    .unwrap_or(false);
                if peer_up {
                    self.walk.queue.push_back((peer, pkt));
                } else {
                    trace.drops += 1;
                    self.total_dropped += 1;
                }
            }
            None => {
                // Dangling port or downed link.
                trace.drops += 1;
                self.total_dropped += 1;
            }
        }
    }

    /// Advance the clock, expiring flow timeouts.
    pub fn tick(&mut self, delta: SimDuration) {
        self.now += delta;
        let now = self.now;
        for ((&dpid, sw), history) in self.switches.iter_mut().zip(&mut self.history) {
            if !sw.is_up() {
                continue;
            }
            // Expiry only ever removes entries, so the table shrank iff
            // something expired (notifying or not).
            let before = sw.table().len();
            let removed = sw.expire_flows(now);
            if sw.table().len() != before {
                history.advance(self.wiring.fresh_stamp(), None);
            }
            for msg in removed {
                self.events.push_back(NetEvent::FromSwitch(dpid, msg));
            }
        }
    }

    /// Take the `idx`-th link up or down. Both endpoint switches observe the
    /// change and emit port-status notifications.
    pub fn set_link_up(&mut self, idx: usize, up: bool) -> Result<(), NetError> {
        let link = self.links.get_mut(idx).ok_or(NetError::UnknownLink)?;
        if link.up == up {
            return Ok(());
        }
        link.up = up;
        let spec = link.spec;
        for ep in [spec.a, spec.b] {
            self.stamp(ep.dpid, None);
            if let Some(sw) = self.switches.get_mut(&ep.dpid) {
                if let Some(msg) = sw.set_link_down(ep.port, !up) {
                    if sw.is_up() {
                        self.events.push_back(NetEvent::FromSwitch(ep.dpid, msg));
                    }
                }
            }
        }
        Ok(())
    }

    /// Find the index of the link between two switches (first match).
    #[must_use]
    pub fn find_link(&self, a: DatapathId, b: DatapathId) -> Option<usize> {
        self.links.iter().position(|l| {
            (l.spec.a.dpid == a && l.spec.b.dpid == b) || (l.spec.a.dpid == b && l.spec.b.dpid == a)
        })
    }

    /// Power a switch on or off. Powering off drops its flow state, takes
    /// down the far end of each of its links, and emits
    /// `SwitchDisconnected`; powering on emits `SwitchConnected`.
    pub fn set_switch_up(&mut self, dpid: DatapathId, up: bool) -> Result<(), NetError> {
        let sw = self
            .switches
            .get_mut(&dpid)
            .ok_or(NetError::UnknownSwitch(dpid))?;
        if sw.is_up() == up {
            return Ok(());
        }
        sw.set_up(up);
        self.stamp(dpid, None);
        self.events.push_back(if up {
            NetEvent::SwitchConnected(dpid)
        } else {
            NetEvent::SwitchDisconnected(dpid)
        });
        // Peers see their link to this switch flap.
        let affected: Vec<(usize, Endpoint)> = self
            .links
            .iter()
            .enumerate()
            .filter_map(|(i, l)| {
                if l.spec.a.dpid == dpid {
                    Some((i, l.spec.b))
                } else if l.spec.b.dpid == dpid {
                    Some((i, l.spec.a))
                } else {
                    None
                }
            })
            .collect();
        for (idx, peer) in affected {
            let mut flapped = self.links[idx].up != up;
            self.links[idx].up = up;
            if let Some(psw) = self.switches.get_mut(&peer.dpid) {
                if let Some(msg) = psw.set_link_down(peer.port, !up) {
                    flapped = true;
                    if psw.is_up() {
                        self.events.push_back(NetEvent::FromSwitch(peer.dpid, msg));
                    }
                }
            }
            if flapped {
                self.stamp(peer.dpid, None);
            }
        }
        Ok(())
    }
}

fn hash_packet(pkt: &Packet) -> u64 {
    let mut h = DefaultHasher::new();
    pkt.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_openflow::messages::StatsRequest;
    use legosdn_openflow::prelude::{Action, FlowMod, Match, PacketOut, PortNo};
    use legosdn_openflow::types::BufferId;

    /// s1(p2) -- (p2)s2, host A on s1:p1... wait, linear() allocates link
    /// ports first. Build and discover.
    fn two_switch() -> (Network, MacAddr, MacAddr) {
        let topo = Topology::linear(2, 1);
        let net = Network::new(&topo);
        let a = topo.hosts[0].mac;
        let b = topo.hosts[1].mac;
        (net, a, b)
    }

    /// Install L2 forwarding toward `dst` on every switch using the path
    /// out-ports discovered from the topology (for 2-switch linear only).
    fn install_path(net: &mut Network, dst: MacAddr) {
        let host = net.host_by_mac(dst).unwrap().clone();
        // On the attachment switch, forward to the host port.
        let fm = FlowMod::add(Match::eth_dst(dst))
            .action(Action::Output(PortNo::Phys(host.attach.port)));
        net.apply(host.attach.dpid, &Message::FlowMod(fm)).unwrap();
        // On every other switch, forward toward the attachment switch.
        let others: Vec<_> = net
            .switches()
            .map(|s| s.dpid())
            .filter(|d| *d != host.attach.dpid)
            .collect();
        for d in others {
            // Find the port on d that links toward host.attach.dpid.
            let port = net
                .links()
                .find_map(|(l, _)| {
                    if l.a.dpid == d && l.b.dpid == host.attach.dpid {
                        Some(l.a.port)
                    } else if l.b.dpid == d && l.a.dpid == host.attach.dpid {
                        Some(l.b.port)
                    } else {
                        None
                    }
                })
                .expect("adjacent in linear(2)");
            let fm = FlowMod::add(Match::eth_dst(dst)).action(Action::Output(PortNo::Phys(port)));
            net.apply(d, &Message::FlowMod(fm)).unwrap();
        }
    }

    #[test]
    fn startup_emits_switch_connected() {
        let (mut net, _, _) = two_switch();
        let evs = net.poll_events();
        assert_eq!(
            evs.iter()
                .filter(|e| matches!(e, NetEvent::SwitchConnected(_)))
                .count(),
            2
        );
        assert!(net.poll_events().is_empty());
    }

    #[test]
    fn inject_without_rules_punts_to_controller() {
        let (mut net, a, b) = two_switch();
        net.poll_events();
        let pkt = Packet::ethernet(a, b);
        let trace = net.inject(a, pkt).unwrap();
        assert_eq!(trace.packet_ins, 1);
        assert!(trace.delivered.is_empty());
        let evs = net.poll_events();
        assert!(evs
            .iter()
            .any(|e| matches!(e, NetEvent::FromSwitch(_, Message::PacketIn(_)))));
    }

    #[test]
    fn end_to_end_delivery_across_switches() {
        let (mut net, a, b) = two_switch();
        install_path(&mut net, b);
        let trace = net.inject(a, Packet::ethernet(a, b)).unwrap();
        assert!(trace.delivered_to(b), "trace: {trace:?}");
        assert_eq!(trace.hops, 2, "must traverse both switches");
        assert_eq!(net.delivery_counters().0, 1);
    }

    #[test]
    fn unknown_host_and_switch_error() {
        let (mut net, a, _) = two_switch();
        assert_eq!(
            net.inject(MacAddr::from_index(99), Packet::ethernet(a, a)),
            Err(NetError::UnknownHost(MacAddr::from_index(99)))
        );
        assert_eq!(
            net.apply(DatapathId(99), &Message::Hello).unwrap_err(),
            NetError::UnknownSwitch(DatapathId(99))
        );
    }

    #[test]
    fn packet_out_reaches_dataplane() {
        let (mut net, a, b) = two_switch();
        let host_b = net.host_by_mac(b).unwrap().clone();
        let po = PacketOut {
            buffer_id: BufferId::NONE,
            in_port: PortNo::None,
            actions: vec![Action::Output(PortNo::Phys(host_b.attach.port))],
            packet: Some(Packet::ethernet(a, b)),
        };
        let delivered = net.delivery_counters().0;
        net.apply(host_b.attach.dpid, &Message::PacketOut(po))
            .unwrap();
        assert_eq!(net.delivery_counters().0, delivered + 1);
        let port = net
            .switch(host_b.attach.dpid)
            .unwrap()
            .port(host_b.attach.port)
            .unwrap();
        assert_eq!(port.stats.tx_packets, 1, "out of b's port");
    }

    #[test]
    fn link_down_blackholes_and_notifies() {
        let (mut net, a, b) = two_switch();
        install_path(&mut net, b);
        net.poll_events();
        net.set_link_up(0, false).unwrap();
        let evs = net.poll_events();
        assert_eq!(
            evs.iter()
                .filter(|e| matches!(e, NetEvent::FromSwitch(_, Message::PortStatus(_))))
                .count(),
            2,
            "both endpoints must report the flap"
        );
        let trace = net.inject(a, Packet::ethernet(a, b)).unwrap();
        assert!(!trace.delivered_to(b));
        // The egress port is link-down, so the switch swallowed the packet.
        assert_eq!(trace.hops, 1, "packet must not cross the dead link");
        let first = net.host_by_mac(a).unwrap().attach.dpid;
        let tx_dropped: u64 = net
            .switch(first)
            .unwrap()
            .ports()
            .map(|p| p.stats.tx_dropped)
            .sum();
        assert!(tx_dropped > 0);
        // Bring it back.
        net.set_link_up(0, true).unwrap();
        let trace = net.inject(a, Packet::ethernet(a, b)).unwrap();
        assert!(trace.delivered_to(b));
    }

    #[test]
    fn switch_down_disconnects_and_flaps_peer_links() {
        let (mut net, a, b) = two_switch();
        install_path(&mut net, b);
        net.poll_events();
        let dpid_b = net.host_by_mac(b).unwrap().attach.dpid;
        net.set_switch_up(dpid_b, false).unwrap();
        let evs = net.poll_events();
        assert!(evs
            .iter()
            .any(|e| matches!(e, NetEvent::SwitchDisconnected(d) if *d == dpid_b)));
        assert!(evs
            .iter()
            .any(|e| matches!(e, NetEvent::FromSwitch(d, Message::PortStatus(_)) if *d != dpid_b)));
        let trace = net.inject(a, Packet::ethernet(a, b)).unwrap();
        assert!(!trace.delivered_to(b));
        // Recovery: switch returns with empty tables.
        net.set_switch_up(dpid_b, true).unwrap();
        assert!(net.switch(dpid_b).unwrap().table().is_empty());
        let evs = net.poll_events();
        assert!(evs
            .iter()
            .any(|e| matches!(e, NetEvent::SwitchConnected(d) if *d == dpid_b)));
    }

    #[test]
    fn forwarding_loop_is_detected() {
        // Two switches each forwarding everything to the other.
        let (mut net, a, b) = two_switch();
        let dpids: Vec<_> = net.switches().map(Switch::dpid).collect();
        for (i, &d) in dpids.iter().enumerate() {
            let other = dpids[1 - i];
            let port = net
                .links()
                .find_map(|(l, _)| {
                    if l.a.dpid == d && l.b.dpid == other {
                        Some(l.a.port)
                    } else if l.b.dpid == d && l.a.dpid == other {
                        Some(l.b.port)
                    } else {
                        None
                    }
                })
                .unwrap();
            let fm = FlowMod::add(Match::any()).action(Action::Output(PortNo::Phys(port)));
            net.apply(d, &Message::FlowMod(fm)).unwrap();
        }
        let trace = net.inject(a, Packet::ethernet(a, b)).unwrap();
        assert!(trace.loop_detected);
        assert!(!trace.delivered_to(b));
    }

    #[test]
    fn tick_expires_and_notifies() {
        let (mut net, _, b) = two_switch();
        let host_b = net.host_by_mac(b).unwrap().clone();
        let fm = FlowMod::add(Match::eth_dst(b))
            .hard_timeout(3)
            .action(Action::Output(PortNo::Phys(host_b.attach.port)))
            .notify_removed();
        net.apply(host_b.attach.dpid, &Message::FlowMod(fm))
            .unwrap();
        net.poll_events();
        net.tick(SimDuration::from_secs(2));
        assert!(net.poll_events().is_empty());
        net.tick(SimDuration::from_secs(1));
        let evs = net.poll_events();
        assert!(evs
            .iter()
            .any(|e| matches!(e, NetEvent::FromSwitch(_, Message::FlowRemoved(_)))));
        assert_eq!(net.now(), SimTime::from_secs(3));
    }

    #[test]
    fn apply_to_down_switch_errors() {
        let (mut net, _, _) = two_switch();
        let d = net.switches().next().unwrap().dpid();
        net.set_switch_up(d, false).unwrap();
        assert_eq!(
            net.apply(d, &Message::Hello).unwrap_err(),
            NetError::SwitchDown(d)
        );
    }

    #[test]
    fn flood_crosses_the_network() {
        let (mut net, a, b) = two_switch();
        // Flood on both switches delivers to every host except the sender.
        let dpids: Vec<_> = net.switches().map(Switch::dpid).collect();
        for d in dpids {
            let fm = FlowMod::add(Match::any()).action(Action::Output(PortNo::Flood));
            net.apply(d, &Message::FlowMod(fm)).unwrap();
        }
        let trace = net
            .inject(a, Packet::ethernet(a, MacAddr::BROADCAST))
            .unwrap();
        assert!(trace.delivered_to(b));
        // The sender's own host must not receive a copy (flood excludes the
        // ingress port).
        assert!(!trace.delivered_to(a));
    }

    /// The dpids whose stamp differs between two stamp snapshots.
    fn restamped(before: &[(DatapathId, u64)], net: &Network) -> Vec<DatapathId> {
        before
            .iter()
            .zip(net.stamps())
            .filter(|(b, a)| **b != *a)
            .map(|(b, _)| b.0)
            .collect()
    }

    #[test]
    fn mutators_stamp_exactly_the_switches_they_touch() {
        let topo = Topology::linear(3, 1);
        let mut net = Network::new(&topo);
        let [d1, d2, d3] = [DatapathId(1), DatapathId(2), DatapathId(3)];
        let (a, c) = (topo.hosts[0].mac, topo.hosts[2].mac);
        let snap = |net: &Network| net.stamps().collect::<Vec<_>>();

        // Fresh networks are lineages of their own, each drawing its
        // stamps alike from its own counter; clones share everything.
        let other = Network::new(&topo);
        assert_ne!(net.lineage(), other.lineage());
        assert_eq!(snap(&other), snap(&net));
        let twin = net.clone();
        assert_eq!(twin.lineage(), net.lineage());
        assert!(restamped(&snap(&twin), &net).is_empty());

        // State-altering control messages stamp their switch only.
        let before = snap(&net);
        let fm = FlowMod::add(Match::eth_dst(c))
            .idle_timeout(5)
            .action(Action::Output(PortNo::Flood));
        net.apply(d2, &Message::FlowMod(fm)).unwrap();
        assert_eq!(restamped(&before, &net), vec![d2]);
        assert!(restamped(&snap(&twin), &net) == vec![d2], "clone diverged");
        let before = snap(&net);
        let pm = legosdn_openflow::messages::PortMod {
            port_no: PortNo::Phys(1),
            hw_addr: MacAddr::from_index(0),
            down: true,
        };
        net.apply(d3, &Message::PortMod(pm)).unwrap();
        assert_eq!(restamped(&before, &net), vec![d3]);

        // Reads, packet-outs, injected traffic and the counters they bump
        // stamp nothing; neither does a no-op link change or a tick that
        // expires nothing.
        let before = snap(&net);
        net.apply(d1, &Message::Hello).unwrap();
        net.apply(d2, &Message::StatsRequest(StatsRequest::Table))
            .unwrap();
        let po = PacketOut {
            buffer_id: BufferId::NONE,
            in_port: PortNo::None,
            actions: vec![Action::Output(PortNo::Flood)],
            packet: Some(Packet::ethernet(a, c)),
        };
        net.apply(d1, &Message::PacketOut(po)).unwrap();
        net.inject(a, Packet::ethernet(a, c)).unwrap();
        let _ = net
            .switch(d2)
            .unwrap()
            .table()
            .peek(&Packet::ethernet(a, c), PortNo::Phys(1));
        let _ = net.switch(d2).unwrap().table().stats();
        net.set_link_up(0, true).unwrap();
        net.set_switch_up(d1, true).unwrap();
        net.tick(SimDuration::from_secs(1));
        assert!(restamped(&before, &net).is_empty());

        // Expiry stamps the switch that lost an entry.
        net.tick(SimDuration::from_secs(10));
        assert_eq!(restamped(&before, &net), vec![d2]);

        // A link flap stamps both ends; a power-cycle stamps the switch
        // and every peer whose port flaps.
        let before = snap(&net);
        let l12 = net.find_link(d1, d2).unwrap();
        net.set_link_up(l12, false).unwrap();
        assert_eq!(restamped(&before, &net), vec![d1, d2]);
        let before = snap(&net);
        net.set_switch_up(d3, false).unwrap();
        assert_eq!(restamped(&before, &net), vec![d2, d3]);
        let before = snap(&net);
        net.set_switch_up(d3, true).unwrap();
        assert_eq!(restamped(&before, &net), vec![d2, d3]);

        // Applying to a down or unknown switch changes nothing.
        net.set_switch_up(d1, false).unwrap();
        let before = snap(&net);
        let fm = FlowMod::add(Match::any());
        assert!(net.apply(d1, &Message::FlowMod(fm.clone())).is_err());
        assert!(net.apply(DatapathId(9), &Message::FlowMod(fm)).is_err());
        assert!(restamped(&before, &net).is_empty());
    }

    #[test]
    fn a_network_draws_its_stamps_unperturbed_by_another() {
        let topo = Topology::linear(3, 1);
        let c = topo.hosts[2].mac;
        let step = |net: &mut Network, i: u64| {
            let fm = FlowMod::add(Match::eth_dst(c)).priority(i as u16);
            // A down switch refuses it and stamps nothing.
            let _ = net.apply(DatapathId(i % 3 + 1), &Message::FlowMod(fm));
            if i.is_multiple_of(2) {
                net.set_switch_up(DatapathId(2), i.is_multiple_of(4))
                    .unwrap();
            }
        };
        let mut alone = Network::new(&topo);
        for i in 0..8 {
            step(&mut alone, i);
        }
        let mut other = Network::new(&topo);
        let mut net = Network::new(&topo);
        for i in 0..8 {
            step(&mut other, i + 1);
            step(&mut net, i);
            step(&mut other, i + 2);
        }
        assert_eq!(
            net.stamps().collect::<Vec<_>>(),
            alone.stamps().collect::<Vec<_>>()
        );
    }

    #[test]
    fn changes_since_names_the_flow_mods_or_says_unknown() {
        let topo = Topology::linear(2, 1);
        let mut net = Network::new(&topo);
        let (d1, d2) = (DatapathId(1), DatapathId(2));
        let stamp = |net: &Network, row: usize| net.stamps().nth(row).unwrap().1;
        let since = |net: &Network, row: usize, seen: u64| {
            net.changes_since(row, seen)
                .map(|mats| mats.cloned().collect::<Vec<_>>())
        };
        let mat = |i: u64| Match::eth_dst(MacAddr::from_index(i));
        let add = |net: &mut Network, d: DatapathId, m: Match| {
            net.apply(d, &Message::FlowMod(FlowMod::add(m))).unwrap();
        };

        // Flow-mods are named, newest first, from any stamp on the way.
        let s0 = stamp(&net, 0);
        add(&mut net, d1, mat(1));
        let s1 = stamp(&net, 0);
        let mut del = FlowMod::add(mat(2));
        del.command = legosdn_openflow::prelude::FlowModCommand::Delete;
        net.apply(d1, &Message::FlowMod(del)).unwrap();
        assert_eq!(since(&net, 0, s0), Some(vec![mat(2), mat(1)]));
        assert_eq!(since(&net, 0, s1), Some(vec![mat(2)]));
        // A stamp the switch never had, the other switch's say: unknown.
        assert_eq!(since(&net, 0, stamp(&net, 1)), None);
        assert_eq!(since(&net, 9, s0), None);

        // A clone carries the past; what either side does next is its own.
        let mut fork = net.clone();
        let s2 = stamp(&net, 0);
        add(&mut fork, d1, mat(3));
        add(&mut net, d1, mat(4));
        assert_eq!(since(&fork, 0, s1), Some(vec![mat(3), mat(2)]));
        assert_eq!(since(&net, 0, s2), Some(vec![mat(4)]));
        assert_eq!(since(&net, 0, stamp(&fork, 0)), None);

        // One step more than is kept: unknown, from then on.
        for i in 0..HISTORY_DEPTH as u64 {
            assert_eq!(since(&net, 0, s2).map(|m| m.len()), Some(i as usize + 1));
            add(&mut net, d1, mat(10 + i));
        }
        assert_eq!(since(&net, 0, s2), None);

        // Anything but a flow-mod cuts the chain, however recent.
        let cuts: [fn(&mut Network); 3] = [
            |net| {
                let pm = legosdn_openflow::messages::PortMod {
                    port_no: PortNo::Phys(1),
                    hw_addr: MacAddr::from_index(0),
                    down: true,
                };
                net.apply(DatapathId(2), &Message::PortMod(pm)).unwrap();
            },
            |net| net.set_link_up(0, false).unwrap(),
            |net| {
                let fm = FlowMod::add(Match::any()).hard_timeout(1);
                net.apply(DatapathId(2), &Message::FlowMod(fm)).unwrap();
                net.tick(SimDuration::from_secs(2));
            },
        ];
        for cut in cuts {
            let before = stamp(&net, 1);
            add(&mut net, d2, mat(5));
            cut(&mut net);
            let between = stamp(&net, 1);
            add(&mut net, d2, mat(6));
            assert_eq!(since(&net, 1, before), None);
            assert_eq!(since(&net, 1, between), Some(vec![mat(6)]));
        }

        // A refused flow-mod changed nothing; its match says no less.
        let mut net = Network::new(&topo);
        add(&mut net, d1, mat(1));
        let before = stamp(&net, 0);
        let mut clash = FlowMod::add(Match::any());
        clash.check_overlap = true;
        let out = net.apply(d1, &Message::FlowMod(clash)).unwrap();
        assert!(matches!(out.replies[..], [Message::Error(_)]));
        assert_eq!(since(&net, 0, before), Some(vec![Match::any()]));
    }

    #[test]
    fn topology_lookups_agree_with_the_wiring() {
        let topo = Topology::fat_tree(4);
        let mut net = Network::new(&topo);
        for h in &topo.hosts {
            assert_eq!(net.host_by_mac(h.mac), Some(h));
            assert_eq!(net.host_at(h.attach), Some(h));
            assert_eq!(net.link_peer(h.attach), None);
        }
        assert_eq!(net.host_by_mac(MacAddr::from_index(9999)), None);
        for (i, l) in topo.links.iter().enumerate() {
            assert_eq!(net.link_peer(l.a), Some(l.b));
            assert_eq!(net.link_peer(l.b), Some(l.a));
            assert_eq!(net.host_at(l.a), None);
            net.set_link_up(i, false).unwrap();
            assert_eq!(net.link_peer(l.a), None);
            assert_eq!(net.link_peer(l.b), None);
            assert_eq!(net.wired_peer(l.a), Some(l.b));
            assert_eq!(net.wired_peer(l.b), Some(l.a));
        }
    }

    #[test]
    fn pre_state_flows_through_apply() {
        let (mut net, _, b) = two_switch();
        let host_b = net.host_by_mac(b).unwrap().clone();
        let fm = FlowMod::add(Match::eth_dst(b)).action(Action::Output(PortNo::Phys(1)));
        let out = net
            .apply(host_b.attach.dpid, &Message::FlowMod(fm))
            .unwrap();
        assert_eq!(out.pre_state, Some(PreState::DisplacedFlows(vec![])));
    }
}
