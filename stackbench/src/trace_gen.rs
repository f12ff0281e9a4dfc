//! Seeded trace generators and their PRNG, copied from the bench crate's
//! `workloads.rs` and `legosdn-testkit` so that no edit outside this
//! directory can change the offered load. `tests::traces_are_pinned`
//! holds every workload's trace to a recorded digest.

use legosdn::netsim::{HostSpec, Topology};
use legosdn::openflow::prelude::{MacAddr, Packet};
use std::hash::{Hash, Hasher};

/// splitmix64, with the multiply-shift bounded sampling of
/// `legosdn_testkit::Rng`.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        let span = (hi - lo) as u128;
        lo + ((u128::from(self.next_u64()) * span) >> 64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Rank 0 with probability 1/2, rank 1 with 1/4, ... capped at `n - 1`:
    /// close enough to datacenter flow popularity.
    pub fn skewed(&mut self, n: usize) -> usize {
        (self.next_u64().trailing_zeros() as usize).min(n - 1)
    }

    fn port(&mut self) -> u16 {
        self.range(1024, 60_000) as u16
    }
}

/// One input to the network: the only thing the program under test sees.
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum TraceEvent {
    /// A host emits a packet into the dataplane.
    Inject { src: MacAddr, packet: Packet },
    /// A switch-to-switch link changes state.
    LinkState { link: usize, up: bool },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    FlashCrowd,
    ElephantMice,
    LinkFlap,
}

/// Flash-crowd destinations are `skewed` ranks: one beyond this many has
/// probability 2^-16.
const HOT_HOSTS: usize = 16;

impl TraceKind {
    /// The hosts the trace sends to. They announce themselves during
    /// set-up, as servers that have been up for a while would have; else
    /// whether a run floods half its packets hangs on when its seed first
    /// lets the hottest host speak.
    pub fn destinations(self, topo: &Topology) -> &[HostSpec] {
        match self {
            TraceKind::FlashCrowd | TraceKind::LinkFlap => {
                &topo.hosts[..HOT_HOSTS.min(topo.hosts.len())]
            }
            TraceKind::ElephantMice => &topo.hosts,
        }
    }

    pub fn generate(self, topo: &Topology, seed: u64, n: usize) -> Vec<TraceEvent> {
        match self {
            TraceKind::FlashCrowd => flash_crowd(topo, seed, n),
            TraceKind::ElephantMice => elephant_mice(topo, seed, n),
            TraceKind::LinkFlap => link_flap_storm(topo, seed, n),
        }
    }
}

fn tcp(src: &HostSpec, dst: &HostSpec, sport: u16, dport: u16) -> TraceEvent {
    TraceEvent::Inject {
        src: src.mac,
        packet: Packet::tcp(src.mac, dst.mac, src.ip, dst.ip, sport, dport),
    }
}

/// Every host hammers a handful of hot destinations: skewed destination,
/// uniform source, fresh source port.
fn flash_crowd(topo: &Topology, seed: u64, n: usize) -> Vec<TraceEvent> {
    let mut rng = SplitMix64::new(seed);
    let hosts = &topo.hosts;
    (0..n)
        .map(|_| {
            let src = &hosts[rng.range(0, hosts.len())];
            let dst = &hosts[rng.skewed(hosts.len())];
            let sport = rng.port();
            tcp(src, dst, sport, 80)
        })
        .collect()
}

/// Eight long-lived 5-tuples carry ~70% of packets (repeat table hits);
/// the rest are one-off mice (misses, packet-ins, new entries).
fn elephant_mice(topo: &Topology, seed: u64, n: usize) -> Vec<TraceEvent> {
    let mut rng = SplitMix64::new(seed);
    let hosts = &topo.hosts;
    let elephants: Vec<(usize, usize, u16)> = (0..8)
        .map(|_| {
            (
                rng.range(0, hosts.len()),
                rng.range(0, hosts.len()),
                rng.port(),
            )
        })
        .collect();
    (0..n)
        .map(|_| {
            if rng.chance(0.7) {
                let (s, d, sport) = elephants[rng.range(0, elephants.len())];
                tcp(&hosts[s], &hosts[d], sport, 443)
            } else {
                let src = &hosts[rng.range(0, hosts.len())];
                let dst = &hosts[rng.range(0, hosts.len())];
                let sport = rng.port();
                let dport = [80, 443, 8080][rng.range(0, 3)];
                tcp(src, dst, sport, dport)
            }
        })
        .collect()
}

/// Flash-crowd traffic with a skewed-popularity link going down at event
/// 8 of every 16 and one coming up at event 12.
fn link_flap_storm(topo: &Topology, seed: u64, n: usize) -> Vec<TraceEvent> {
    let mut rng = SplitMix64::new(seed);
    let hosts = &topo.hosts;
    let n_links = topo.links.len();
    (0..n)
        .map(|i| {
            if n_links > 0 && i % 16 == 8 {
                TraceEvent::LinkState {
                    link: rng.skewed(n_links),
                    up: false,
                }
            } else if n_links > 0 && i % 16 == 12 {
                TraceEvent::LinkState {
                    link: rng.skewed(n_links),
                    up: true,
                }
            } else {
                let src = &hosts[rng.range(0, hosts.len())];
                let dst = &hosts[rng.skewed(hosts.len())];
                let sport = rng.port();
                tcp(src, dst, sport, 80)
            }
        })
        .collect()
}

/// FNV-1a as a `Hasher`, so digests repeat across processes (the default
/// hasher is randomly keyed).
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub fn fnv_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Scale, WORKLOADS};

    #[test]
    fn prng_matches_the_reference_stream() {
        // First outputs of splitmix64 seeded with 0 (Vigna's reference).
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn traces_are_pinned() {
        let scale = Scale::full();
        let topo = Topology::fat_tree(scale.k);
        let pinned: [(&str, u64); 5] = [
            ("default_flash", 0xf1d3_3358_e24e_9607),
            ("lean_mice", 0x716f_a81d_ab27_3181),
            ("window_shard", 0xc04a_f9a0_effc_9220),
            ("isolated_channel", 0x3beb_dbba_7b80_5bca),
            ("crash_flap", 0x01ad_6a74_92a4_b948),
        ];
        for (w, (name, digest)) in WORKLOADS.iter().zip(pinned) {
            assert_eq!(w.name, name);
            let n = scale.trace_len(w);
            let seven = w.trace.generate(&topo, 7, n);
            assert_eq!(seven.len(), n);
            assert_eq!(fnv_of(&seven[..]), digest, "{name}: offered load changed");
            assert_eq!(
                seven,
                w.trace.generate(&topo, 7, n),
                "{name}: not repeatable"
            );
            assert_ne!(
                seven,
                w.trace.generate(&topo, 8, n),
                "{name}: ignores its seed"
            );
        }
    }

    #[test]
    fn link_flap_flaps_and_mice_hit() {
        let topo = Topology::fat_tree(4);
        let flap = TraceKind::LinkFlap.generate(&topo, 7, 160);
        let downs = flap
            .iter()
            .filter(|e| matches!(e, TraceEvent::LinkState { up: false, .. }))
            .count();
        assert_eq!(downs, 10);
        let mice = TraceKind::ElephantMice.generate(&topo, 7, 2000);
        let elephants = mice
            .iter()
            .filter(
                |e| matches!(e, TraceEvent::Inject { packet, .. } if packet.tp_dst == Some(443)),
            )
            .count();
        assert!((1500..1700).contains(&elephants), "{elephants}");
    }
}
