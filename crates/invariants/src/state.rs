//! The warm cache behind [`Checker::check`]: what the last check learned
//! about every probed pair, and which switches each answer depends on, so
//! the next check re-probes only what a change could have altered.
//!
//! A probe's outcome is a function of the forwarding state of exactly the
//! switches its walk arrived at (see [`crate::probe::walk`]), and netsim
//! redraws a switch's change stamp whenever that state may have changed —
//! and, where flow-mods alone did it, says which matches they carried
//! ([`Network::changes_since`]). A flow-mod alters the fate of a packet
//! at its switch only if its match covers the packet, and a walk that
//! rewrote nothing looked up one packet everywhere: the pair's probe.
//! So a check is: diff the stamps against the ones last seen; of the
//! pairs that depend on a changed switch take those whose probe one of
//! its flow-mods could match, those whose walk rewrote the packet, or
//! all of them if the change is not known to be flow-mods; re-probe
//! these in ascending pair order; and assemble the report from the
//! per-pair results. A cold state (or one built for another network
//! lineage or checker) has every pair pending, which makes the stateless
//! full scan the same routine.

use crate::checker::{CheckReport, Checker, Invariant, Violation};
use crate::probe::{walk, ProbeOutcome, ProbeScratch};
use legosdn_netsim::{Endpoint, Lineage, Network};
use legosdn_openflow::prelude::{DatapathId, MacAddr, Match, Packet, PortNo};
use std::collections::BTreeMap;
use std::mem::size_of;

/// Per-pair result class, two bits each in [`CheckState::class`].
const OTHER: u8 = 0;
const DELIVERED: u8 = 1;
const PUNTED: u8 = 2;

fn invariant_bit(inv: Invariant) -> u8 {
    match inv {
        Invariant::NoBlackHoles => 1,
        Invariant::NoLoops => 2,
        Invariant::AllPairsServiced => 4,
    }
}

/// Memoised per-pair check results for one network lineage and one
/// checker configuration. See the module docs.
///
/// Pairs are numbered in probe order: source-major over the host list,
/// each source's destinations ascending with itself skipped (hosts are
/// told apart by position; every topology generator gives them distinct
/// MACs).
///
/// Memory is flat and fixed at the first check: the dependency matrix
/// takes `switches × pairs / 8` bytes (40 KB for the default 4 096 pairs
/// on an 80-switch fat-tree) and everything else, the `rewrote` row
/// among it, a few KB, whatever the rules do — flood rules make every
/// walk cross dozens of switches, and a matrix does not grow with them.
/// Only the violations themselves (the report's content, empty on a
/// healthy network) come on top.
#[derive(Debug, Default)]
pub struct CheckState {
    /// What the cache is valid for; a mismatch on any drops it. The
    /// default lineage is no network's, so a default state matches none.
    lineage: Lineage,
    max_pairs: usize,
    enforced: u8,

    /// Destinations per source (`hosts - 1`) and pairs probed.
    per_src: usize,
    pairs: usize,
    /// Switches ascending by dpid, and the stamp each had at the last
    /// check. A switch's position here is its row in `deps`.
    dpids: Vec<DatapathId>,
    seen: Vec<u64>,

    /// Two-bit class per pair, four to a byte.
    class: Vec<u8>,
    /// Violating pairs only; ascending pair order is report order.
    violations: BTreeMap<u32, Violation>,
    delivered: usize,
    punted: usize,

    /// Dependency matrix: one row of `words` words per switch, bit `p`
    /// set if pair `p`'s last walk arrived at that switch. A row is only
    /// ever a superset of the truth — a pair routed away leaves its bit
    /// behind — which costs one spurious re-probe, never a missed one:
    /// a pair sent to re-probe by its switch's change leaves the row, and
    /// sets its bit again if it still crosses.
    deps: Vec<u64>,
    words: usize,
    /// One row: bit `p` set if pair `p`'s last walk carried a rewritten
    /// packet into some switch. What such a walk looked up is no longer
    /// told by the pair's MACs, so any change on its path re-probes it.
    rewrote: Vec<u64>,

    /// Pairs awaiting a re-probe (one row), and walk scratch.
    pending: Vec<u64>,
    scratch: ProbeScratch,
    last_reprobed: usize,
}

impl CheckState {
    /// An empty cache; the first check against any network is a full scan.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bring the cache up to date with `net` and report violations of
    /// `checker`'s invariants — the same report, pair for pair, that a
    /// scan from a cold state produces.
    pub fn check(&mut self, checker: &Checker, net: &Network) -> CheckReport {
        let enforced = checker
            .invariants
            .iter()
            .fold(0, |m, &inv| m | invariant_bit(inv));
        if self.lineage != net.lineage()
            || self.max_pairs != checker.max_pairs
            || self.enforced != enforced
        {
            self.rebuild(checker.max_pairs, enforced, net);
        }
        let hosts = net.hosts();
        for (row, (_, stamp)) in net.stamps().enumerate() {
            let seen = std::mem::replace(&mut self.seen[row], stamp);
            if seen == stamp {
                continue;
            }
            let deps = &mut self.deps[row * self.words..][..self.words];
            let pending = &mut self.pending;
            let Some(mats) = net.changes_since(row, seen) else {
                // Everything that depended on the switch is pending.
                drain(pending, deps, |_, crossing| crossing);
                continue;
            };
            // Flow-mods and nothing else: pending are the pairs whose
            // probe one of them could match on some port (a superset:
            // `in_port` is ignored) ...
            for mat in mats {
                match probe_macs(mat) {
                    None => {}
                    // No MAC asked for: the row as it stands, a word at a
                    // time. Spanning-tree port blocks are of this kind.
                    Some((None, None)) => drain(pending, deps, |_, crossing| crossing),
                    Some((src, dst)) => drain(pending, deps, |word, crossing| {
                        select(crossing, |bit| {
                            let (s, d) = pair_ends(self.per_src, word * 64 + bit);
                            src.is_none_or(|mac| mac == hosts[s].mac)
                                && dst.is_none_or(|mac| mac == hosts[d].mac)
                        })
                    }),
                }
            }
            // ... and those that no longer look up what they set out as.
            drain(pending, deps, |word, crossing| {
                crossing & self.rewrote[word]
            });
        }
        self.reprobe_pending(net);
        CheckReport {
            pairs_checked: self.pairs,
            pairs_delivered: self.delivered,
            pairs_punted: self.punted,
            violations: self.violations.values().cloned().collect(),
        }
    }

    /// Pairs the last check actually walked (the rest were reused).
    #[must_use]
    pub fn last_reprobed(&self) -> usize {
        self.last_reprobed
    }

    /// Bytes resident in the cache: the sum of its containers'
    /// capacities, plus the violations it is holding for the report.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        let held: usize = self
            .violations
            .values()
            .map(|v| match v {
                Violation::Loop { path, .. } => path.capacity() * size_of::<Endpoint>(),
                _ => 0,
            })
            .sum();
        self.dpids.capacity() * size_of::<DatapathId>()
            + self.seen.capacity() * size_of::<u64>()
            + self.class.capacity()
            + self.violations.len() * (size_of::<u32>() + size_of::<Violation>())
            + held
            + (self.deps.capacity() + self.rewrote.capacity() + self.pending.capacity())
                * size_of::<u64>()
            + self.scratch.footprint_bytes()
    }

    /// Drop everything and size the cache for `net`, every pair pending.
    fn rebuild(&mut self, max_pairs: usize, enforced: u8, net: &Network) {
        let hosts = net.hosts().len();
        self.lineage = net.lineage();
        self.max_pairs = max_pairs;
        self.enforced = enforced;
        self.per_src = hosts.saturating_sub(1);
        self.pairs = (hosts * self.per_src).min(max_pairs);
        (self.dpids, self.seen) = net.stamps().unzip();
        self.class.clear();
        self.class.resize(self.pairs.div_ceil(4), OTHER);
        self.violations.clear();
        self.delivered = 0;
        self.punted = 0;
        self.words = self.pairs.div_ceil(64);
        self.deps.clear();
        self.deps.resize(self.dpids.len() * self.words, 0);
        self.rewrote.clear();
        self.rewrote.resize(self.words, 0);
        self.pending.clear();
        self.pending.resize(self.words, u64::MAX);
        if let Some(last) = self.pending.last_mut() {
            *last >>= (self.words * 64 - self.pairs) as u32;
        }
    }

    fn reprobe_pending(&mut self, net: &Network) {
        self.last_reprobed = 0;
        for w in 0..self.words {
            for bit in set_bits(std::mem::take(&mut self.pending[w])) {
                self.reprobe(net, w * 64 + bit);
            }
        }
    }

    /// Walk pair `p` afresh, replace its recorded result, and mark it
    /// under every switch the walk arrived at.
    fn reprobe(&mut self, net: &Network, p: usize) {
        self.last_reprobed += 1;
        let hosts = net.hosts();
        let (src, dst) = pair_ends(self.per_src, p);
        let (src, dst) = (&hosts[src], &hosts[dst]);
        let pkt = probe_packet(src.mac, dst.mac);
        let outcome = walk(net, src.attach, dst.mac, &pkt, &mut self.scratch);

        let enforces = |inv| self.enforced & invariant_bit(inv) != 0;
        let (class, violation) = match outcome {
            ProbeOutcome::Delivered
            | ProbeOutcome::Flooded {
                reached_destination: true,
            } => (DELIVERED, None),
            ProbeOutcome::Punt { .. } => (PUNTED, None),
            ProbeOutcome::BlackHole { at } if enforces(Invariant::NoBlackHoles) => (
                OTHER,
                Some(Violation::BlackHole {
                    src: src.mac,
                    dst: dst.mac,
                    at,
                }),
            ),
            ProbeOutcome::Loop { path } if enforces(Invariant::NoLoops) => (
                OTHER,
                Some(Violation::Loop {
                    src: src.mac,
                    dst: dst.mac,
                    path,
                }),
            ),
            ProbeOutcome::Flooded {
                reached_destination: false,
            } if enforces(Invariant::AllPairsServiced) => (
                OTHER,
                Some(Violation::Undelivered {
                    src: src.mac,
                    dst: dst.mac,
                }),
            ),
            _ => (OTHER, None),
        };

        let (byte, sh) = (p / 4, (p % 4) * 2);
        match (self.class[byte] >> sh) & 3 {
            DELIVERED => self.delivered -= 1,
            PUNTED => self.punted -= 1,
            _ => {}
        }
        match class {
            DELIVERED => self.delivered += 1,
            PUNTED => self.punted += 1,
            _ => {}
        }
        self.class[byte] = (self.class[byte] & !(3 << sh)) | (class << sh);
        match violation {
            Some(v) => {
                self.violations.insert(p as u32, v);
            }
            None => {
                self.violations.remove(&(p as u32));
            }
        }

        // A switch the network does not have can never change: no row.
        let (word, bit) = (p / 64, 1 << (p % 64));
        for at in self.scratch.path() {
            if let Ok(row) = self.dpids.binary_search(&at.dpid) {
                self.deps[row * self.words + word] |= bit;
            }
        }
        if self.scratch.rewrote() {
            self.rewrote[word] |= bit;
        } else {
            self.rewrote[word] &= !bit;
        }
    }
}

/// What every pair is probed with.
fn probe_packet(src: MacAddr, dst: MacAddr) -> Packet {
    Packet::ethernet(src, dst)
}

/// Positions in the host list of pair `p`'s source and destination.
fn pair_ends(per_src: usize, p: usize) -> (usize, usize) {
    let (src, k) = (p / per_src, p % per_src);
    (src, k + usize::from(k >= src))
}

/// Could `mat` match a pair's probe as it left its source, on some port
/// of some switch? `None` if not whatever the pair — the match asks for
/// something no probe carries, an IP header say; otherwise the MACs it
/// asks of the pair, which is all that tells one probe from another.
fn probe_macs(mat: &Match) -> Option<(Option<MacAddr>, Option<MacAddr>)> {
    let rest = Match {
        in_port: None,
        eth_src: None,
        eth_dst: None,
        ..mat.clone()
    };
    let blank = probe_packet(MacAddr::BROADCAST, MacAddr::BROADCAST);
    rest.matches(&blank, PortNo::None)
        .then_some((mat.eth_src, mat.eth_dst))
}

/// Move out of a switch's `deps` row, into `pending`, the pairs that
/// `chosen` picks among each word of the row (given the word's position).
/// Those that still cross the switch come back as they are re-probed.
fn drain(pending: &mut [u64], deps: &mut [u64], chosen: impl Fn(usize, u64) -> u64) {
    for (word, (pending, crossing)) in pending.iter_mut().zip(deps).enumerate() {
        let moved = chosen(word, *crossing);
        *pending |= moved;
        *crossing &= !moved;
    }
}

/// Positions of the set bits of `word`, ascending.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// The set bits of `word` whose position satisfies `keep`.
fn select(word: u64, keep: impl Fn(usize) -> bool) -> u64 {
    set_bits(word)
        .filter(|&bit| keep(bit))
        .fold(0, |kept, bit| kept | 1 << bit)
}
