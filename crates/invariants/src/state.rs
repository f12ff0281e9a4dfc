//! The warm cache behind [`Checker::check`]: what the last check learned
//! about every probed pair, and which switches each answer depends on, so
//! the next check re-probes only what a change could have altered.
//!
//! A probe's outcome is a function of the forwarding state of exactly the
//! switches its walk arrived at (see [`crate::probe::walk`]), and netsim
//! redraws a switch's change stamp whenever that state may have changed.
//! So a check is: diff the stamps against the ones last seen, union the
//! pairs that depend on a changed switch, re-probe those in ascending
//! pair order, and assemble the report from the per-pair results. A cold
//! state (or one built for another network lineage or checker) has every
//! pair pending, which makes the stateless full scan the same routine.

use crate::checker::{CheckReport, Checker, Invariant, Violation};
use crate::probe::{walk, ProbeOutcome, ProbeScratch};
use legosdn_netsim::{Endpoint, Network};
use legosdn_openflow::prelude::{DatapathId, Packet};
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
/// on an 80-switch fat-tree) and everything else a few KB, whatever the
/// rules do — flood rules make every walk cross dozens of switches, and a
/// matrix does not grow with them. Only the violations themselves (the
/// report's content, empty on a healthy network) come on top.
#[derive(Debug, Default)]
pub struct CheckState {
    /// What the cache is valid for; a mismatch on any drops it. Lineage 0
    /// is never drawn, so a default state matches no network.
    lineage: u64,
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
    /// the row is emptied when its switch changes, and the pairs that
    /// still cross it set their bits again as they are re-probed.
    deps: Vec<u64>,
    words: usize,

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
        for (row, (_, stamp)) in net.stamps().enumerate() {
            if self.seen[row] != stamp {
                self.seen[row] = stamp;
                // Everything that depended on the switch is pending.
                let deps = &mut self.deps[row * self.words..][..self.words];
                for (p, d) in self.pending.iter_mut().zip(deps) {
                    *p |= std::mem::take(d);
                }
            }
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
            + (self.deps.capacity() + self.pending.capacity()) * size_of::<u64>()
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
        self.pending.clear();
        self.pending.resize(self.words, u64::MAX);
        if let Some(last) = self.pending.last_mut() {
            *last >>= (self.words * 64 - self.pairs) as u32;
        }
    }

    fn reprobe_pending(&mut self, net: &Network) {
        self.last_reprobed = 0;
        for w in 0..self.words {
            let mut bits = std::mem::take(&mut self.pending[w]);
            while bits != 0 {
                let p = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.reprobe(net, p);
            }
        }
    }

    /// Walk pair `p` afresh, replace its recorded result, and mark it
    /// under every switch the walk arrived at.
    fn reprobe(&mut self, net: &Network, p: usize) {
        self.last_reprobed += 1;
        let hosts = net.hosts();
        let (src_idx, k) = (p / self.per_src, p % self.per_src);
        let (src, dst) = (&hosts[src_idx], &hosts[k + usize::from(k >= src_idx)]);
        let pkt = Packet::ethernet(src.mac, dst.mac);
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
        for at in self.scratch.path() {
            if let Ok(row) = self.dpids.binary_search(&at.dpid) {
                self.deps[row * self.words + p / 64] |= 1 << (p % 64);
            }
        }
    }
}
