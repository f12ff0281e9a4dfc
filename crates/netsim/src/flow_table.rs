//! A single OpenFlow 1.0 flow table with priorities, wildcards, timeouts,
//! and per-flow counters.
//!
//! The table is the unit of state NetLog must be able to roll back, so every
//! mutation reports exactly what it displaced (as [`FlowEntrySnapshot`]s).
//!
//! # Index structure (DESIGN.md §12)
//!
//! Entries live in `entries`, always sorted by `(priority desc, seq asc)` —
//! the canonical table order that iteration, displaced-snapshot ordering, and
//! the codec all observe. On top sit two derived tiers:
//!
//! - `exact`: a hash index from [`ExactKey`] (the fully-concrete 12-tuple
//!   fingerprint) to the candidates carrying that exact match. Keyed with a
//!   deterministic FNV-1a + splitmix64-avalanche hasher so behaviour never
//!   depends on std's per-process SipHash seeds.
//! - `wild`: the candidates whose match wildcards at least one field, in
//!   table order.
//!
//! A lookup probes the exact tier once with the packet's own key, then scans
//! only the wildcard tier, stopping as soon as the remaining wildcard
//! candidates rank below the exact hit. Candidates are `(priority, seq)`
//! pairs — unique, and locating one in `entries` is a binary search — so the
//! index never stores positions that an insert or remove would invalidate.
//!
//! The tiers and the expiry watermark are *derived* state: they are rebuilt
//! from `entries` on decode and never encoded, keeping the wire format
//! byte-identical to the historical flat `Vec<FlowEntry>` representation
//! (see [`reference::LinearFlowTable`](crate::reference::LinearFlowTable),
//! the retained linear implementation the equivalence suite checks against).

use crate::clock::{SimDuration, SimTime};
use legosdn_codec::{Codec, CodecError, Reader};
use legosdn_openflow::error::{ErrorCode, ErrorType};
use legosdn_openflow::messages::{
    ErrorMsg, FlowEntrySnapshot, FlowMod, FlowModCommand, FlowRemovedReason, TableStats,
};
use legosdn_openflow::prelude::{Action, ExactKey, Match, Packet, PortNo};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// An installed flow entry.
#[derive(Clone, Debug, PartialEq, Eq, Codec)]
pub struct FlowEntry {
    pub mat: Match,
    pub priority: u16,
    pub cookie: u64,
    pub idle_timeout: u16,
    pub hard_timeout: u16,
    pub send_flow_removed: bool,
    pub actions: Vec<Action>,
    pub installed_at: SimTime,
    pub last_matched: SimTime,
    pub packet_count: u64,
    pub byte_count: u64,
    /// Monotone insertion sequence; breaks priority ties deterministically.
    pub(crate) seq: u64,
}

impl FlowEntry {
    /// Snapshot this entry for stats replies or NetLog's undo log.
    #[must_use]
    pub fn snapshot(&self, now: SimTime) -> FlowEntrySnapshot {
        let elapsed = now.since(self.installed_at).as_secs();
        // Durations saturate into the 32-bit OpenFlow counters rather than
        // silently truncating once the clock passes u32::MAX seconds.
        let elapsed_sec = u32::try_from(elapsed).unwrap_or(u32::MAX);
        let remaining_hard = if self.hard_timeout > 0 {
            Some(u32::from(self.hard_timeout).saturating_sub(elapsed_sec))
        } else {
            None
        };
        FlowEntrySnapshot {
            mat: self.mat.clone(),
            priority: self.priority,
            cookie: self.cookie,
            idle_timeout: self.idle_timeout,
            hard_timeout: self.hard_timeout,
            remaining_hard,
            duration_sec: elapsed_sec,
            packet_count: self.packet_count,
            byte_count: self.byte_count,
            send_flow_removed: self.send_flow_removed,
            actions: self.actions.clone(),
        }
    }

    /// Does this entry forward out `port`? (The OF 1.0 delete `out_port`
    /// filter semantics.)
    #[must_use]
    pub fn outputs_to(&self, port: PortNo) -> bool {
        self.actions
            .iter()
            .any(|a| matches!(a, Action::Output(p) if *p == port))
    }

    /// The earliest instant at which this entry could expire, if it has any
    /// timeout at all. Idle deadlines move later on every match, so a cached
    /// minimum over these is a conservative (never-late) watermark.
    fn deadline(&self) -> Option<SimTime> {
        let hard = (self.hard_timeout > 0)
            .then(|| self.installed_at + SimDuration::from_secs(u64::from(self.hard_timeout)));
        let idle = (self.idle_timeout > 0)
            .then(|| self.last_matched + SimDuration::from_secs(u64::from(self.idle_timeout)));
        match (hard, idle) {
            (Some(h), Some(i)) => Some(h.min(i)),
            (h, None) => h,
            (None, i) => i,
        }
    }
}

/// What a flow-mod did to the table — the pre-state NetLog records.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlowModOutcome {
    /// Entries removed or overwritten by the command, snapshotted as of
    /// application time.
    pub displaced: Vec<FlowEntrySnapshot>,
    /// Of the displaced entries, those that requested flow-removed
    /// notifications (deletes only, per OF 1.0).
    pub notify_removed: Vec<FlowEntrySnapshot>,
}

/// A flow expired by the clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExpiredFlow {
    pub snapshot: FlowEntrySnapshot,
    pub reason: FlowRemovedReason,
    /// Whether the entry asked for a flow-removed notification.
    pub notify: bool,
}

/// FNV-1a accumulation with a splitmix64 avalanche finisher (raw FNV's
/// low bit is just the XOR of the input bytes' low bits). Deterministic
/// across runs and platforms, unlike std's randomly-seeded SipHash.
#[derive(Clone)]
pub(crate) struct FnvSplitHasher(u64);

impl Default for FnvSplitHasher {
    fn default() -> Self {
        FnvSplitHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvSplitHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        self.0 = h;
    }

    fn finish(&self) -> u64 {
        let mut h = self.0;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

pub(crate) type BuildFnvSplit = BuildHasherDefault<FnvSplitHasher>;

/// A reference to an installed entry that survives inserts and removals:
/// `(priority, seq)` is unique and binary-searchable in the sorted store.
type Cand = (u16, u64);

/// Sort key implementing the table order: priority desc, insertion seq asc.
fn rank(c: Cand) -> (Reverse<u16>, u64) {
    (Reverse(c.0), c.1)
}

/// A single-table OpenFlow 1.0 flow table.
#[derive(Clone, Debug, Default)]
pub struct FlowTable {
    /// Canonical store, sorted by `(priority desc, seq asc)`.
    entries: Vec<FlowEntry>,
    next_seq: u64,
    max_entries: usize,
    lookup_count: u64,
    matched_count: u64,
    /// Exact-match tier: candidates per fully-concrete 12-tuple, each bucket
    /// in table order. Derived from `entries`; never encoded.
    exact: HashMap<ExactKey, Vec<Cand>, BuildFnvSplit>,
    /// Wildcard tier: candidates without an exact key, in table order, each
    /// carrying a copy of its match so the lookup/filter fast paths never
    /// chase back into `entries` for losers. Safe to copy because an
    /// entry's match is immutable from install to removal (modify rewrites
    /// only actions and cookie). Derived from `entries`; never encoded.
    wild: Vec<(Cand, Match)>,
    /// Conservative minimum over entry deadlines: `expire(now)` is a no-op
    /// whenever `now` precedes it. `None` means nothing can ever expire.
    earliest_deadline: Option<SimTime>,
}

/// Drop `cand` from the exact bucket at `key`; a bucket left empty goes
/// with it. A free function over the tier so expiry can call it while it
/// walks `entries`.
fn unbucket(exact: &mut HashMap<ExactKey, Vec<Cand>, BuildFnvSplit>, key: ExactKey, cand: Cand) {
    let bucket = exact.get_mut(&key).expect("tier bucket for entry");
    let i = bucket
        .iter()
        .position(|&c| c == cand)
        .expect("candidate in bucket");
    bucket.remove(i);
    if bucket.is_empty() {
        exact.remove(&key);
    }
}

impl FlowTable {
    /// A table bounded at `max_entries` (0 means unbounded).
    #[must_use]
    pub fn with_capacity(max_entries: usize) -> Self {
        FlowTable {
            max_entries,
            ..FlowTable::default()
        }
    }

    /// Number of installed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over installed entries (highest priority first).
    pub fn iter(&self) -> impl Iterator<Item = &FlowEntry> {
        self.entries.iter()
    }

    /// Table summary counters.
    #[must_use]
    pub fn stats(&self) -> TableStats {
        TableStats {
            active_count: self.entries.len() as u32,
            lookup_count: self.lookup_count,
            matched_count: self.matched_count,
            max_entries: if self.max_entries == 0 {
                u32::MAX
            } else {
                self.max_entries as u32
            },
        }
    }

    /// Position of an indexed candidate in the sorted store.
    fn position_of(&self, c: Cand) -> usize {
        self.entries
            .binary_search_by_key(&rank(c), |e| rank((e.priority, e.seq)))
            .expect("indexed candidate present in entries")
    }

    /// Rebuild both tiers from `entries` (which must already be sorted).
    fn rebuild_tiers(&mut self) {
        self.exact.clear();
        self.wild.clear();
        for e in &self.entries {
            let cand = (e.priority, e.seq);
            match e.mat.exact_key() {
                Some(k) => self.exact.entry(k).or_default().push(cand),
                None => self.wild.push((cand, e.mat.clone())),
            }
        }
    }

    /// Whether both tiers are exactly what [`Self::rebuild_tiers`] would
    /// derive from `entries` — the equivalence suite's check on every
    /// incremental index update.
    #[doc(hidden)]
    #[must_use]
    pub fn index_is_consistent(&self) -> bool {
        let mut fresh = self.clone();
        fresh.rebuild_tiers();
        fresh.exact == self.exact && fresh.wild == self.wild
    }

    /// Recompute the expiry watermark from the live entries.
    fn recompute_deadline(&mut self) {
        self.earliest_deadline = self.entries.iter().filter_map(FlowEntry::deadline).min();
    }

    /// Insert a fresh entry into the store and its tier, maintaining order
    /// and the watermark.
    fn insert_entry(&mut self, entry: FlowEntry) {
        let cand = (entry.priority, entry.seq);
        if let Some(d) = entry.deadline() {
            self.earliest_deadline = Some(match self.earliest_deadline {
                Some(w) => w.min(d),
                None => d,
            });
        }
        let key = entry.mat.exact_key();
        let mat = entry.mat.clone();
        let pos = self
            .entries
            .partition_point(|e| rank((e.priority, e.seq)) < rank(cand));
        self.entries.insert(pos, entry);
        match key {
            Some(k) => {
                let bucket = self.exact.entry(k).or_default();
                let p = bucket.partition_point(|&c| rank(c) < rank(cand));
                bucket.insert(p, cand);
            }
            None => {
                let p = self.wild.partition_point(|(c, _)| rank(*c) < rank(cand));
                self.wild.insert(p, (cand, mat));
            }
        }
    }

    /// Remove one indexed candidate from the store and its tier. The
    /// watermark is left untouched: removal can only raise the true minimum,
    /// so the cached value stays conservative.
    fn remove_entry(&mut self, cand: Cand) -> FlowEntry {
        let pos = self.position_of(cand);
        let e = self.entries.remove(pos);
        match e.mat.exact_key() {
            Some(k) => unbucket(&mut self.exact, k, cand),
            None => {
                let i = self
                    .wild
                    .iter()
                    .position(|(c, _)| *c == cand)
                    .expect("candidate in wild tier");
                self.wild.remove(i);
            }
        }
        e
    }

    /// The unique entry with exactly this `(mat, priority)`, if installed —
    /// the add-replace / strict-modify / strict-delete target.
    fn strict_target(&self, mat: &Match, priority: u16) -> Option<Cand> {
        match mat.exact_key() {
            // Bucket members carry this identical match (the key is
            // injective), so only the priority needs checking.
            Some(k) => self
                .exact
                .get(&k)
                .and_then(|b| b.iter().find(|c| c.0 == priority).copied()),
            // A match without a key can only equal wildcard-tier entries.
            None => self
                .wild
                .iter()
                .find(|(c, m)| c.0 == priority && m == mat)
                .map(|(c, _)| *c),
        }
    }

    /// All candidates whose match `mat` subsumes, in table order — the
    /// non-strict modify/delete and flow-stats filter set.
    fn subsumed_candidates(&self, mat: &Match) -> Vec<Cand> {
        match mat.exact_key() {
            Some(k) => {
                // The exact bucket holds the identical matches. An exact
                // outer can additionally subsume a handful of wildcard-tier
                // entries (non-/32 prefixes masking the same network, PCP
                // presence quirks), so the small wild tier is still scanned;
                // the two sorted runs merge back into table order.
                let bucket: &[Cand] = self.exact.get(&k).map_or(&[], Vec::as_slice);
                let wilds: Vec<Cand> = self
                    .wild
                    .iter()
                    .filter(|(_, m)| mat.subsumes(m))
                    .map(|(c, _)| *c)
                    .collect();
                let mut out = Vec::with_capacity(bucket.len() + wilds.len());
                let (mut i, mut j) = (0, 0);
                while i < bucket.len() && j < wilds.len() {
                    if rank(bucket[i]) < rank(wilds[j]) {
                        out.push(bucket[i]);
                        i += 1;
                    } else {
                        out.push(wilds[j]);
                        j += 1;
                    }
                }
                out.extend_from_slice(&bucket[i..]);
                out.extend_from_slice(&wilds[j..]);
                out
            }
            None => {
                let class = mat.wildcard_class();
                self.entries
                    .iter()
                    .filter(|e| class.could_subsume(e.mat.wildcard_class()) && mat.subsumes(&e.mat))
                    .map(|e| (e.priority, e.seq))
                    .collect()
            }
        }
    }

    /// True when an installed entry at `fm.priority` overlaps `fm.mat`
    /// without being identical to it — the `OFPFF_CHECK_OVERLAP` test,
    /// answered from the tiers instead of a full-table scan.
    fn has_overlap(&self, fm: &FlowMod) -> bool {
        match fm.mat.exact_key() {
            // An exact outer is *identical* to every same-key bucket member
            // (the key is injective) and can neither subsume nor be subsumed
            // by a concrete match with a different key, so distinct-match
            // overlap can only involve the wildcard tier — in either
            // subsumption direction (the non-/32-prefix oddities make even
            // exact-subsumes-wild possible).
            Some(_) => self
                .wild
                .iter()
                .any(|(c, m)| c.0 == fm.priority && (fm.mat.subsumes(m) || m.subsumes(&fm.mat))),
            None => {
                let class = fm.mat.wildcard_class();
                // Wildcard-tier peers at the priority, class-gated on both
                // directions before the field-by-field subsumption test.
                if self.wild.iter().any(|(c, m)| {
                    c.0 == fm.priority
                        && *m != fm.mat
                        && ((class.could_subsume(m.wildcard_class()) && fm.mat.subsumes(m))
                            || (m.wildcard_class().could_subsume(class) && m.subsumes(&fm.mat)))
                }) {
                    return true;
                }
                // Exact-tier entries the wildcard overlaps. A concrete match
                // is never equal to a keyless one, so no identity filter is
                // needed; both directions still apply (see above).
                self.exact.values().flatten().any(|&cand| {
                    if cand.0 != fm.priority {
                        return false;
                    }
                    let e = &self.entries[self.position_of(cand)];
                    fm.mat.subsumes(&e.mat) || e.mat.subsumes(&fm.mat)
                })
            }
        }
    }

    /// Apply a flow-mod. Returns what was displaced, or the OpenFlow error
    /// the switch would send (table full, overlap).
    pub fn apply(&mut self, fm: &FlowMod, now: SimTime) -> Result<FlowModOutcome, ErrorMsg> {
        match fm.command {
            FlowModCommand::Add => self.add(fm, now),
            FlowModCommand::Modify => self.modify(fm, now, false),
            FlowModCommand::ModifyStrict => self.modify(fm, now, true),
            FlowModCommand::Delete => Ok(self.delete(fm, now, false)),
            FlowModCommand::DeleteStrict => Ok(self.delete(fm, now, true)),
        }
    }

    fn add(&mut self, fm: &FlowMod, now: SimTime) -> Result<FlowModOutcome, ErrorMsg> {
        if fm.check_overlap && self.has_overlap(fm) {
            return Err(ErrorMsg {
                err_type: ErrorType::FlowModFailed,
                code: ErrorCode::Overlap,
                data: Vec::new(),
            });
        }
        let mut outcome = FlowModOutcome::default();
        // An add replaces an identical match+priority entry without
        // generating a flow-removed (OF 1.0 §4.6).
        if let Some(cand) = self.strict_target(&fm.mat, fm.priority) {
            let old = self.remove_entry(cand);
            outcome.displaced.push(old.snapshot(now));
        } else if self.max_entries > 0 && self.entries.len() >= self.max_entries {
            return Err(ErrorMsg {
                err_type: ErrorType::FlowModFailed,
                code: ErrorCode::TablesFull,
                data: Vec::new(),
            });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert_entry(FlowEntry {
            mat: fm.mat.clone(),
            priority: fm.priority,
            cookie: fm.cookie,
            idle_timeout: fm.idle_timeout,
            hard_timeout: fm.hard_timeout,
            send_flow_removed: fm.send_flow_removed,
            actions: fm.actions.clone(),
            installed_at: now,
            last_matched: now,
            packet_count: 0,
            byte_count: 0,
            seq,
        });
        Ok(outcome)
    }

    fn modify(
        &mut self,
        fm: &FlowMod,
        now: SimTime,
        strict: bool,
    ) -> Result<FlowModOutcome, ErrorMsg> {
        let mut outcome = FlowModOutcome::default();
        let targets: Vec<Cand> = if strict {
            self.strict_target(&fm.mat, fm.priority)
                .into_iter()
                .collect()
        } else {
            self.subsumed_candidates(&fm.mat)
        };
        for cand in &targets {
            let pos = self.position_of(*cand);
            let e = &mut self.entries[pos];
            outcome.displaced.push(e.snapshot(now));
            e.actions = fm.actions.clone();
            e.cookie = fm.cookie;
        }
        if targets.is_empty() {
            // OF 1.0: a modify that matches nothing behaves like an add.
            return self.add(fm, now);
        }
        Ok(outcome)
    }

    fn delete(&mut self, fm: &FlowMod, now: SimTime, strict: bool) -> FlowModOutcome {
        let mut outcome = FlowModOutcome::default();
        let out_port = fm.out_port;
        let targets: Vec<Cand> = if strict {
            self.strict_target(&fm.mat, fm.priority)
                .into_iter()
                .collect()
        } else {
            self.subsumed_candidates(&fm.mat)
        };
        for cand in targets {
            if out_port != PortNo::None
                && !self.entries[self.position_of(cand)].outputs_to(out_port)
            {
                continue;
            }
            let e = self.remove_entry(cand);
            let snap = e.snapshot(now);
            if e.send_flow_removed {
                outcome.notify_removed.push(snap.clone());
            }
            outcome.displaced.push(snap);
        }
        outcome
    }

    /// The winning candidate for `pkt` on `in_port`: the highest-priority
    /// (earliest-seq on ties) matching entry, found by one exact-tier probe
    /// plus a wildcard-tier scan that stops as soon as the remaining
    /// wildcard candidates rank below the exact hit.
    fn find_best(&self, pkt: &Packet, in_port: PortNo) -> Option<Cand> {
        let exact_best = ExactKey::of_packet(pkt, in_port)
            .and_then(|k| self.exact.get(&k))
            .and_then(|b| b.first().copied());
        for (cand, m) in &self.wild {
            if let Some(best) = exact_best {
                if rank(*cand) >= rank(best) {
                    break;
                }
            }
            if m.matches(pkt, in_port) {
                return Some(*cand);
            }
        }
        exact_best
    }

    /// Match `pkt` arriving on `in_port`, updating counters on hit.
    ///
    /// Highest priority wins; ties break by insertion order, matching the
    /// deterministic behaviour of software switches.
    pub fn lookup(&mut self, pkt: &Packet, in_port: PortNo, now: SimTime) -> Option<&FlowEntry> {
        self.lookup_count += 1;
        let winner = self.find_best(pkt, in_port)?;
        let wire_len = u64::from(pkt.wire_len());
        let pos = self.position_of(winner);
        {
            // The idle deadline only moves later here, so the cached expiry
            // watermark stays conservative without an update.
            let e = &mut self.entries[pos];
            e.packet_count += 1;
            e.byte_count += wire_len;
            e.last_matched = now;
        }
        self.matched_count += 1;
        Some(&self.entries[pos])
    }

    /// Match without mutating counters (used by invariant checkers).
    #[must_use]
    pub fn peek(&self, pkt: &Packet, in_port: PortNo) -> Option<&FlowEntry> {
        self.find_best(pkt, in_port)
            .map(|c| &self.entries[self.position_of(c)])
    }

    /// Expire idle and hard timeouts as of `now`. Returns immediately —
    /// without scanning — while `now` precedes the earliest possible
    /// deadline.
    pub fn expire(&mut self, now: SimTime) -> Vec<ExpiredFlow> {
        match self.earliest_deadline {
            Some(watermark) if now >= watermark => {}
            _ => return Vec::new(),
        }
        let mut expired = Vec::new();
        // Each expired entry leaves its own bucket as the walk drops it, so
        // the pass costs what expired; no other bucket is touched.
        let exact = &mut self.exact;
        let mut wild_expired = false;
        self.entries.retain(|e| {
            let hard_hit = e.hard_timeout > 0
                && now.since(e.installed_at).as_secs() >= u64::from(e.hard_timeout);
            let idle_hit = e.idle_timeout > 0
                && now.since(e.last_matched).as_secs() >= u64::from(e.idle_timeout);
            if hard_hit || idle_hit {
                expired.push(ExpiredFlow {
                    snapshot: e.snapshot(now),
                    reason: if hard_hit {
                        FlowRemovedReason::HardTimeout
                    } else {
                        FlowRemovedReason::IdleTimeout
                    },
                    notify: e.send_flow_removed,
                });
                match e.mat.exact_key() {
                    Some(k) => unbucket(exact, k, (e.priority, e.seq)),
                    None => wild_expired = true,
                }
                false
            } else {
                true
            }
        });
        if wild_expired {
            // One pass however many went: a wildcard candidate stays iff
            // its entry did.
            let entries = &self.entries;
            self.wild.retain(|(c, _)| {
                entries
                    .binary_search_by_key(&rank(*c), |e| rank((e.priority, e.seq)))
                    .is_ok()
            });
        }
        // The watermark may have been stale-early (idle deadlines moved by
        // traffic); recompute from the survivors either way.
        self.recompute_deadline();
        expired
    }

    /// Snapshot entries subsumed by `mat` (and forwarding to `out_port`, if
    /// not `None`) — the flow-stats request filter.
    #[must_use]
    pub fn snapshot_matching(
        &self,
        mat: &Match,
        out_port: PortNo,
        now: SimTime,
    ) -> Vec<FlowEntrySnapshot> {
        self.subsumed_candidates(mat)
            .into_iter()
            .map(|c| &self.entries[self.position_of(c)])
            .filter(|e| out_port == PortNo::None || e.outputs_to(out_port))
            .map(|e| e.snapshot(now))
            .collect()
    }

    /// Restore counters onto an entry (NetLog's counter-cache uses this when
    /// reinstalling a rolled-back entry).
    pub fn restore_counters(
        &mut self,
        mat: &Match,
        priority: u16,
        packets: u64,
        bytes: u64,
    ) -> bool {
        match self.strict_target(mat, priority) {
            Some(cand) => {
                let pos = self.position_of(cand);
                let e = &mut self.entries[pos];
                e.packet_count = packets;
                e.byte_count = bytes;
                true
            }
            None => false,
        }
    }
}

// Manual impl: only the five logical fields travel, in the same order the
// historical `#[derive(Codec)]` on the flat representation emitted them, so
// snapshots and NetLog undo records stay byte-identical across the index
// refactor. The tiers and watermark are rebuilt from the entries on decode.
impl Codec for FlowTable {
    fn encode(&self, out: &mut Vec<u8>) {
        self.entries.encode(out);
        self.next_seq.encode(out);
        self.max_entries.encode(out);
        self.lookup_count.encode(out);
        self.matched_count.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut t = FlowTable {
            entries: Vec::<FlowEntry>::decode(r)?,
            next_seq: u64::decode(r)?,
            max_entries: usize::decode(r)?,
            lookup_count: u64::decode(r)?,
            matched_count: u64::decode(r)?,
            ..FlowTable::default()
        };
        // Defensive against hand-built input: canonical order is part of the
        // determinism contract, and `next_seq` must stay ahead of every
        // installed entry. A well-formed encoding is already sorted (the
        // stable sort is then a no-op pass).
        t.entries.sort_by_key(|e| (Reverse(e.priority), e.seq));
        if let Some(max_seq) = t.entries.iter().map(|e| e.seq).max() {
            t.next_seq = t.next_seq.max(max_seq + 1);
        }
        t.rebuild_tiers();
        t.recompute_deadline();
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_openflow::prelude::{Ipv4Addr, MacAddr};

    fn pkt_to(dst: u64) -> Packet {
        Packet::ethernet(MacAddr::from_index(1), MacAddr::from_index(dst))
    }

    fn add(mat: Match, priority: u16, port: u16) -> FlowMod {
        FlowMod::add(mat)
            .priority(priority)
            .action(Action::Output(PortNo::Phys(port)))
    }

    #[test]
    fn empty_table_misses() {
        let mut t = FlowTable::default();
        assert!(t
            .lookup(&pkt_to(2), PortNo::Phys(1), SimTime::ZERO)
            .is_none());
        assert_eq!(t.stats().lookup_count, 1);
        assert_eq!(t.stats().matched_count, 0);
    }

    #[test]
    fn add_and_match_updates_counters() {
        let mut t = FlowTable::default();
        let m = Match::eth_dst(MacAddr::from_index(2));
        t.apply(&add(m, 10, 3), SimTime::ZERO).unwrap();
        let p = pkt_to(2);
        let hit = t
            .lookup(&p, PortNo::Phys(1), SimTime::from_secs(1))
            .unwrap();
        assert_eq!(hit.packet_count, 1);
        assert_eq!(hit.byte_count, u64::from(p.wire_len()));
        assert_eq!(hit.last_matched, SimTime::from_secs(1));
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FlowTable::default();
        t.apply(&add(Match::any(), 1, 1), SimTime::ZERO).unwrap();
        t.apply(
            &add(Match::eth_dst(MacAddr::from_index(2)), 100, 2),
            SimTime::ZERO,
        )
        .unwrap();
        let hit = t
            .lookup(&pkt_to(2), PortNo::Phys(9), SimTime::ZERO)
            .unwrap();
        assert_eq!(hit.priority, 100);
        // A packet to someone else falls to the low-priority catch-all.
        let hit = t
            .lookup(&pkt_to(3), PortNo::Phys(9), SimTime::ZERO)
            .unwrap();
        assert_eq!(hit.priority, 1);
    }

    #[test]
    fn equal_priority_ties_break_by_insertion() {
        let mut t = FlowTable::default();
        t.apply(&add(Match::any(), 5, 1), SimTime::ZERO).unwrap();
        t.apply(
            &add(Match::eth_dst(MacAddr::from_index(2)), 5, 2),
            SimTime::ZERO,
        )
        .unwrap();
        let hit = t
            .lookup(&pkt_to(2), PortNo::Phys(9), SimTime::ZERO)
            .unwrap();
        assert_eq!(hit.actions, vec![Action::Output(PortNo::Phys(1))]);
    }

    #[test]
    fn add_replaces_identical_match_priority() {
        let mut t = FlowTable::default();
        let m = Match::eth_dst(MacAddr::from_index(2));
        t.apply(&add(m.clone(), 5, 1), SimTime::ZERO).unwrap();
        let out = t
            .apply(&add(m.clone(), 5, 9), SimTime::from_secs(2))
            .unwrap();
        assert_eq!(out.displaced.len(), 1);
        assert_eq!(
            out.displaced[0].actions,
            vec![Action::Output(PortNo::Phys(1))]
        );
        assert_eq!(t.len(), 1);
        let hit = t
            .lookup(&pkt_to(2), PortNo::Phys(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(hit.actions, vec![Action::Output(PortNo::Phys(9))]);
    }

    #[test]
    fn table_full_errors() {
        let mut t = FlowTable::with_capacity(2);
        t.apply(
            &add(Match::eth_dst(MacAddr::from_index(1)), 5, 1),
            SimTime::ZERO,
        )
        .unwrap();
        t.apply(
            &add(Match::eth_dst(MacAddr::from_index(2)), 5, 1),
            SimTime::ZERO,
        )
        .unwrap();
        let err = t.apply(
            &add(Match::eth_dst(MacAddr::from_index(3)), 5, 1),
            SimTime::ZERO,
        );
        assert_eq!(err.unwrap_err().code, ErrorCode::TablesFull);
        // Replacing an existing entry still works at capacity.
        assert!(t
            .apply(
                &add(Match::eth_dst(MacAddr::from_index(2)), 5, 7),
                SimTime::ZERO
            )
            .is_ok());
    }

    #[test]
    fn check_overlap_rejects_overlapping_same_priority() {
        let mut t = FlowTable::default();
        t.apply(
            &add(Match::eth_dst(MacAddr::from_index(2)), 5, 1),
            SimTime::ZERO,
        )
        .unwrap();
        let mut fm = add(Match::any(), 5, 2);
        fm.check_overlap = true;
        assert_eq!(
            t.apply(&fm, SimTime::ZERO).unwrap_err().code,
            ErrorCode::Overlap
        );
        // Different priority: fine.
        let mut fm = add(Match::any(), 6, 2);
        fm.check_overlap = true;
        assert!(t.apply(&fm, SimTime::ZERO).is_ok());
    }

    #[test]
    fn non_strict_delete_subsumes() {
        let mut t = FlowTable::default();
        t.apply(
            &add(Match::eth_dst(MacAddr::from_index(2)), 5, 1),
            SimTime::ZERO,
        )
        .unwrap();
        t.apply(
            &add(Match::eth_dst(MacAddr::from_index(3)), 9, 1),
            SimTime::ZERO,
        )
        .unwrap();
        let out = t
            .apply(&FlowMod::delete(Match::any()), SimTime::ZERO)
            .unwrap();
        assert_eq!(out.displaced.len(), 2);
        assert!(t.is_empty());
    }

    #[test]
    fn strict_delete_requires_exact() {
        let mut t = FlowTable::default();
        let m = Match::eth_dst(MacAddr::from_index(2));
        t.apply(&add(m.clone(), 5, 1), SimTime::ZERO).unwrap();
        // Wrong priority: no-op.
        let out = t
            .apply(&FlowMod::delete_strict(m.clone(), 6), SimTime::ZERO)
            .unwrap();
        assert!(out.displaced.is_empty());
        assert_eq!(t.len(), 1);
        let out = t
            .apply(&FlowMod::delete_strict(m, 5), SimTime::ZERO)
            .unwrap();
        assert_eq!(out.displaced.len(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn delete_filters_by_out_port() {
        let mut t = FlowTable::default();
        t.apply(
            &add(Match::eth_dst(MacAddr::from_index(2)), 5, 1),
            SimTime::ZERO,
        )
        .unwrap();
        t.apply(
            &add(Match::eth_dst(MacAddr::from_index(3)), 5, 2),
            SimTime::ZERO,
        )
        .unwrap();
        let mut del = FlowMod::delete(Match::any());
        del.out_port = PortNo::Phys(2);
        let out = t.apply(&del, SimTime::ZERO).unwrap();
        assert_eq!(out.displaced.len(), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_notifies_when_requested() {
        let mut t = FlowTable::default();
        let fm = add(Match::any(), 5, 1).notify_removed();
        t.apply(&fm, SimTime::ZERO).unwrap();
        let out = t
            .apply(&FlowMod::delete(Match::any()), SimTime::ZERO)
            .unwrap();
        assert_eq!(out.notify_removed.len(), 1);
    }

    #[test]
    fn modify_rewrites_actions_preserving_counters() {
        let mut t = FlowTable::default();
        let m = Match::eth_dst(MacAddr::from_index(2));
        t.apply(&add(m.clone(), 5, 1), SimTime::ZERO).unwrap();
        t.lookup(&pkt_to(2), PortNo::Phys(1), SimTime::ZERO)
            .unwrap();
        let mut fm = add(m, 5, 9);
        fm.command = FlowModCommand::ModifyStrict;
        let out = t.apply(&fm, SimTime::ZERO).unwrap();
        assert_eq!(out.displaced.len(), 1);
        let e = t.iter().next().unwrap();
        assert_eq!(e.actions, vec![Action::Output(PortNo::Phys(9))]);
        assert_eq!(e.packet_count, 1, "modify must not reset counters");
    }

    #[test]
    fn modify_of_nothing_adds() {
        let mut t = FlowTable::default();
        let mut fm = add(Match::any(), 5, 1);
        fm.command = FlowModCommand::Modify;
        t.apply(&fm, SimTime::ZERO).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn hard_timeout_expires() {
        let mut t = FlowTable::default();
        let fm = add(Match::any(), 5, 1).hard_timeout(10).notify_removed();
        t.apply(&fm, SimTime::ZERO).unwrap();
        assert!(t.expire(SimTime::from_secs(9)).is_empty());
        let exp = t.expire(SimTime::from_secs(10));
        assert_eq!(exp.len(), 1);
        assert_eq!(exp[0].reason, FlowRemovedReason::HardTimeout);
        assert!(exp[0].notify);
        assert!(t.is_empty());
    }

    #[test]
    fn idle_timeout_resets_on_match() {
        let mut t = FlowTable::default();
        let fm = add(Match::any(), 5, 1).idle_timeout(5);
        t.apply(&fm, SimTime::ZERO).unwrap();
        // Traffic at t=4 pushes expiry to t=9.
        t.lookup(&pkt_to(2), PortNo::Phys(1), SimTime::from_secs(4));
        assert!(t.expire(SimTime::from_secs(8)).is_empty());
        let exp = t.expire(SimTime::from_secs(9));
        assert_eq!(exp.len(), 1);
        assert_eq!(exp[0].reason, FlowRemovedReason::IdleTimeout);
    }

    #[test]
    fn snapshot_remaining_hard_counts_down() {
        let mut t = FlowTable::default();
        t.apply(&add(Match::any(), 5, 1).hard_timeout(60), SimTime::ZERO)
            .unwrap();
        let snaps = t.snapshot_matching(&Match::any(), PortNo::None, SimTime::from_secs(18));
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].remaining_hard, Some(42));
        assert_eq!(snaps[0].duration_sec, 18);
    }

    #[test]
    fn snapshot_matching_filters() {
        let mut t = FlowTable::default();
        t.apply(
            &add(Match::eth_dst(MacAddr::from_index(2)), 5, 1),
            SimTime::ZERO,
        )
        .unwrap();
        t.apply(
            &add(Match::eth_dst(MacAddr::from_index(3)), 5, 2),
            SimTime::ZERO,
        )
        .unwrap();
        let all = t.snapshot_matching(&Match::any(), PortNo::None, SimTime::ZERO);
        assert_eq!(all.len(), 2);
        let one = t.snapshot_matching(&Match::any(), PortNo::Phys(2), SimTime::ZERO);
        assert_eq!(one.len(), 1);
        let narrow = t.snapshot_matching(
            &Match::eth_dst(MacAddr::from_index(3)),
            PortNo::None,
            SimTime::ZERO,
        );
        assert_eq!(narrow.len(), 1);
    }

    #[test]
    fn restore_counters_targets_exact_entry() {
        let mut t = FlowTable::default();
        let m = Match::eth_dst(MacAddr::from_index(2));
        t.apply(&add(m.clone(), 5, 1), SimTime::ZERO).unwrap();
        assert!(t.restore_counters(&m, 5, 77, 7700));
        assert!(!t.restore_counters(&m, 6, 0, 0));
        let e = t.iter().next().unwrap();
        assert_eq!((e.packet_count, e.byte_count), (77, 7700));
    }

    #[test]
    fn peek_does_not_count() {
        let mut t = FlowTable::default();
        t.apply(&add(Match::any(), 5, 1), SimTime::ZERO).unwrap();
        assert!(t.peek(&pkt_to(2), PortNo::Phys(1)).is_some());
        assert_eq!(t.stats().lookup_count, 0);
        assert_eq!(t.iter().next().unwrap().packet_count, 0);
    }

    fn tcp_pkt(src: u64, dst: u64, sport: u16, dport: u16) -> Packet {
        Packet::tcp(
            MacAddr::from_index(src),
            MacAddr::from_index(dst),
            Ipv4Addr::from_index(src as u32),
            Ipv4Addr::from_index(dst as u32),
            sport,
            dport,
        )
    }

    #[test]
    fn exact_tier_and_wildcard_tier_agree_on_priority() {
        let mut t = FlowTable::default();
        let p = tcp_pkt(1, 2, 4000, 80);
        // Exact entry at priority 10, overlapping wildcard at 50: wildcard
        // must win even though the exact tier probes first.
        t.apply(
            &add(Match::from_packet(&p, PortNo::Phys(1)), 10, 3),
            SimTime::ZERO,
        )
        .unwrap();
        t.apply(
            &add(Match::eth_dst(MacAddr::from_index(2)), 50, 4),
            SimTime::ZERO,
        )
        .unwrap();
        let hit = t.lookup(&p, PortNo::Phys(1), SimTime::ZERO).unwrap();
        assert_eq!(hit.priority, 50);
        // Drop the wildcard: the exact entry takes over.
        t.apply(
            &FlowMod::delete_strict(Match::eth_dst(MacAddr::from_index(2)), 50),
            SimTime::ZERO,
        )
        .unwrap();
        let hit = t.lookup(&p, PortNo::Phys(1), SimTime::ZERO).unwrap();
        assert_eq!(hit.priority, 10);
        // A same-priority wildcard inserted later loses the seq tiebreak.
        t.apply(
            &add(Match::eth_dst(MacAddr::from_index(2)), 10, 5),
            SimTime::ZERO,
        )
        .unwrap();
        let hit = t.lookup(&p, PortNo::Phys(1), SimTime::ZERO).unwrap();
        assert_eq!(hit.actions, vec![Action::Output(PortNo::Phys(3))]);
    }

    #[test]
    fn snapshot_saturates_past_u32_max_seconds() {
        // Regression: `duration_sec` and the `remaining_hard` subtrahend
        // used to truncate with `as u32` once the sim clock passed
        // u32::MAX seconds, wrapping durations back toward zero.
        let mut t = FlowTable::default();
        t.apply(&add(Match::any(), 5, 1).hard_timeout(60), SimTime::ZERO)
            .unwrap();
        let far = SimTime::from_secs(u64::from(u32::MAX) + 100);
        let snaps = t.snapshot_matching(&Match::any(), PortNo::None, far);
        assert_eq!(snaps[0].duration_sec, u32::MAX, "saturates, not wraps");
        assert_eq!(snaps[0].remaining_hard, Some(0));
    }

    #[test]
    fn expire_early_returns_before_watermark() {
        let mut t = FlowTable::default();
        // No timeouts anywhere: no deadline, expire never scans.
        t.apply(&add(Match::any(), 5, 1), SimTime::ZERO).unwrap();
        assert!(t.expire(SimTime::from_secs(1_000_000)).is_empty());
        assert_eq!(t.len(), 1);
        // A timeout sets the watermark; traffic moves the true idle deadline
        // later than the stale watermark, which must still never expire the
        // entry early.
        t.apply(&add(Match::any(), 9, 1).idle_timeout(10), SimTime::ZERO)
            .unwrap();
        t.lookup(&pkt_to(2), PortNo::Phys(1), SimTime::from_secs(8));
        assert!(t.expire(SimTime::from_secs(12)).is_empty());
        assert_eq!(t.len(), 2);
        let exp = t.expire(SimTime::from_secs(18));
        assert_eq!(exp.len(), 1);
        assert_eq!(exp[0].reason, FlowRemovedReason::IdleTimeout);
    }

    #[test]
    fn codec_roundtrip_preserves_behaviour_and_bytes() {
        let mut t = FlowTable::with_capacity(100);
        let p = tcp_pkt(1, 2, 4000, 80);
        t.apply(
            &add(Match::from_packet(&p, PortNo::Phys(1)), 10, 3).idle_timeout(30),
            SimTime::ZERO,
        )
        .unwrap();
        t.apply(
            &add(Match::eth_dst(MacAddr::from_index(7)), 5, 2),
            SimTime::ZERO,
        )
        .unwrap();
        t.lookup(&p, PortNo::Phys(1), SimTime::from_secs(1));
        let bytes = legosdn_codec::to_bytes(&t).unwrap();
        let mut back: FlowTable = legosdn_codec::from_bytes(&bytes).unwrap();
        // The rebuilt index must encode identically and behave identically.
        assert_eq!(legosdn_codec::to_bytes(&back).unwrap(), bytes);
        assert_eq!(back.len(), t.len());
        assert_eq!(back.stats(), t.stats());
        let (a, b) = (
            t.lookup(&p, PortNo::Phys(1), SimTime::from_secs(2))
                .cloned(),
            back.lookup(&p, PortNo::Phys(1), SimTime::from_secs(2))
                .cloned(),
        );
        assert_eq!(a, b);
        // Adds after decode continue the seq stream, not restart it.
        t.apply(&add(Match::any(), 5, 9), SimTime::ZERO).unwrap();
        back.apply(&add(Match::any(), 5, 9), SimTime::ZERO).unwrap();
        assert_eq!(
            legosdn_codec::to_bytes(&t).unwrap(),
            legosdn_codec::to_bytes(&back).unwrap()
        );
    }

    #[test]
    fn exact_delete_still_catches_subsumed_wildcard_oddities() {
        // An exact match subsumes a same-network non-/32-prefix entry; the
        // indexed fast path must not lose it to the wildcard tier.
        let mut t = FlowTable::default();
        let p = tcp_pkt(1, 2, 4000, 80);
        let exact = Match::from_packet(&p, PortNo::Phys(1));
        let mut odd = exact.clone();
        odd.ip_dst = odd.ip_dst.map(|(net, _)| (net, 40)); // masks like /32
        assert!(odd.exact_key().is_none());
        assert!(exact.subsumes(&odd));
        t.apply(&add(exact.clone(), 5, 1), SimTime::ZERO).unwrap();
        t.apply(&add(odd, 7, 2), SimTime::ZERO).unwrap();
        let out = t
            .apply(&FlowMod::delete(exact.clone()), SimTime::ZERO)
            .unwrap();
        assert_eq!(out.displaced.len(), 2, "both tiers displaced");
        // Displaced snapshots arrive in table order: priority 7 first.
        assert_eq!(out.displaced[0].priority, 7);
        assert_eq!(out.displaced[1].priority, 5);
        assert!(t.is_empty());
    }
}
