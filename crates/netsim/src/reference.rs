//! The retained linear-scan flow table.
//!
//! [`LinearFlowTable`] is the pre-index implementation of
//! [`FlowTable`](crate::FlowTable), kept verbatim as an executable
//! specification: every operation is a straight scan over the
//! priority-sorted `Vec<FlowEntry>`, with no tiers, no hash index, and no
//! expiry watermark. The equivalence suite
//! (`tests/flow_table_equivalence.rs`) depends on it staying alive: it
//! drives random flow-mod/packet/expire sequences, and a 4096-entry table
//! under a skewed lookup stream, through both tables and asserts identical
//! lookups, outcomes, stats, expirations, and encodings.
//!
//! It shares [`FlowEntry`], [`FlowModOutcome`], and [`ExpiredFlow`] with the
//! indexed table, and its `#[derive(Codec)]` emits the same five fields in
//! the same order as the indexed table's manual impl, so equal logical state
//! produces byte-identical encodings.

use crate::clock::SimTime;
use crate::flow_table::{ExpiredFlow, FlowEntry, FlowModOutcome};
use legosdn_codec::Codec;
use legosdn_openflow::error::{ErrorCode, ErrorType};
use legosdn_openflow::messages::{
    ErrorMsg, FlowEntrySnapshot, FlowMod, FlowModCommand, FlowRemovedReason, TableStats,
};
use legosdn_openflow::prelude::{Match, Packet, PortNo};

/// A single-table OpenFlow 1.0 flow table, linear-scan edition.
#[derive(Clone, Debug, Default, Codec)]
pub struct LinearFlowTable {
    entries: Vec<FlowEntry>,
    next_seq: u64,
    max_entries: usize,
    lookup_count: u64,
    matched_count: u64,
}

impl LinearFlowTable {
    /// A table bounded at `max_entries` (0 means unbounded).
    #[must_use]
    pub fn with_capacity(max_entries: usize) -> Self {
        LinearFlowTable {
            max_entries,
            ..LinearFlowTable::default()
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
        if fm.check_overlap
            && self.entries.iter().any(|e| {
                e.priority == fm.priority
                    && e.mat != fm.mat
                    && (e.mat.subsumes(&fm.mat) || fm.mat.subsumes(&e.mat))
            })
        {
            return Err(ErrorMsg {
                err_type: ErrorType::FlowModFailed,
                code: ErrorCode::Overlap,
                data: Vec::new(),
            });
        }
        let mut outcome = FlowModOutcome::default();
        // An add replaces an identical match+priority entry without
        // generating a flow-removed (OF 1.0 §4.6).
        if let Some(pos) = self
            .entries
            .iter()
            .position(|e| e.priority == fm.priority && e.mat == fm.mat)
        {
            let old = self.entries.remove(pos);
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
        let entry = FlowEntry {
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
        };
        // Keep sorted: priority desc, then insertion order.
        let pos = self
            .entries
            .iter()
            .position(|e| e.priority < entry.priority)
            .unwrap_or(self.entries.len());
        self.entries.insert(pos, entry);
        Ok(outcome)
    }

    fn modify(
        &mut self,
        fm: &FlowMod,
        now: SimTime,
        strict: bool,
    ) -> Result<FlowModOutcome, ErrorMsg> {
        let mut outcome = FlowModOutcome::default();
        let mut touched = false;
        for e in &mut self.entries {
            let hit = if strict {
                e.priority == fm.priority && e.mat == fm.mat
            } else {
                fm.mat.subsumes(&e.mat)
            };
            if hit {
                outcome.displaced.push(e.snapshot(now));
                e.actions = fm.actions.clone();
                e.cookie = fm.cookie;
                touched = true;
            }
        }
        if !touched {
            // OF 1.0: a modify that matches nothing behaves like an add.
            return self.add(fm, now);
        }
        Ok(outcome)
    }

    fn delete(&mut self, fm: &FlowMod, now: SimTime, strict: bool) -> FlowModOutcome {
        let mut outcome = FlowModOutcome::default();
        let out_port = fm.out_port;
        self.entries.retain(|e| {
            let hit = if strict {
                e.priority == fm.priority && e.mat == fm.mat
            } else {
                fm.mat.subsumes(&e.mat)
            };
            let hit = hit && (out_port == PortNo::None || e.outputs_to(out_port));
            if hit {
                let snap = e.snapshot(now);
                if e.send_flow_removed {
                    outcome.notify_removed.push(snap.clone());
                }
                outcome.displaced.push(snap);
            }
            !hit
        });
        outcome
    }

    /// Match `pkt` arriving on `in_port`, updating counters on hit.
    pub fn lookup(&mut self, pkt: &Packet, in_port: PortNo, now: SimTime) -> Option<&FlowEntry> {
        self.lookup_count += 1;
        let wire_len = u64::from(pkt.wire_len());
        for e in &mut self.entries {
            if e.mat.matches(pkt, in_port) {
                e.packet_count += 1;
                e.byte_count += wire_len;
                e.last_matched = now;
                self.matched_count += 1;
                return Some(e);
            }
        }
        None
    }

    /// Match without mutating counters.
    #[must_use]
    pub fn peek(&self, pkt: &Packet, in_port: PortNo) -> Option<&FlowEntry> {
        self.entries.iter().find(|e| e.mat.matches(pkt, in_port))
    }

    /// Expire idle and hard timeouts as of `now` — always a full scan.
    pub fn expire(&mut self, now: SimTime) -> Vec<ExpiredFlow> {
        let mut expired = Vec::new();
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
                false
            } else {
                true
            }
        });
        expired
    }

    /// Snapshot entries subsumed by `mat` (and forwarding to `out_port`, if
    /// not `None`).
    #[must_use]
    pub fn snapshot_matching(
        &self,
        mat: &Match,
        out_port: PortNo,
        now: SimTime,
    ) -> Vec<FlowEntrySnapshot> {
        self.entries
            .iter()
            .filter(|e| mat.subsumes(&e.mat))
            .filter(|e| out_port == PortNo::None || e.outputs_to(out_port))
            .map(|e| e.snapshot(now))
            .collect()
    }

    /// Restore counters onto an entry.
    pub fn restore_counters(
        &mut self,
        mat: &Match,
        priority: u16,
        packets: u64,
        bytes: u64,
    ) -> bool {
        for e in &mut self.entries {
            if e.priority == priority && e.mat == *mat {
                e.packet_count = packets;
                e.byte_count = bytes;
                return true;
            }
        }
        false
    }
}
