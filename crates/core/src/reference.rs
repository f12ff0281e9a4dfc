//! The sequential reference dispatcher: one blocking Crash-Pad round-trip
//! per (event, app), in translation order and attach order, on the
//! calling thread.
//!
//! This is the oracle the determinism and shard-barrier suites compare
//! the window engine against (a runtime built with
//! [`LegoSdnRuntime::oracle`] runs it) — the counterpart of
//! `netsim::reference::LinearFlowTable`.
//! It pulls from the same [`Feed`](super::Feed) as the engine, with
//! every slot committed before the next raw is asked for, so the two pop,
//! translate and sample identically and differ only in how a slot reaches
//! the apps.

use super::{LegoCycleReport, LegoSdnRuntime, Pull};
use crate::workers::{commit_outcome, select_app, CommitLane, ShardCtx, WindowSlot, TXS_PER_POS};
use legosdn_crashpad::DispatchResult;
use legosdn_netsim::Network;

/// A [`ShardCtx`] over one of `self`'s shards, splitting the borrow so
/// sibling fields (`report`, `netlog`, `feed`) stay usable in the same
/// expression.
macro_rules! shard_cx {
    ($self:ident, $w:expr) => {
        ShardCtx {
            shard: &mut $self.shards[$w],
            stats: &mut $self.stats,
            obs: &$self.obs,
            metrics: &$self.metrics,
            shutdown_on_no_compromise: $self.config.shutdown_network_on_no_compromise,
        }
    };
}

impl LegoSdnRuntime {
    /// Dispatch everything the feed yields this cycle.
    pub(super) fn run_reference(&mut self, net: &mut Network, report: &mut LegoCycleReport) {
        let slot_stride = self.n_apps as u64 * TXS_PER_POS;
        let mut tx_event_base = self.txid_cursor;
        let mut slots: Vec<WindowSlot> = Vec::new();
        loop {
            for slot in slots.drain(..) {
                self.obs.trace_scope(slot.trace);
                self.dispatch_sequential(net, &slot, report, tx_event_base);
                self.obs.trace_scope(None);
                tx_event_base += slot_stride;
            }
            if self.feed.pull(net, true, |slot| slots.push(slot)) == Pull::End {
                return;
            }
        }
    }

    /// One slot through the roster, in attach order.
    fn dispatch_sequential(
        &mut self,
        net: &mut Network,
        slot: &WindowSlot,
        report: &mut LegoCycleReport,
        tx_event_base: u64,
    ) {
        let kind = slot.event.kind();
        for global in 0..self.n_apps {
            let (w, l) = self.loc(global);
            if !select_app(&mut shard_cx!(self, w), l, kind) {
                continue;
            }
            self.dispatch_to_app(net, global, slot, report, tx_event_base);
        }
    }

    /// Crash-Pad protected delivery to one app, then its commit.
    fn dispatch_to_app(
        &mut self,
        net: &mut Network,
        global: usize,
        slot: &WindowSlot,
        report: &mut LegoCycleReport,
        tx_event_base: u64,
    ) {
        let (w, l) = self.loc(global);
        let result = self.shards[w].with_app(l, |crashpad, app, _, name| {
            crashpad.dispatch(
                app,
                name,
                &slot.event,
                &slot.topology,
                &slot.devices,
                slot.now,
            )
        });
        self.commit_on_lane(net, global, slot, result, report, tx_event_base);
    }

    /// Commit one app's outcome: position-derived transaction ids, sticky
    /// notify-flag bookkeeping.
    fn commit_on_lane(
        &mut self,
        net: &mut Network,
        global: usize,
        slot: &WindowSlot,
        result: DispatchResult,
        report: &mut LegoCycleReport,
        tx_event_base: u64,
    ) {
        let (w, l) = self.loc(global);
        let mut lane = CommitLane {
            net,
            netlog: &mut self.netlog,
            notify_seen: false,
        };
        let mut cx = shard_cx!(self, w);
        commit_outcome(
            &mut cx,
            Some(&mut lane),
            l,
            &slot.event,
            result,
            report,
            (&slot.topology, &slot.devices),
            tx_event_base + global as u64 * TXS_PER_POS,
        );
        self.notify_flows_seen |= lane.notify_seen;
    }
}
