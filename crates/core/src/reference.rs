//! The sequential reference dispatcher: one blocking Crash-Pad round-trip
//! per (event, app), in translation order and attach order, on the
//! calling thread.
//!
//! This is the oracle the determinism suites compare the window engine
//! against (a runtime built with
//! [`LegoSdnRuntime::oracle`] runs it) — the counterpart of
//! `netsim::reference::LinearFlowTable`.
//! It pulls from the same [`Feed`](super::Feed) as the engine, with
//! every slot committed before the next raw is asked for, so the two pop,
//! translate and sample identically and differ only in how a slot reaches
//! the apps.

use super::{LegoSdnRuntime, Pull};
use crate::engine::{select_app, settle, AppCtx, CommitLane, WindowSlot, TXS_PER_POS};
use legosdn_netlog::TxId;
use legosdn_netsim::Network;

impl LegoSdnRuntime {
    /// Dispatch everything the feed yields this cycle.
    pub(super) fn run_reference(&mut self, net: &mut Network) {
        let mut tx_event_base = self.txid_cursor;
        let mut slots: Vec<WindowSlot> = Vec::new();
        loop {
            for slot in slots.drain(..) {
                self.obs.trace_scope(slot.trace);
                for global in 0..self.roster.apps.len() {
                    let tx = TxId(tx_event_base + global as u64 * TXS_PER_POS);
                    self.dispatch_to_app(net, global, &slot, tx);
                }
                self.obs.trace_scope(None);
                tx_event_base += self.roster.apps.len() as u64 * TXS_PER_POS;
            }
            if self.feed.pull(net, true, |slot| slots.push(slot)) == Pull::End {
                return;
            }
        }
    }

    /// Select, deliver under Crash-Pad and settle one (event, app)
    /// position, whose first transaction id is `tx`.
    fn dispatch_to_app(&mut self, net: &mut Network, global: usize, slot: &WindowSlot, tx: TxId) {
        let mut cx = AppCtx {
            roster: &mut self.roster,
            stats: &mut self.stats,
            obs: &self.obs,
            metrics: &self.metrics,
            shutdown_on_no_compromise: self.config.shutdown_network_on_no_compromise,
        };
        if !select_app(&mut cx, global, slot.event.kind()) {
            return;
        }
        let result = cx.roster.with_app(global, |crashpad, app, _, name| {
            crashpad.dispatch(
                app,
                name,
                &slot.event,
                &slot.topology,
                &slot.devices,
                slot.now,
            )
        });
        let mut lane = CommitLane {
            net,
            netlog: &mut self.netlog,
            open: None,
        };
        settle(&mut cx, &mut lane, global, slot, result, tx);
    }
}
