//! App hosting: uniform [`RecoverableApp`] access to apps in any isolation
//! mode.

use legosdn_appvisor::{AppHandle, AppVisorProxy, DeliverOutcome, ProxyError};
use legosdn_controller::event::Event;
use legosdn_controller::sandbox::Sandbox;
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_crashpad::{DeliveryResult, RecoverableApp};
use legosdn_netsim::SimTime;

/// Where an attached app lives.
pub enum Host {
    /// In-process, behind its sandbox.
    Local(Sandbox),
    /// Behind the AppVisor proxy (hosted stub + transport).
    Isolated(AppHandle),
}

/// Classify a proxy delivery the way Crash-Pad expects: proxy-level
/// errors (unknown handle, transport failure) count as communication
/// failures — the paper's primary crash signal. Shared by the blocking
/// [`ProxyAdapter::deliver`] path (recovery replay, the reference) and the
/// engine's queue/collect path so both see identical failure semantics.
pub fn outcome_to_delivery(outcome: Result<DeliverOutcome, ProxyError>) -> DeliveryResult {
    match outcome {
        Ok(DeliverOutcome::Commands(cmds)) => DeliveryResult::Ok(cmds),
        Ok(DeliverOutcome::Crashed { panic_message }) => DeliveryResult::Crashed { panic_message },
        Ok(DeliverOutcome::CommFailure) | Err(_) => DeliveryResult::CommFailure,
    }
}

/// Adapter giving Crash-Pad `RecoverableApp` access to a proxy-hosted app.
pub struct ProxyAdapter<'a> {
    pub proxy: &'a mut AppVisorProxy,
    pub handle: AppHandle,
}

impl RecoverableApp for ProxyAdapter<'_> {
    fn deliver(
        &mut self,
        event: &Event,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> DeliveryResult {
        outcome_to_delivery(
            self.proxy
                .deliver(self.handle, event, topology, devices, now),
        )
    }

    fn snapshot(&mut self) -> Result<Vec<u8>, String> {
        self.proxy.snapshot(self.handle).map_err(|e| e.to_string())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        match self.proxy.restore(self.handle, bytes) {
            Ok(true) => Ok(()),
            Ok(false) => Err("stub rejected the snapshot".into()),
            Err(e) => Err(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_apps::Hub;
    use legosdn_appvisor::{ProxyConfig, TransportKind};
    use legosdn_controller::event::Event;
    use legosdn_openflow::prelude::DatapathId;

    #[test]
    fn proxy_adapter_bridges_deliver_and_checkpointing() {
        let mut proxy = AppVisorProxy::new(ProxyConfig::default());
        let handle = proxy
            .launch_app(Box::new(Hub::new()), TransportKind::Channel)
            .unwrap();
        let mut adapter = ProxyAdapter {
            proxy: &mut proxy,
            handle,
        };
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        // Hub ignores SwitchUp (not subscribed, but delivery still works).
        let r = adapter.deliver(&Event::SwitchUp(DatapathId(1)), &topo, &dev, SimTime::ZERO);
        assert!(matches!(r, DeliveryResult::Ok(_)));
        let snap = adapter.snapshot().unwrap();
        adapter.restore(&snap).unwrap();
        let _ = proxy.shutdown();
    }
}
