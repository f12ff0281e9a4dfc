//! An idle channel-only stub host sleeps until it is rung (DESIGN.md
//! §11): a worker whose stubs all carry its waker has no timer behind the
//! wake rule, so with nothing sent it does not wake at all. The count is
//! the host thread's voluntary context switches, which a park-and-time-out
//! loop adds to on every expiry.
//!
//! One test in a binary of its own: the count is read by thread name, and
//! no other stub host may run beside it.

use legosdn_appvisor::{AppVisorProxy, IoMode, ProxyConfig, TransportKind};
use legosdn_controller::app::{Ctx, RestoreError, SdnApp, Snapshot};
use legosdn_controller::event::{Event, EventKind};
use std::time::Duration;

/// An app that does nothing: only its stub's host is measured.
struct Quiet;

impl SdnApp for Quiet {
    fn name(&self) -> &str {
        "quiet"
    }
    fn subscriptions(&self) -> Vec<EventKind> {
        vec![EventKind::SwitchUp]
    }
    fn on_event(&mut self, _event: &Event, _ctx: &mut Ctx<'_>) {}
    fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }
    fn restore(&mut self, _bytes: &[u8]) -> Result<(), RestoreError> {
        Ok(())
    }
}

/// The voluntary context switches of the one stub-host thread, read from
/// `/proc/self/task/<tid>/status`.
fn host_voluntary_switches() -> u64 {
    let hosts: Vec<u64> = std::fs::read_dir("/proc/self/task")
        .expect("linux procfs")
        .filter_map(|task| {
            let task = task.ok()?.path();
            // The kernel keeps 15 bytes of a thread's name.
            let comm = std::fs::read_to_string(task.join("comm")).ok()?;
            if !comm.starts_with("appvisor-stubho") {
                return None;
            }
            let status = std::fs::read_to_string(task.join("status")).ok()?;
            let line = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?;
            line.trim().parse().ok()
        })
        .collect();
    assert_eq!(hosts.len(), 1, "exactly one stub-host thread runs");
    hosts[0]
}

#[test]
fn an_idle_channel_host_does_not_wake() {
    let mut p = AppVisorProxy::new(ProxyConfig {
        io: IoMode { io_threads: 1 },
        ..ProxyConfig::default()
    });
    let h = p
        .launch_app(Box::new(Quiet), TransportKind::Channel)
        .expect("launch");
    // One round trip, so the host has served something and parked since.
    p.snapshot(h).expect("snapshot");
    std::thread::sleep(Duration::from_millis(20));
    let before = host_voluntary_switches();
    std::thread::sleep(Duration::from_millis(500));
    let woke = host_voluntary_switches() - before;
    assert!(woke <= 2, "an idle host woke {woke} times in 500 ms");
    assert_eq!(p.shutdown().len(), 1);
}
