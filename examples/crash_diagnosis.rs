//! STS-guided crash diagnosis (paper §5): after Crash-Pad survives a
//! crash, `diagnose()` searches the checkpoint history for the snapshot
//! from which the failure reproduces and delta-debugs the event suffix
//! down to the minimal causal sequence — the triage material attached to
//! the problem ticket.
//!
//! ```sh
//! cargo run --example crash_diagnosis
//! ```

use legosdn::controller::app::{Ctx, RestoreError, SdnApp, Snapshot};
use legosdn::crashpad::{CheckpointPolicy, CrashPadConfig, PolicyTable, TransformDirection};
use legosdn::prelude::*;

/// A "counter leak" bug: the app mishandles link-downs, and after three of
/// them any switch-down crashes it — a failure induced by a *cumulation*
/// of events, the case §5 calls out as beyond single-checkpoint recovery.
#[derive(Default)]
struct LeakyApp {
    leaked: u32,
}

impl SdnApp for LeakyApp {
    fn name(&self) -> &str {
        "leaky"
    }
    fn subscriptions(&self) -> Vec<EventKind> {
        EventKind::ALL.to_vec()
    }
    fn on_event(&mut self, event: &Event, _ctx: &mut Ctx<'_>) {
        match event {
            Event::LinkDown { .. } => self.leaked += 1,
            Event::SwitchDown(_) if self.leaked >= 3 => {
                panic!("leak overflow: {} stale link records", self.leaked)
            }
            _ => {}
        }
    }
    fn snapshot(&self) -> Snapshot {
        self.leaked.to_be_bytes().to_vec().into()
    }
    fn restore(&mut self, b: &[u8]) -> Result<(), RestoreError> {
        self.leaked = u32::from_be_bytes(b.try_into().map_err(|_| RestoreError("len".into()))?);
        Ok(())
    }
}

fn main() {
    std::panic::set_hook(Box::new(|_| {})); // contained crashes stay quiet

    let topo = Topology::ring(5, 1);
    let mut net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
        crashpad: CrashPadConfig {
            // A sparse checkpoint interval: the leaks and the crash all land
            // in one window, so the reproducing snapshot predates the leaks
            // and ddmin must pick the link-downs out of the noisy suffix.
            checkpoints: CheckpointPolicy {
                interval: 64,
                history: 32,
                archive: 512,
            },
            policies: PolicyTable::with_default(CompromisePolicy::Absolute),
            transform_direction: TransformDirection::Decompose,
        },
        ..LegoSdnConfig::default()
    });
    let app = rt.attach(Box::new(LeakyApp::default())).unwrap();
    rt.run_cycle(&mut net);

    // Three link flaps leak state; the later switch-down blows up.
    for round in 0..3 {
        net.set_link_up(round, false).unwrap();
        rt.run_cycle(&mut net);
        net.set_link_up(round, true).unwrap();
        rt.run_cycle(&mut net);
    }
    net.set_switch_up(DatapathId(3), false).unwrap();
    rt.run_cycle(&mut net);

    let ticket = rt
        .crashpad()
        .tickets
        .iter()
        .last()
        .expect("a crash was survived");
    println!("--- ticket ---\n{}", ticket.render());

    let offending = ticket.offending_event.clone();
    match rt.diagnose(app, &offending, net.now()) {
        Ok(d) => {
            println!("--- diagnosis ---");
            println!(
                "reproducing checkpoint: {} back from latest",
                d.checkpoints_back
            );
            println!(
                "suffix replayed: {} events, ddmin replays: {}",
                d.suffix_len, d.replays
            );
            println!("minimal causal sequence ({} events):", d.minimal.len());
            for (i, ev) in d.minimal.iter().enumerate() {
                println!("  {}. {:?}", i + 1, ev.kind());
            }
            println!(
                "\nreading: the crash needs the {} prior link-downs plus the",
                d.minimal.len() - 1
            );
            println!("switch-down — a multi-event bug no single-event replay would find.");
            assert!(
                d.minimal.len() >= 4,
                "diagnosis must surface the cumulative cause"
            );
        }
        Err(e) => println!("diagnosis failed: {e}"),
    }
}
