//! Property tests for Crash-Pad: the recovery protocol preserves app-state
//! semantics for arbitrary event streams and crash points; the policy
//! language round-trips; the checkpoint store's plans are always
//! consistent with what was delivered.

use legosdn_codec::Codec;
use legosdn_controller::app::{Ctx, RestoreError, SdnApp, Snapshot};
use legosdn_controller::event::{Event, EventKind};
use legosdn_controller::sandbox::Sandbox;
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_crashpad::{
    CheckpointPolicy, CompromisePolicy, CrashPad, CrashPadConfig, DispatchResult, PolicyTable,
    TransformDirection,
};
use legosdn_netsim::SimTime;
use legosdn_openflow::prelude::DatapathId;
use legosdn_testkit::{forall, Rng};

/// An app whose state is the exact multiset of event kinds it has
/// processed; crashes on SwitchDown events carrying a poisoned dpid.
#[derive(Default)]
struct Ledger {
    state: LedgerState,
    poison: u64,
}

#[derive(Clone, Debug, Default, PartialEq, Codec)]
struct LedgerState {
    switch_ups: Vec<u64>,
    switch_downs: Vec<u64>,
    ticks: u64,
}

impl SdnApp for Ledger {
    fn name(&self) -> &str {
        "ledger"
    }
    fn subscriptions(&self) -> Vec<EventKind> {
        EventKind::ALL.to_vec()
    }
    fn on_event(&mut self, event: &Event, _ctx: &mut Ctx<'_>) {
        match event {
            Event::SwitchUp(d) => self.state.switch_ups.push(d.0),
            Event::SwitchDown(d) => {
                if d.0 == self.poison {
                    panic!("poisoned switch-down");
                }
                self.state.switch_downs.push(d.0);
            }
            Event::Tick(_) => self.state.ticks += 1,
            _ => {}
        }
    }
    fn snapshot(&self) -> Snapshot {
        Snapshot::of(&self.state)
    }
    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        self.state = legosdn_controller::snapshot::from_bytes(bytes)
            .map_err(|e| RestoreError(e.to_string()))?;
        Ok(())
    }
}

const POISON: u64 = 666;

#[derive(Clone, Debug)]
enum Step {
    Up(u64),
    Down(u64),
    PoisonDown,
    Tick,
}

fn arb_step(rng: &mut Rng) -> Step {
    match rng.gen_range(0u32..4) {
        0 => Step::Up(rng.gen_range(1u64..20)),
        1 => Step::Down(rng.gen_range(1u64..20)),
        2 => Step::PoisonDown,
        _ => Step::Tick,
    }
}

fn to_event(s: &Step) -> Event {
    match s {
        Step::Up(d) => Event::SwitchUp(DatapathId(*d)),
        Step::Down(d) => Event::SwitchDown(DatapathId(*d)),
        Step::PoisonDown => Event::SwitchDown(DatapathId(POISON)),
        Step::Tick => Event::Tick(SimTime::ZERO),
    }
}

/// Expected state: the poisoned events simply never happened (Absolute).
fn expected_state(steps: &[Step]) -> LedgerState {
    let mut st = LedgerState::default();
    for s in steps {
        match s {
            Step::Up(d) => st.switch_ups.push(*d),
            Step::Down(d) => st.switch_downs.push(*d),
            Step::PoisonDown => {}
            Step::Tick => st.ticks += 1,
        }
    }
    st
}

fn ledger_state(sandbox: &Sandbox) -> LedgerState {
    legosdn_controller::snapshot::from_bytes(&sandbox.capture().unwrap().flat()).unwrap()
}

/// THE Crash-Pad theorem under Absolute Compromise: for any event
/// stream with arbitrary crash points and any checkpoint interval, the
/// app ends in exactly the state of the stream with the poisoned
/// events removed, and is always alive at the end.
#[test]
fn recovery_equals_stream_without_poison() {
    forall(128, |rng| {
        let steps = rng.gen_vec(1..40, arb_step);
        let interval = rng.gen_range(1u64..10);
        let mut pad = CrashPad::new(CrashPadConfig {
            checkpoints: CheckpointPolicy {
                interval,
                history: 8,
                ..CheckpointPolicy::default()
            },
            policies: PolicyTable::with_default(CompromisePolicy::Absolute),
            transform_direction: TransformDirection::Decompose,
        });
        let mut sandbox = Sandbox::new(Box::new(Ledger {
            poison: POISON,
            ..Ledger::default()
        }));
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        for s in &steps {
            let ev = to_event(s);
            let result = pad.dispatch(&mut sandbox, "ledger", &ev, &topo, &dev, SimTime::ZERO);
            let recovered = matches!(result, DispatchResult::Recovered { .. });
            let delivered = matches!(result, DispatchResult::Delivered(_));
            match s {
                Step::PoisonDown => assert!(recovered, "poison must recover"),
                _ => assert!(delivered, "clean event must deliver"),
            }
        }
        assert!(!sandbox.is_dead());
        assert_eq!(ledger_state(&sandbox), expected_state(&steps));
    });
}

/// Under No-Compromise the first poisoned event kills the app and the
/// state freezes at the prefix before it.
#[test]
fn no_compromise_freezes_at_first_poison() {
    forall(128, |rng| {
        let steps = rng.gen_vec(1..30, arb_step);
        let mut pad = CrashPad::new(CrashPadConfig {
            checkpoints: CheckpointPolicy::default(),
            policies: PolicyTable::with_default(CompromisePolicy::NoCompromise),
            transform_direction: TransformDirection::Decompose,
        });
        let mut sandbox = Sandbox::new(Box::new(Ledger {
            poison: POISON,
            ..Ledger::default()
        }));
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        let mut died = false;
        let mut survivors: Vec<Step> = Vec::new();
        for s in &steps {
            let ev = to_event(s);
            let result = pad.dispatch(&mut sandbox, "ledger", &ev, &topo, &dev, SimTime::ZERO);
            if matches!(result, DispatchResult::AppDead { .. }) {
                died = true;
                break;
            }
            if matches!(result, DispatchResult::Delivered(_)) {
                survivors.push(s.clone());
            }
        }
        let has_poison = steps.iter().any(|s| matches!(s, Step::PoisonDown));
        assert_eq!(died, has_poison);
    });
}

/// Ticket count equals the number of poisoned events dispatched.
#[test]
fn one_ticket_per_failure() {
    forall(128, |rng| {
        let steps = rng.gen_vec(1..40, arb_step);
        let mut pad = CrashPad::new(CrashPadConfig {
            checkpoints: CheckpointPolicy::default(),
            policies: PolicyTable::with_default(CompromisePolicy::Absolute),
            transform_direction: TransformDirection::Decompose,
        });
        let mut sandbox = Sandbox::new(Box::new(Ledger {
            poison: POISON,
            ..Ledger::default()
        }));
        let topo = TopologyView::default();
        let dev = DeviceView::default();
        for s in &steps {
            pad.dispatch(
                &mut sandbox,
                "ledger",
                &to_event(s),
                &topo,
                &dev,
                SimTime::ZERO,
            );
        }
        let poisons = steps
            .iter()
            .filter(|s| matches!(s, Step::PoisonDown))
            .count();
        assert_eq!(pad.tickets.len(), poisons);
        assert_eq!(pad.stats().failures, poisons as u64);
    });
}

/// The policy language round-trips through its own syntax.
#[test]
fn policy_table_parse_roundtrip() {
    forall(128, |rng| {
        let default_idx = rng.gen_range(0usize..3);
        let apps = rng.gen_vec(0..5, |r| (r.gen_name(1..9), r.gen_range(0usize..3)));
        let policies = [
            CompromisePolicy::Absolute,
            CompromisePolicy::NoCompromise,
            CompromisePolicy::Equivalence,
        ];
        let mut text = format!("default {}\n", policies[default_idx]);
        for (name, idx) in &apps {
            text.push_str(&format!("app {} use {}\n", name, policies[*idx]));
        }
        let table = PolicyTable::parse(&text).unwrap();
        assert_eq!(table.default, policies[default_idx]);
        for (name, idx) in &apps {
            // Later duplicate lines win, matching map-insert semantics:
            // find the LAST entry for this name.
            let last = apps.iter().rev().find(|(n, _)| n == name).unwrap();
            assert_eq!(table.lookup(name, EventKind::PacketIn), policies[last.1]);
            let _ = idx;
        }
    });
}
