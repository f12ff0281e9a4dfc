//! The Crash-Pad dispatch/recovery engine (paper §3.3).
//!
//! For every event: checkpoint the app if due, deliver, and on failure run
//! the recovery protocol — restore the pre-event snapshot, replay the
//! post-checkpoint suffix, then handle the *offending event* per the
//! operator's compromise policy (ignore / transform / let die), filing a
//! problem ticket either way.
//!
//! The engine is agnostic to *where* the app runs: anything implementing
//! [`RecoverableApp`] can be protected. [`LocalSandbox`] wraps an in-process
//! app with panic containment; the LegoSDN runtime provides an
//! AppVisor-proxy-backed implementation for truly isolated apps.

use crate::checkpoint::{CheckpointPolicy, CheckpointStore};
use crate::policy::{CompromisePolicy, PolicyTable};
use crate::ticket::{FailureKind, RecoveryTaken, TicketStore};
use crate::transform::{transform, TransformDirection};
use legosdn_controller::app::{Command, Ctx, SdnApp};
use legosdn_controller::event::Event;
use legosdn_controller::monolithic::panic_text;
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_netsim::SimTime;
use legosdn_obs::{Counter, Histogram, Obs, RecordKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Result of delivering one event to a protected app.
#[derive(Clone, Debug, PartialEq)]
pub enum DeliveryResult {
    /// Processed; here are the app's commands.
    Ok(Vec<Command>),
    /// The app crashed with this panic message.
    Crashed { panic_message: String },
    /// The app stopped responding (isolated apps only).
    CommFailure,
}

/// An app Crash-Pad can protect: deliver / snapshot / restore.
pub trait RecoverableApp {
    /// Deliver one event.
    fn deliver(
        &mut self,
        event: &Event,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> DeliveryResult;

    /// Capture the app's full state.
    fn snapshot(&mut self) -> Result<Vec<u8>, String>;

    /// Restore state (revives a crashed app — the CRIU-restore analogue).
    fn restore(&mut self, bytes: &[u8]) -> Result<(), String>;
}

/// Outcome of a protected dispatch.
#[derive(Clone, Debug, PartialEq)]
pub enum DispatchResult {
    /// Normal delivery.
    Delivered(Vec<Command>),
    /// A failure occurred and was recovered from; `commands` are from the
    /// transformed events (empty when the event was ignored).
    Recovered {
        recovery: RecoveryTaken,
        commands: Vec<Command>,
        ticket: u64,
    },
    /// Policy was No-Compromise (or recovery impossible): the app is dead.
    AppDead { ticket: u64 },
}

impl DispatchResult {
    /// The commands to execute, whatever the path taken.
    #[must_use]
    pub fn commands(&self) -> &[Command] {
        match self {
            DispatchResult::Delivered(c) => c,
            DispatchResult::Recovered { commands, .. } => commands,
            DispatchResult::AppDead { .. } => &[],
        }
    }
}

/// Engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrashPadStats {
    pub events_dispatched: u64,
    pub failures: u64,
    pub byzantine_failures: u64,
    pub recoveries: u64,
    pub events_ignored: u64,
    pub events_transformed: u64,
    pub transform_fallbacks: u64,
    pub apps_let_die: u64,
    pub events_replayed: u64,
    pub replay_failures: u64,
}

/// Crash-Pad configuration.
#[derive(Clone, Debug)]
pub struct CrashPadConfig {
    pub checkpoints: CheckpointPolicy,
    pub policies: PolicyTable,
    pub transform_direction: TransformDirection,
}

impl Default for CrashPadConfig {
    fn default() -> Self {
        CrashPadConfig {
            checkpoints: CheckpointPolicy::default(),
            policies: PolicyTable::default(),
            transform_direction: TransformDirection::Decompose,
        }
    }
}

/// The per-snapshot metric handles, resolved once per [`Obs`] instance so
/// a checkpoint costs atomic adds, not registry lookups.
struct CheckpointMetrics {
    checkpoint_ns: Arc<Histogram>,
    checkpoint_bytes: Arc<Histogram>,
    snapshots_elided: Arc<Counter>,
}

impl CheckpointMetrics {
    fn resolve(obs: &Obs) -> Self {
        CheckpointMetrics {
            checkpoint_ns: obs.histogram("crashpad", "checkpoint_ns", ""),
            checkpoint_bytes: obs.histogram("crashpad", "checkpoint_bytes", ""),
            snapshots_elided: obs.counter("crashpad", "snapshots_elided", ""),
        }
    }
}

/// The Crash-Pad engine.
pub struct CrashPad {
    pub checkpoints: CheckpointStore,
    pub policies: PolicyTable,
    pub tickets: TicketStore,
    pub transform_direction: TransformDirection,
    stats: CrashPadStats,
    obs: Obs,
    metrics: CheckpointMetrics,
}

impl CrashPad {
    /// An engine with the given configuration, reporting to [`Obs::global`].
    #[must_use]
    pub fn new(config: CrashPadConfig) -> Self {
        let obs = Obs::global();
        CrashPad {
            checkpoints: CheckpointStore::new(config.checkpoints),
            policies: config.policies,
            tickets: TicketStore::default(),
            transform_direction: config.transform_direction,
            stats: CrashPadStats::default(),
            metrics: CheckpointMetrics::resolve(&obs),
            obs,
        }
    }

    /// Report metrics and journal records to `obs` instead of the global
    /// instance (isolated tests, side-by-side campaigns).
    pub fn set_obs(&mut self, obs: Obs) {
        self.metrics = CheckpointMetrics::resolve(&obs);
        self.obs = obs;
    }

    /// Engine counters.
    #[must_use]
    pub fn stats(&self) -> CrashPadStats {
        self.stats
    }

    /// Deliver `event` to the app under Crash-Pad protection.
    ///
    /// This is the monolithic form of the protocol: [`CrashPad::prepare`]
    /// (checkpoint), the app's own [`RecoverableApp::deliver`], and
    /// [`CrashPad::complete`] (bookkeeping + recovery), back to back.
    /// Pipelined runtimes call the halves directly so deliveries can
    /// overlap across fault domains between the two.
    pub fn dispatch(
        &mut self,
        app: &mut dyn RecoverableApp,
        name: &str,
        event: &Event,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> DispatchResult {
        self.prepare(app, name);
        let delivery = app.deliver(event, topology, devices, now);
        self.complete(app, name, event, delivery, topology, devices, now)
    }

    /// First half of a protected dispatch: count it and checkpoint the app
    /// if one is due. Must be called exactly once per delivery, *before*
    /// the event reaches the app — the snapshot taken here is what
    /// [`CrashPad::complete`] restores on failure.
    pub fn prepare(&mut self, app: &mut dyn RecoverableApp, name: &str) {
        self.note_dispatch();
        if self.checkpoints.checkpoint_due(name) {
            let started = Instant::now();
            if let Ok(bytes) = app.snapshot() {
                let dur_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.record_prepared(name, bytes, dur_ns);
            }
        }
    }

    /// Count one delivery attempt. [`CrashPad::prepare`] calls this; the
    /// windowed dispatcher calls it separately as each in-flight delivery
    /// is collected, so `events_dispatched` counts deliveries that
    /// actually completed rather than speculative sends.
    pub fn note_dispatch(&mut self) {
        self.stats.events_dispatched += 1;
    }

    /// Book a pre-event snapshot that took `dur_ns` to capture: journal
    /// and histogram the cost, then store (or elide) the bytes. The
    /// windowed dispatcher uses this directly because it captures
    /// snapshots remotely via the stub RPC queue rather than through a
    /// [`RecoverableApp`] handle.
    pub fn record_prepared(&mut self, name: &str, bytes: Vec<u8>, dur_ns: u64) {
        let size = bytes.len() as u64;
        self.obs.record(RecordKind::CheckpointTaken {
            app: name.to_string(),
            bytes: size,
            dur_ns,
        });
        self.metrics.checkpoint_ns.observe(dur_ns);
        self.metrics.checkpoint_bytes.observe(size);
        if !self.checkpoints.record_snapshot(name, bytes) {
            self.metrics.snapshots_elided.inc();
        }
    }

    /// Second half of a protected dispatch: fold the raw delivery outcome
    /// into checkpoint bookkeeping and, on failure, the recovery protocol.
    /// The `app` handle must be the same one [`CrashPad::prepare`]
    /// checkpointed for this delivery.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        app: &mut dyn RecoverableApp,
        name: &str,
        event: &Event,
        delivery: DeliveryResult,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> DispatchResult {
        match delivery {
            DeliveryResult::Ok(commands) => {
                self.checkpoints.record_delivered(name, event);
                DispatchResult::Delivered(commands)
            }
            DeliveryResult::Crashed { panic_message } => {
                self.stats.failures += 1;
                self.obs.trace_event("deliver_fail", name, "crash");
                self.obs.record(RecordKind::AppCrash {
                    app: name.to_string(),
                    detail: panic_message.clone(),
                });
                self.recover(
                    app,
                    name,
                    event,
                    FailureKind::FailStop { panic_message },
                    topology,
                    devices,
                    now,
                )
            }
            DeliveryResult::CommFailure => {
                self.stats.failures += 1;
                self.obs.trace_event("deliver_fail", name, "comm_failure");
                self.obs.record(RecordKind::CommFailure {
                    app: name.to_string(),
                });
                self.recover(
                    app,
                    name,
                    event,
                    FailureKind::CommFailure,
                    topology,
                    devices,
                    now,
                )
            }
        }
    }

    /// Recover from a byzantine failure: the app ran fine but its output
    /// violated invariants (the commands were rejected by the gate before
    /// reaching the network). The app's internal state may assume its
    /// rejected rules exist, so it is rolled back to the pre-event snapshot
    /// and the offending event handled per policy.
    #[allow(clippy::too_many_arguments)]
    pub fn recover_byzantine(
        &mut self,
        app: &mut dyn RecoverableApp,
        name: &str,
        event: &Event,
        violations: usize,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> DispatchResult {
        self.stats.byzantine_failures += 1;
        self.obs.trace_event("deliver_fail", name, "byzantine");
        self.obs.record(RecordKind::ByzantineBlocked {
            app: name.to_string(),
            violations: violations as u64,
        });
        self.recover(
            app,
            name,
            event,
            FailureKind::Byzantine { violations },
            topology,
            devices,
            now,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn recover(
        &mut self,
        app: &mut dyn RecoverableApp,
        name: &str,
        event: &Event,
        failure: FailureKind,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> DispatchResult {
        let policy = self.policies.lookup(name, event.kind());
        let log = vec![
            format!("failure dispatching {:?} to '{name}'", event.kind()),
            format!("policy resolved to {policy}"),
        ];

        if policy == CompromisePolicy::NoCompromise {
            self.stats.apps_let_die += 1;
            self.obs.trace_event("app_dead", name, "let_die");
            self.record_verdict(name, policy, "let_die");
            let ticket = self.tickets.file(
                now,
                name,
                event.clone(),
                failure,
                log,
                RecoveryTaken::LetDie,
            );
            self.obs.record(RecordKind::AppDead {
                app: name.to_string(),
            });
            return DispatchResult::AppDead { ticket };
        }

        // Restore to the pre-event state and replay the suffix.
        if !self.restore_and_replay(app, name, topology, devices, now) {
            // No checkpoint to restore (snapshot never succeeded): dead.
            self.stats.apps_let_die += 1;
            self.obs.trace_event("app_dead", name, "no_checkpoint");
            self.record_verdict(name, policy, "no_checkpoint_let_die");
            let ticket = self.tickets.file(
                now,
                name,
                event.clone(),
                failure,
                log,
                RecoveryTaken::LetDie,
            );
            self.obs.record(RecordKind::AppDead {
                app: name.to_string(),
            });
            return DispatchResult::AppDead { ticket };
        }
        self.stats.recoveries += 1;

        if policy == CompromisePolicy::Equivalence {
            if let Some(equivalents) = transform(event, topology, self.transform_direction) {
                let mut commands = Vec::new();
                let mut all_ok = true;
                for ev in &equivalents {
                    match app.deliver(ev, topology, devices, now) {
                        DeliveryResult::Ok(mut cmds) => {
                            self.checkpoints.record_delivered(name, ev);
                            commands.append(&mut cmds);
                        }
                        _ => {
                            all_ok = false;
                            break;
                        }
                    }
                }
                if all_ok {
                    self.stats.events_transformed += 1;
                    self.obs.trace_event("transform", name, "equivalents_ok");
                    self.record_verdict(name, policy, "transformed");
                    self.obs.record(RecordKind::EventTransformed {
                        app: name.to_string(),
                    });
                    let failure_class = failure_class(&failure);
                    let ticket = self.tickets.file(
                        now,
                        name,
                        event.clone(),
                        failure,
                        log,
                        RecoveryTaken::Transformed,
                    );
                    self.obs.record(RecordKind::TicketFiled {
                        app: name.to_string(),
                        failure: failure_class.to_string(),
                    });
                    return DispatchResult::Recovered {
                        recovery: RecoveryTaken::Transformed,
                        commands,
                        ticket,
                    };
                }
                // The equivalent events crash too: restore once more and
                // fall through to ignoring.
                self.stats.transform_fallbacks += 1;
                let _ = self.restore_and_replay(app, name, topology, devices, now);
            } else {
                self.stats.transform_fallbacks += 1;
            }
        }

        // Absolute compromise: the offending event is dropped on the floor.
        self.stats.events_ignored += 1;
        self.record_verdict(name, policy, "ignored");
        self.obs.record(RecordKind::EventDropped {
            app: name.to_string(),
        });
        let failure_class = failure_class(&failure);
        let ticket = self.tickets.file(
            now,
            name,
            event.clone(),
            failure,
            log,
            RecoveryTaken::Ignored,
        );
        self.obs.record(RecordKind::TicketFiled {
            app: name.to_string(),
            failure: failure_class.to_string(),
        });
        DispatchResult::Recovered {
            recovery: RecoveryTaken::Ignored,
            commands: Vec::new(),
            ticket,
        }
    }

    /// Journal the compromise-policy engine's verdict for an incident.
    fn record_verdict(&self, name: &str, policy: CompromisePolicy, verdict: &str) {
        self.obs.trace_event("policy", name, verdict);
        self.obs.record(RecordKind::PolicyDecision {
            app: name.to_string(),
            policy: policy.to_string(),
            verdict: verdict.to_string(),
        });
        self.obs
            .counter("crashpad", "policy_verdicts", verdict)
            .inc();
    }

    /// Restore the latest checkpoint and replay the delivered-event suffix.
    ///
    /// Commands emitted during replay are **discarded**: they were already
    /// executed against the network the first time around; replay only
    /// rebuilds app-internal state (the §5 checkpoint-every-N mechanism).
    fn restore_and_replay(
        &mut self,
        app: &mut dyn RecoverableApp,
        name: &str,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> bool {
        let Some(plan) = self.checkpoints.recovery_plan(name) else {
            return false;
        };
        let restore_started = Instant::now();
        if app.restore(&plan.snapshot.bytes).is_err() {
            self.obs.trace_event("restore", name, "err");
            return false;
        }
        self.obs.trace_event("restore", name, "ok");
        let restore_ns = u64::try_from(restore_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.obs.record(RecordKind::CheckpointRestored {
            app: name.to_string(),
            bytes: plan.snapshot.bytes.len() as u64,
            dur_ns: restore_ns,
        });
        self.obs
            .histogram("crashpad", "restore_ns", "")
            .observe(restore_ns);
        let replay_started = Instant::now();
        let mut replayed = 0u64;
        for ev in &plan.replay {
            match app.deliver(ev, topology, devices, now) {
                DeliveryResult::Ok(_) => {
                    self.stats.events_replayed += 1;
                    replayed += 1;
                }
                _ => {
                    // A replayed event crashed (non-deterministic bug, or
                    // state divergence). Restore the snapshot again and stop
                    // replaying — the app loses the suffix but lives.
                    self.stats.replay_failures += 1;
                    self.obs.counter("crashpad", "replay_failures", "").inc();
                    if app.restore(&plan.snapshot.bytes).is_err() {
                        return false;
                    }
                    break;
                }
            }
        }
        self.obs
            .trace_event("replay", name, &format!("replayed={replayed}"));
        self.obs.record(RecordKind::ReplayDone {
            app: name.to_string(),
            events_replayed: replayed,
            dur_ns: u64::try_from(replay_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
        true
    }
}

/// Stable export name for a failure kind (matches journal conventions).
fn failure_class(failure: &FailureKind) -> &'static str {
    match failure {
        FailureKind::FailStop { .. } => "fail_stop",
        FailureKind::CommFailure => "comm_failure",
        FailureKind::HeartbeatLoss => "heartbeat_loss",
        FailureKind::Byzantine { .. } => "byzantine",
    }
}

// -------------------------------------------------------------------------
// in-process sandbox
// -------------------------------------------------------------------------

/// An in-process [`RecoverableApp`]: the app runs on the caller's thread
/// with panic containment. After a panic the sandbox is *dead* — further
/// deliveries report [`DeliveryResult::Crashed`] without running the app —
/// until a successful [`RecoverableApp::restore`], mirroring process death
/// and CRIU revival.
pub struct LocalSandbox {
    app: Box<dyn SdnApp>,
    dead: bool,
}

impl LocalSandbox {
    /// Sandbox an app.
    #[must_use]
    pub fn new(app: Box<dyn SdnApp>) -> Self {
        LocalSandbox { app, dead: false }
    }

    /// The app's name.
    #[must_use]
    pub fn name(&self) -> &str {
        self.app.name()
    }

    /// Is the sandboxed app dead?
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Access the wrapped app (for assertions in tests).
    #[must_use]
    pub fn app(&self) -> &dyn SdnApp {
        self.app.as_ref()
    }
}

impl RecoverableApp for LocalSandbox {
    fn deliver(
        &mut self,
        event: &Event,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> DeliveryResult {
        if self.dead {
            return DeliveryResult::Crashed {
                panic_message: "app is dead".into(),
            };
        }
        let mut ctx = Ctx::new(now, topology, devices);
        match catch_unwind(AssertUnwindSafe(|| self.app.on_event(event, &mut ctx))) {
            Ok(()) => DeliveryResult::Ok(ctx.into_commands()),
            Err(payload) => {
                self.dead = true;
                DeliveryResult::Crashed {
                    panic_message: panic_text(&*payload),
                }
            }
        }
    }

    fn snapshot(&mut self) -> Result<Vec<u8>, String> {
        if self.dead {
            return Err("app is dead".into());
        }
        Ok(self.app.snapshot())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.app.restore(bytes).map_err(|e| e.to_string())?;
        self.dead = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CompromisePolicy;
    use legosdn_codec::Codec;
    use legosdn_controller::app::RestoreError;
    use legosdn_controller::event::EventKind;
    use legosdn_netsim::Endpoint;
    use legosdn_openflow::prelude::*;

    /// Counts events; crashes on SwitchDown. Deterministic.
    #[derive(Default)]
    struct Brittle {
        state: BrittleState,
    }

    #[derive(Clone, Debug, Default, Codec)]
    struct BrittleState {
        events: u64,
        link_downs: u64,
    }

    impl SdnApp for Brittle {
        fn name(&self) -> &str {
            "brittle"
        }
        fn subscriptions(&self) -> Vec<EventKind> {
            EventKind::ALL.to_vec()
        }
        fn on_event(&mut self, event: &Event, _ctx: &mut Ctx<'_>) {
            if matches!(event, Event::SwitchDown(_)) {
                panic!("brittle cannot handle switch-down");
            }
            self.state.events += 1;
            if matches!(event, Event::LinkDown { .. }) {
                self.state.link_downs += 1;
            }
        }
        fn snapshot(&self) -> Vec<u8> {
            legosdn_controller::snapshot::to_bytes(&self.state).unwrap()
        }
        fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
            self.state = legosdn_controller::snapshot::from_bytes(bytes)
                .map_err(|e| RestoreError(e.to_string()))?;
            Ok(())
        }
    }

    fn topo2() -> TopologyView {
        let mut t = TopologyView::default();
        t.switch_up(DatapathId(1), vec![]);
        t.switch_up(DatapathId(2), vec![]);
        t.link_up(
            Endpoint::new(DatapathId(1), 1),
            Endpoint::new(DatapathId(2), 1),
        );
        t
    }

    fn pad(policy: CompromisePolicy, interval: u64) -> CrashPad {
        CrashPad::new(CrashPadConfig {
            checkpoints: CheckpointPolicy {
                interval,
                history: 8,
                ..CheckpointPolicy::default()
            },
            policies: PolicyTable::with_default(policy),
            transform_direction: TransformDirection::Decompose,
        })
    }

    fn dispatch(
        pad: &mut CrashPad,
        sandbox: &mut LocalSandbox,
        ev: &Event,
        topo: &TopologyView,
    ) -> DispatchResult {
        let dev = DeviceView::default();
        let name = sandbox.name().to_string();
        pad.dispatch(sandbox, &name, ev, topo, &dev, SimTime::ZERO)
    }

    fn brittle_state(sandbox: &LocalSandbox) -> BrittleState {
        legosdn_controller::snapshot::from_bytes(&sandbox.app().snapshot()).unwrap()
    }

    #[test]
    fn healthy_dispatch_passes_through() {
        let mut pad = pad(CompromisePolicy::Absolute, 1);
        let mut sandbox = LocalSandbox::new(Box::new(Brittle::default()));
        let topo = topo2();
        let r = dispatch(
            &mut pad,
            &mut sandbox,
            &Event::SwitchUp(DatapathId(1)),
            &topo,
        );
        assert!(matches!(r, DispatchResult::Delivered(_)));
        assert_eq!(brittle_state(&sandbox).events, 1);
        assert_eq!(pad.stats().failures, 0);
    }

    #[test]
    fn split_halves_match_monolithic_dispatch() {
        // One pad dispatches monolithically, the other through the
        // prepare / deliver / complete halves; outcomes, stats, and
        // post-recovery app state must be identical.
        let mut mono = pad(CompromisePolicy::Absolute, 1);
        let mut split = pad(CompromisePolicy::Absolute, 1);
        let mut sandbox_a = LocalSandbox::new(Box::new(Brittle::default()));
        let mut sandbox_b = LocalSandbox::new(Box::new(Brittle::default()));
        let topo = topo2();
        let dev = DeviceView::default();
        let events = [
            Event::SwitchUp(DatapathId(1)),
            Event::SwitchDown(DatapathId(1)), // crashes Brittle
            Event::SwitchUp(DatapathId(2)),
        ];
        for ev in &events {
            let a = mono.dispatch(&mut sandbox_a, "brittle", ev, &topo, &dev, SimTime::ZERO);
            split.prepare(&mut sandbox_b, "brittle");
            let delivery = sandbox_b.deliver(ev, &topo, &dev, SimTime::ZERO);
            let b = split.complete(
                &mut sandbox_b,
                "brittle",
                ev,
                delivery,
                &topo,
                &dev,
                SimTime::ZERO,
            );
            assert_eq!(a, b);
        }
        assert_eq!(mono.stats(), split.stats());
        assert_eq!(
            brittle_state(&sandbox_a).events,
            brittle_state(&sandbox_b).events
        );
    }

    #[test]
    fn absolute_compromise_ignores_and_survives() {
        let mut pad = pad(CompromisePolicy::Absolute, 1);
        let mut sandbox = LocalSandbox::new(Box::new(Brittle::default()));
        let topo = topo2();
        dispatch(
            &mut pad,
            &mut sandbox,
            &Event::SwitchUp(DatapathId(1)),
            &topo,
        );
        let r = dispatch(
            &mut pad,
            &mut sandbox,
            &Event::SwitchDown(DatapathId(1)),
            &topo,
        );
        match r {
            DispatchResult::Recovered {
                recovery,
                commands,
                ticket,
            } => {
                assert_eq!(recovery, RecoveryTaken::Ignored);
                assert!(commands.is_empty());
                assert!(pad.tickets.get(ticket).is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!sandbox.is_dead(), "restored and alive");
        // State is pre-crash: exactly one event seen, poison not counted.
        assert_eq!(brittle_state(&sandbox).events, 1);
        // And the app keeps working.
        let r = dispatch(
            &mut pad,
            &mut sandbox,
            &Event::SwitchUp(DatapathId(2)),
            &topo,
        );
        assert!(matches!(r, DispatchResult::Delivered(_)));
        assert_eq!(brittle_state(&sandbox).events, 2);
    }

    #[test]
    fn no_compromise_lets_the_app_die() {
        let mut pad = pad(CompromisePolicy::NoCompromise, 1);
        let mut sandbox = LocalSandbox::new(Box::new(Brittle::default()));
        let topo = topo2();
        let r = dispatch(
            &mut pad,
            &mut sandbox,
            &Event::SwitchDown(DatapathId(1)),
            &topo,
        );
        assert!(matches!(r, DispatchResult::AppDead { .. }));
        assert!(sandbox.is_dead());
        assert_eq!(pad.stats().apps_let_die, 1);
    }

    #[test]
    fn equivalence_transforms_switch_down_into_link_downs() {
        let mut pad = pad(CompromisePolicy::Equivalence, 1);
        let mut sandbox = LocalSandbox::new(Box::new(Brittle::default()));
        let topo = topo2();
        let r = dispatch(
            &mut pad,
            &mut sandbox,
            &Event::SwitchDown(DatapathId(1)),
            &topo,
        );
        match r {
            DispatchResult::Recovered { recovery, .. } => {
                assert_eq!(recovery, RecoveryTaken::Transformed);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Brittle handles LinkDown fine: it saw the equivalent event.
        let st = brittle_state(&sandbox);
        assert_eq!(st.link_downs, 1, "switch 1 had one link");
        assert_eq!(pad.stats().events_transformed, 1);
    }

    #[test]
    fn equivalence_falls_back_to_ignore_when_no_equivalent() {
        let mut pad = pad(CompromisePolicy::Equivalence, 1);
        // Tick has no equivalent; Brittle crashes on SwitchDown only — use
        // an app that crashes on Tick.
        struct TickBomb;
        impl SdnApp for TickBomb {
            fn name(&self) -> &str {
                "tickbomb"
            }
            fn subscriptions(&self) -> Vec<EventKind> {
                EventKind::ALL.to_vec()
            }
            fn on_event(&mut self, event: &Event, _ctx: &mut Ctx<'_>) {
                if matches!(event, Event::Tick(_)) {
                    panic!("tick bomb");
                }
            }
            fn snapshot(&self) -> Vec<u8> {
                vec![]
            }
            fn restore(&mut self, _: &[u8]) -> Result<(), RestoreError> {
                Ok(())
            }
        }
        let mut sandbox = LocalSandbox::new(Box::new(TickBomb));
        let topo = topo2();
        let dev = DeviceView::default();
        let r = pad.dispatch(
            &mut sandbox,
            "tickbomb",
            &Event::Tick(SimTime::ZERO),
            &topo,
            &dev,
            SimTime::ZERO,
        );
        match r {
            DispatchResult::Recovered { recovery, .. } => {
                assert_eq!(recovery, RecoveryTaken::Ignored);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(pad.stats().transform_fallbacks, 1);
        assert!(!sandbox.is_dead());
    }

    #[test]
    fn checkpoint_every_n_replays_suffix() {
        let mut pad = pad(CompromisePolicy::Absolute, 5);
        let mut sandbox = LocalSandbox::new(Box::new(Brittle::default()));
        let topo = topo2();
        // 3 healthy events (snapshot taken before the 1st only).
        for i in 0..3 {
            dispatch(
                &mut pad,
                &mut sandbox,
                &Event::SwitchUp(DatapathId(i)),
                &topo,
            );
        }
        assert_eq!(pad.checkpoints.snapshots_taken, 1);
        // Crash: restore to snapshot (state=0 events) + replay 3.
        let r = dispatch(
            &mut pad,
            &mut sandbox,
            &Event::SwitchDown(DatapathId(1)),
            &topo,
        );
        assert!(matches!(r, DispatchResult::Recovered { .. }));
        assert_eq!(pad.stats().events_replayed, 3);
        assert_eq!(
            brittle_state(&sandbox).events,
            3,
            "suffix replay rebuilt state"
        );
    }

    #[test]
    fn deterministic_bug_recurs_and_is_survived_every_time() {
        let mut pad = pad(CompromisePolicy::Absolute, 1);
        let mut sandbox = LocalSandbox::new(Box::new(Brittle::default()));
        let topo = topo2();
        for _ in 0..5 {
            let r = dispatch(
                &mut pad,
                &mut sandbox,
                &Event::SwitchDown(DatapathId(1)),
                &topo,
            );
            assert!(matches!(r, DispatchResult::Recovered { .. }));
        }
        assert_eq!(pad.stats().failures, 5);
        assert_eq!(pad.stats().recoveries, 5);
        assert_eq!(pad.tickets.len(), 5);
        assert!(!sandbox.is_dead());
    }

    #[test]
    fn byzantine_recovery_rolls_app_state_back() {
        let mut pad = pad(CompromisePolicy::Absolute, 1);
        let mut sandbox = LocalSandbox::new(Box::new(Brittle::default()));
        let topo = topo2();
        let dev = DeviceView::default();
        // Healthy event that the GATE rejects (simulated byzantine).
        let ev = Event::SwitchUp(DatapathId(1));
        let r = pad.dispatch(&mut sandbox, "brittle", &ev, &topo, &dev, SimTime::ZERO);
        assert!(matches!(r, DispatchResult::Delivered(_)));
        assert_eq!(brittle_state(&sandbox).events, 1);
        // Pretend its output violated 2 invariants: recover.
        let r = pad.recover_byzantine(&mut sandbox, "brittle", &ev, 2, &topo, &dev, SimTime::ZERO);
        assert!(matches!(r, DispatchResult::Recovered { .. }));
        // State rolled back to before the byzantine event...
        assert_eq!(
            brittle_state(&sandbox).events,
            1,
            "replay rebuilt the pre-crash suffix"
        );
        assert_eq!(pad.stats().byzantine_failures, 1);
    }

    #[test]
    fn per_app_policy_overrides_default() {
        let mut config = CrashPadConfig {
            policies: PolicyTable::with_default(CompromisePolicy::Absolute),
            ..CrashPadConfig::default()
        };
        config
            .policies
            .set_app("brittle", CompromisePolicy::NoCompromise);
        let mut pad = CrashPad::new(config);
        let mut sandbox = LocalSandbox::new(Box::new(Brittle::default()));
        let topo = topo2();
        let r = dispatch(
            &mut pad,
            &mut sandbox,
            &Event::SwitchDown(DatapathId(1)),
            &topo,
        );
        assert!(matches!(r, DispatchResult::AppDead { .. }));
    }

    #[test]
    fn ticket_records_offending_event_and_failure() {
        let mut pad = pad(CompromisePolicy::Absolute, 1);
        let mut sandbox = LocalSandbox::new(Box::new(Brittle::default()));
        let topo = topo2();
        let r = dispatch(
            &mut pad,
            &mut sandbox,
            &Event::SwitchDown(DatapathId(7)),
            &topo,
        );
        let DispatchResult::Recovered { ticket, .. } = r else {
            panic!("expected recovery")
        };
        let t = pad.tickets.get(ticket).unwrap();
        assert_eq!(t.app, "brittle");
        assert!(matches!(t.offending_event, Event::SwitchDown(d) if d == DatapathId(7)));
        assert!(matches!(&t.failure, FailureKind::FailStop { panic_message }
            if panic_message.contains("switch-down")));
    }
}
