//! The Crash-Pad dispatch/recovery engine (paper §3.3).
//!
//! For every event: checkpoint the app if due, deliver, and on failure run
//! the recovery protocol — restore the pre-event snapshot, replay the
//! post-checkpoint suffix, then handle the *offending event* per the
//! operator's compromise policy (ignore / transform / let die), filing a
//! problem ticket either way.
//!
//! The engine is agnostic to *where* the app runs: anything implementing
//! [`RecoverableApp`] can be protected. An in-process app is protected
//! through its [`Sandbox`] (the fault wall); the LegoSDN runtime provides
//! an AppVisor-proxy-backed implementation for truly isolated apps.

use crate::checkpoint::{CheckpointPolicy, CheckpointStore};
use crate::policy::{CompromisePolicy, PolicyTable};
use crate::ticket::{FailureKind, RecoveryTaken, TicketStore};
use crate::transform::{transform, TransformDirection};
use legosdn_controller::app::{Command, Ctx, Snapshot};
use legosdn_controller::event::Event;
use legosdn_controller::sandbox::{DeliverOutcome, Sandbox};
use legosdn_controller::services::{DeviceView, TopologyView};
use legosdn_netsim::SimTime;
use legosdn_obs::{AppId, Counter, Histogram, Obs, RecordKind, Verdict};
use std::sync::Arc;
use std::time::Instant;

/// An app Crash-Pad can protect: deliver / checkpoint / restore.
pub trait RecoverableApp {
    /// Deliver one event.
    fn deliver(
        &mut self,
        event: &Event,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> DeliverOutcome;

    /// The app's full state as one flat copy. Crash-Pad never calls it:
    /// it is [`RecoverableApp::checkpoint`]'s flat twin, kept only for an
    /// implementor outside the workspace.
    fn snapshot(&mut self) -> Result<Vec<u8>, String>;

    /// Capture the app's full state, memoized segments shared: what
    /// Crash-Pad stores before an event. Defaults to the flat bytes.
    fn checkpoint(&mut self) -> Result<Snapshot, String> {
        self.snapshot().map(Snapshot::from)
    }

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

/// The engine's metric handles, resolved once per [`Obs`] instance so a
/// checkpoint or a recovery costs atomic adds, not registry lookups.
struct CrashPadMetrics {
    checkpoint_ns: Arc<Histogram>,
    checkpoint_bytes: Arc<Histogram>,
    snapshots_elided: Arc<Counter>,
    restore_ns: Arc<Histogram>,
    replay_failures: Arc<Counter>,
    /// `policy_verdicts{verdict}`, indexed by [`Verdict`] discriminant.
    verdicts: [Arc<Counter>; 4],
}

impl CrashPadMetrics {
    fn resolve(obs: &Obs) -> Self {
        CrashPadMetrics {
            checkpoint_ns: obs.histogram("crashpad", "checkpoint_ns", ""),
            checkpoint_bytes: obs.histogram("crashpad", "checkpoint_bytes", ""),
            snapshots_elided: obs.counter("crashpad", "snapshots_elided", ""),
            restore_ns: obs.histogram("crashpad", "restore_ns", ""),
            replay_failures: obs.counter("crashpad", "replay_failures", ""),
            verdicts: Verdict::ALL.map(|v| obs.counter("crashpad", "policy_verdicts", v.name())),
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
    metrics: CrashPadMetrics,
}

impl CrashPad {
    /// An engine with the given configuration, reporting to an
    /// [`Obs::disabled`] instance until [`CrashPad::set_obs`] hands it one.
    #[must_use]
    pub fn new(config: CrashPadConfig) -> Self {
        let obs = Obs::disabled();
        CrashPad {
            checkpoints: CheckpointStore::new(config.checkpoints),
            policies: config.policies,
            tickets: TicketStore::default(),
            transform_direction: config.transform_direction,
            stats: CrashPadStats::default(),
            metrics: CrashPadMetrics::resolve(&obs),
            obs,
        }
    }

    /// Report metrics and journal records to `obs`.
    pub fn set_obs(&mut self, obs: Obs) {
        self.metrics = CrashPadMetrics::resolve(&obs);
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
    /// [`CrashPad::complete`] (bookkeeping + recovery), back to back, for
    /// the app this engine's `Obs` knows as `name`. Pipelined runtimes
    /// call the halves directly so deliveries can overlap across fault
    /// domains between the two.
    pub fn dispatch(
        &mut self,
        app: &mut dyn RecoverableApp,
        name: &str,
        event: &Event,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> DispatchResult {
        let id = self.obs.attach_app(name);
        self.prepare(app, id, name);
        let delivery = app.deliver(event, topology, devices, now);
        self.complete(app, id, name, event, delivery, topology, devices, now)
    }

    /// First half of a protected dispatch: checkpoint the app if one is
    /// due. Must be called exactly once per delivery, *before* the event
    /// reaches the app — the snapshot taken here is what
    /// [`CrashPad::complete`] restores on failure. `id` is the app's
    /// [`Obs::attach_app`] id, `name` what its checkpoints, policies and
    /// tickets are filed under.
    pub fn prepare(&mut self, app: &mut dyn RecoverableApp, id: AppId, name: &str) {
        if self.checkpoints.checkpoint_due(name) {
            let started = Instant::now();
            if let Ok(bytes) = app.checkpoint() {
                let dur_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.record_prepared(id, name, bytes, dur_ns);
            }
        }
    }

    /// Book a pre-event snapshot that took `dur_ns` to capture: journal
    /// and histogram the cost, then store (or elide) the bytes. The
    /// windowed dispatcher uses this directly because it captures
    /// snapshots remotely via the stub RPC queue rather than through a
    /// [`RecoverableApp`] handle.
    pub fn record_prepared(&mut self, id: AppId, name: &str, bytes: Snapshot, dur_ns: u64) {
        let size = bytes.len() as u64;
        self.obs.emit(
            Some(id),
            RecordKind::CheckpointTaken {
                bytes: size,
                dur_ns,
            },
        );
        self.metrics.checkpoint_ns.observe(dur_ns);
        self.metrics.checkpoint_bytes.observe(size);
        if !self.checkpoints.record_snapshot(name, bytes) {
            self.metrics.snapshots_elided.inc();
        }
    }

    /// Second half of a protected dispatch: count it, fold the raw
    /// delivery outcome into checkpoint bookkeeping and, on failure,
    /// [`CrashPad::recover`]. The `app` handle must be the same one
    /// [`CrashPad::prepare`] checkpointed for this delivery. A delivery is
    /// counted here, where it is booked, so `events_dispatched` counts
    /// completed deliveries, not speculative sends.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        app: &mut dyn RecoverableApp,
        id: AppId,
        name: &str,
        event: &Event,
        delivery: DeliverOutcome,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> DispatchResult {
        self.stats.events_dispatched += 1;
        let failure = match delivery {
            DeliverOutcome::Commands(commands) => {
                self.checkpoints.record_delivered(name, event);
                return DispatchResult::Delivered(commands);
            }
            DeliverOutcome::Crashed { panic_message } => FailureKind::FailStop { panic_message },
            DeliverOutcome::CommFailure => FailureKind::CommFailure,
        };
        self.recover(app, id, name, event, failure, topology, devices, now)
    }

    /// The one way into recovery, whatever detected `failure`: count it,
    /// journal the detection, apply the compromise policy, and close the
    /// incident with a ticket for a survived failure or the app's death.
    /// A byzantine app ran fine but its output was refused; its state may
    /// assume the refused rules exist, so it is rolled back all the same.
    /// Never returns [`DispatchResult::Delivered`].
    #[allow(clippy::too_many_arguments)]
    pub fn recover(
        &mut self,
        app: &mut dyn RecoverableApp,
        id: AppId,
        name: &str,
        event: &Event,
        failure: FailureKind,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> DispatchResult {
        match failure {
            FailureKind::Byzantine { .. } => self.stats.byzantine_failures += 1,
            _ => self.stats.failures += 1,
        }
        self.obs.emit(Some(id), failure.detection());
        let policy = self.policies.lookup(name, event.kind());
        let log = vec![
            format!("failure dispatching {:?} to '{name}'", event.kind()),
            format!("policy resolved to {policy}"),
        ];
        let (verdict, commands) = if let FailureKind::WorkerLost { .. } = failure {
            // The dispatch engine panicked mid-window, so what the app
            // was last handed, and what it last answered, is unknown: no
            // restore can be trusted to put it back in step.
            (Verdict::LetDie, Vec::new())
        } else {
            self.compromise(app, id, name, event, policy, topology, devices, now)
        };
        self.obs.emit(
            Some(id),
            RecordKind::PolicyDecision {
                policy: policy.name(),
                verdict,
            },
        );
        self.metrics.verdicts[verdict as usize].inc();
        let (recovery, effect) = match verdict {
            Verdict::Ignored => {
                self.stats.events_ignored += 1;
                (RecoveryTaken::Ignored, Some(RecordKind::EventDropped))
            }
            Verdict::Transformed => {
                self.stats.events_transformed += 1;
                (
                    RecoveryTaken::Transformed,
                    Some(RecordKind::EventTransformed),
                )
            }
            Verdict::LetDie | Verdict::NoCheckpointLetDie => {
                self.stats.apps_let_die += 1;
                (RecoveryTaken::LetDie, None)
            }
        };
        if let Some(effect) = effect {
            self.obs.emit(Some(id), effect);
        }
        let closing = match recovery {
            RecoveryTaken::LetDie => RecordKind::AppDead,
            _ => RecordKind::TicketFiled {
                failure: failure.class(),
            },
        };
        let ticket = self
            .tickets
            .file(now, name, event.clone(), failure, log, recovery);
        self.obs.emit(Some(id), closing);
        match recovery {
            RecoveryTaken::LetDie => DispatchResult::AppDead { ticket },
            _ => DispatchResult::Recovered {
                recovery,
                commands,
                ticket,
            },
        }
    }

    /// Apply `policy` to a failed delivery of `event`: let the app die, or
    /// restore it, replay the suffix, and transform or drop the event.
    /// Returns the verdict and the commands of any equivalent events.
    #[allow(clippy::too_many_arguments)]
    fn compromise(
        &mut self,
        app: &mut dyn RecoverableApp,
        id: AppId,
        name: &str,
        event: &Event,
        policy: CompromisePolicy,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> (Verdict, Vec<Command>) {
        if policy == CompromisePolicy::NoCompromise {
            return (Verdict::LetDie, Vec::new());
        }
        // Restore to the pre-event state and replay the suffix.
        if !self.restore_and_replay(app, id, name, topology, devices, now) {
            // No checkpoint to restore (snapshot never succeeded): dead.
            return (Verdict::NoCheckpointLetDie, Vec::new());
        }
        self.stats.recoveries += 1;

        if policy == CompromisePolicy::Equivalence {
            if let Some(equivalents) = transform(event, topology, self.transform_direction) {
                let mut commands = Vec::new();
                let mut all_ok = true;
                for ev in &equivalents {
                    match app.deliver(ev, topology, devices, now) {
                        DeliverOutcome::Commands(mut cmds) => {
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
                    return (Verdict::Transformed, commands);
                }
                // The equivalent events crash too: restore once more and
                // fall through to ignoring.
                self.stats.transform_fallbacks += 1;
                let _ = self.restore_and_replay(app, id, name, topology, devices, now);
            } else {
                self.stats.transform_fallbacks += 1;
            }
        }
        // Absolute compromise: the offending event is dropped on the floor.
        (Verdict::Ignored, Vec::new())
    }

    /// Restore the latest checkpoint and replay the delivered-event suffix.
    ///
    /// Commands emitted during replay are **discarded**: they were already
    /// executed against the network the first time around; replay only
    /// rebuilds app-internal state (the §5 checkpoint-every-N mechanism).
    fn restore_and_replay(
        &mut self,
        app: &mut dyn RecoverableApp,
        id: AppId,
        name: &str,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> bool {
        let Some(plan) = self.checkpoints.recovery_plan(name) else {
            return false;
        };
        let restore_started = Instant::now();
        // Borrowed, not copied, when the checkpoint is one flat run.
        let bytes = plan.snapshot.bytes.flat();
        if app.restore(&bytes).is_err() {
            self.obs.emit(Some(id), RecordKind::Step("restore", "err"));
            return false;
        }
        let restore_ns = u64::try_from(restore_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.obs.emit(
            Some(id),
            RecordKind::CheckpointRestored {
                bytes: bytes.len() as u64,
                dur_ns: restore_ns,
            },
        );
        self.metrics.restore_ns.observe(restore_ns);
        let replay_started = Instant::now();
        let mut replayed = 0u64;
        for ev in &plan.replay {
            match app.deliver(ev, topology, devices, now) {
                DeliverOutcome::Commands(_) => {
                    self.stats.events_replayed += 1;
                    replayed += 1;
                }
                _ => {
                    // A replayed event crashed (non-deterministic bug, or
                    // state divergence). Restore the snapshot again and stop
                    // replaying — the app loses the suffix but lives.
                    self.stats.replay_failures += 1;
                    self.metrics.replay_failures.inc();
                    if app.restore(&bytes).is_err() {
                        return false;
                    }
                    break;
                }
            }
        }
        self.obs.emit(
            Some(id),
            RecordKind::ReplayDone {
                events_replayed: replayed,
                dur_ns: u64::try_from(replay_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            },
        );
        true
    }
}

/// An in-process app; a delivery to a dead one reports what killed it.
impl RecoverableApp for Sandbox {
    fn deliver(
        &mut self,
        event: &Event,
        topology: &TopologyView,
        devices: &DeviceView,
        now: SimTime,
    ) -> DeliverOutcome {
        let mut ctx = Ctx::new(now, topology, devices);
        match self.on_event(event, &mut ctx) {
            Ok(()) => DeliverOutcome::Commands(ctx.into_commands()),
            Err(fault) => DeliverOutcome::Crashed {
                panic_message: fault.into(),
            },
        }
    }

    fn snapshot(&mut self) -> Result<Vec<u8>, String> {
        self.checkpoint().map(|snapshot| snapshot.to_vec())
    }

    fn checkpoint(&mut self) -> Result<Snapshot, String> {
        self.capture().map_err(String::from)
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.revive(bytes).map_err(String::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CompromisePolicy;
    use legosdn_codec::Codec;
    use legosdn_controller::app::{RestoreError, SdnApp};
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
        fn snapshot(&self) -> Snapshot {
            Snapshot::of(&self.state)
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
        sandbox: &mut Sandbox,
        ev: &Event,
        topo: &TopologyView,
    ) -> DispatchResult {
        let dev = DeviceView::default();
        pad.dispatch(sandbox, "brittle", ev, topo, &dev, SimTime::ZERO)
    }

    fn brittle_state(sandbox: &Sandbox) -> BrittleState {
        legosdn_controller::snapshot::from_bytes(&sandbox.capture().unwrap().flat()).unwrap()
    }

    #[test]
    fn healthy_dispatch_passes_through() {
        let mut pad = pad(CompromisePolicy::Absolute, 1);
        let mut sandbox = Sandbox::new(Box::new(Brittle::default()));
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
        let mut sandbox_a = Sandbox::new(Box::new(Brittle::default()));
        let mut sandbox_b = Sandbox::new(Box::new(Brittle::default()));
        let topo = topo2();
        let dev = DeviceView::default();
        let events = [
            Event::SwitchUp(DatapathId(1)),
            Event::SwitchDown(DatapathId(1)), // crashes Brittle
            Event::SwitchUp(DatapathId(2)),
        ];
        for ev in &events {
            let a = mono.dispatch(&mut sandbox_a, "brittle", ev, &topo, &dev, SimTime::ZERO);
            let id = split.obs.attach_app("brittle");
            split.prepare(&mut sandbox_b, id, "brittle");
            let delivery = sandbox_b.deliver(ev, &topo, &dev, SimTime::ZERO);
            let b = split.complete(
                &mut sandbox_b,
                id,
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
        let mut sandbox = Sandbox::new(Box::new(Brittle::default()));
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
        let mut sandbox = Sandbox::new(Box::new(Brittle::default()));
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
        let mut sandbox = Sandbox::new(Box::new(Brittle::default()));
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
            fn snapshot(&self) -> Snapshot {
                Snapshot::default()
            }
            fn restore(&mut self, _: &[u8]) -> Result<(), RestoreError> {
                Ok(())
            }
        }
        let mut sandbox = Sandbox::new(Box::new(TickBomb));
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
        let mut sandbox = Sandbox::new(Box::new(Brittle::default()));
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
        let mut sandbox = Sandbox::new(Box::new(Brittle::default()));
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
        let mut sandbox = Sandbox::new(Box::new(Brittle::default()));
        let topo = topo2();
        let dev = DeviceView::default();
        // Healthy event that the GATE rejects (simulated byzantine).
        let ev = Event::SwitchUp(DatapathId(1));
        let r = pad.dispatch(&mut sandbox, "brittle", &ev, &topo, &dev, SimTime::ZERO);
        assert!(matches!(r, DispatchResult::Delivered(_)));
        assert_eq!(brittle_state(&sandbox).events, 1);
        // Pretend its output violated 2 invariants: recover.
        let id = pad.obs.attach_app("brittle");
        let r = pad.recover(
            &mut sandbox,
            id,
            "brittle",
            &ev,
            FailureKind::Byzantine { violations: 2 },
            &topo,
            &dev,
            SimTime::ZERO,
        );
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
    fn a_lost_worker_kills_its_app_under_any_policy_without_touching_it() {
        for policy in [CompromisePolicy::Absolute, CompromisePolicy::Equivalence] {
            let mut pad = pad(policy, 1);
            let mut sandbox = Sandbox::new(Box::new(Brittle::default()));
            let (topo, dev) = (topo2(), DeviceView::default());
            let ev = Event::SwitchUp(DatapathId(1));
            dispatch(&mut pad, &mut sandbox, &ev, &topo);
            dispatch(&mut pad, &mut sandbox, &ev, &topo);
            let id = pad.obs.attach_app("brittle");
            let failure = FailureKind::WorkerLost {
                panic_message: "dispatch engine on thread main: boom".into(),
            };
            let r = pad.recover(
                &mut sandbox,
                id,
                "brittle",
                &ev,
                failure,
                &topo,
                &dev,
                SimTime::ZERO,
            );
            assert!(
                matches!(r, DispatchResult::AppDead { .. }),
                "{policy}: {r:?}"
            );
            // Neither restored nor replayed: the app is as the engine left it.
            assert_eq!(brittle_state(&sandbox).events, 2, "{policy}");
            assert_eq!(pad.stats().recoveries, 0, "{policy}");
            assert_eq!(pad.stats().apps_let_die, 1, "{policy}");
            let ticket = pad.tickets.iter().last().unwrap();
            assert_eq!(ticket.recovery, RecoveryTaken::LetDie);
            assert!(ticket
                .render()
                .contains("worker lost: dispatch engine on thread main"));
        }
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
        let mut sandbox = Sandbox::new(Box::new(Brittle::default()));
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
        let mut sandbox = Sandbox::new(Box::new(Brittle::default()));
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

    #[test]
    fn a_snapshot_panic_is_the_crash_its_ticket_names() {
        // Brittle whose checkpoint panics once, before its third event.
        struct Fragile {
            inner: Brittle,
            armed: std::sync::atomic::AtomicBool,
        }
        impl SdnApp for Fragile {
            fn name(&self) -> &str {
                "brittle"
            }
            fn subscriptions(&self) -> Vec<EventKind> {
                self.inner.subscriptions()
            }
            fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
                self.inner.on_event(event, ctx);
            }
            fn snapshot(&self) -> Snapshot {
                if self.inner.state.events == 2
                    && self.armed.swap(false, std::sync::atomic::Ordering::SeqCst)
                {
                    panic!("fragile checkpoint");
                }
                self.inner.snapshot()
            }
            fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
                self.inner.restore(bytes)
            }
        }
        let mut pad = pad(CompromisePolicy::Absolute, 1);
        let mut sandbox = Sandbox::new(Box::new(Fragile {
            inner: Brittle::default(),
            armed: true.into(),
        }));
        let topo = topo2();
        for d in 1..=2 {
            dispatch(
                &mut pad,
                &mut sandbox,
                &Event::SwitchUp(DatapathId(d)),
                &topo,
            );
        }
        let r = dispatch(
            &mut pad,
            &mut sandbox,
            &Event::SwitchUp(DatapathId(3)),
            &topo,
        );
        let DispatchResult::Recovered {
            recovery: RecoveryTaken::Ignored,
            ticket,
            ..
        } = r
        else {
            panic!("expected the event ignored, got {r:?}")
        };
        assert!(matches!(&pad.tickets.get(ticket).unwrap().failure,
            FailureKind::FailStop { panic_message } if panic_message == "fragile checkpoint"));
        // Restored from the checkpoint before event 2, event 2 replayed.
        assert!(!sandbox.is_dead());
        assert_eq!(brittle_state(&sandbox).events, 2);
        assert_eq!(pad.stats().events_replayed, 1);
    }
}
