//! Causal-trace property test: a seeded crash-injection campaign must
//! leave flight-recorder traces whose per-(event, app) phases are
//! causally ordered — fill before send before collect before commit —
//! with recovery (restore/replay/policy) nested strictly between the
//! failed delivery and the commit, at window depth 1 and 8 alike. The
//! depth-8 run must additionally reconstruct a crash-recovery episode as
//! a single causal trace (the PR's acceptance criterion) and record the
//! cross-event cancellation/re-send story in the cancelled events'
//! traces.

use legosdn::crashpad::{CheckpointPolicy, CrashPadConfig, PolicyTable, TransformDirection};
use legosdn::obs::Trace;
use legosdn::prelude::*;

/// Hand-rolled LCG (Numerical Recipes constants) so the campaign is
/// seeded and reproducible without pulling in a rand dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Run a seeded fault campaign under Channel isolation at the given
/// window depth and hand back the recorder's traces.
fn run_traced_campaign(depth: usize, seed: u64) -> (Obs, Vec<Trace>) {
    let topo = Topology::linear(3, 2);
    let mut net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
        isolation: IsolationMode::Channel,
        dispatch: DispatchConfig::default().window(depth),
        obs: ObsConfig::instance(Obs::new()),
        crashpad: CrashPadConfig {
            checkpoints: CheckpointPolicy {
                interval: 2,
                history: 8,
                ..CheckpointPolicy::default()
            },
            policies: PolicyTable::with_default(CompromisePolicy::Absolute),
            transform_direction: TransformDirection::Decompose,
        },
        checker: Some(Checker::new(vec![
            Invariant::NoBlackHoles,
            Invariant::NoLoops,
        ])),
        ..LegoSdnConfig::default()
    });
    let obs = rt.obs();

    let poison = topo.hosts[topo.hosts.len() - 1].mac;
    rt.attach(Box::new(LearningSwitch::new())).unwrap();
    rt.attach(Box::new(Hub::new())).unwrap();
    rt.attach(Box::new(FaultyApp::new(
        Box::new(ShortestPathRouter::new()),
        BugTrigger::OnEventKind(EventKind::SwitchDown),
        BugEffect::Crash,
    )))
    .unwrap();
    rt.attach(Box::new(FaultyApp::new(
        Box::new(Hub::new()),
        BugTrigger::OnPacketToMac(poison),
        BugEffect::Blackhole,
    )))
    .unwrap();
    rt.run_cycle(&mut net); // handshake + discovery

    let mut rng = Lcg(seed);
    let bounce = DatapathId(3);
    for round in 0..4 {
        // Seeded traffic so the window fills with packet-ins, then a
        // switch bounce injected *mid-burst*: the SwitchDown crash lands
        // while later events are already queued, exercising
        // cancellation/re-send at depth > 1.
        for _ in 0..3 {
            let src = topo.hosts[rng.pick(topo.hosts.len())].mac;
            let dst = topo.hosts[rng.pick(topo.hosts.len())].mac;
            let _ = net.inject(src, Packet::ethernet(src, dst));
        }
        let _ = net.set_switch_up(bounce, false);
        for _ in 0..2 {
            let src = topo.hosts[rng.pick(2)].mac;
            let _ = net.inject(src, Packet::ethernet(src, poison));
        }
        rt.run_cycle(&mut net);
        let _ = net.set_switch_up(bounce, true);
        rt.run_cycle(&mut net);
        if round == 1 {
            rt.tick_apps(&mut net);
        }
    }

    let traces = obs.traces();
    rt.shutdown();
    (obs, traces)
}

fn first_index(t: &Trace, app: &str, phase: &str) -> Option<usize> {
    t.events
        .iter()
        .position(|e| e.app == app && e.phase == phase)
}

fn last_index(t: &Trace, app: &str, phase: &str) -> Option<usize> {
    t.events
        .iter()
        .rposition(|e| e.app == app && e.phase == phase)
}

/// Every trace must order each app's first fill ≤ send ≤ collect ≤
/// commit, nest recovery between the failed delivery and the commit, and
/// follow any cancellation with a re-selection.
fn assert_causal(traces: &[Trace], depth: usize) {
    let apps: Vec<String> = traces
        .iter()
        .flat_map(|t| t.events.iter().map(|e| e.app.clone()))
        .filter(|a| !a.is_empty())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    assert!(!apps.is_empty(), "depth {depth}: traces saw no apps at all");

    for t in traces {
        for app in &apps {
            let fill = first_index(t, app, "fill");
            let send = first_index(t, app, "send");
            let collect = first_index(t, app, "collect");
            let commit = first_index(t, app, "commit");
            if let (Some(f), Some(s)) = (fill, send) {
                assert!(f < s, "depth {depth} {}: fill after send for {app}", t.id);
            }
            if let (Some(s), Some(c)) = (send, collect) {
                assert!(
                    s < c,
                    "depth {depth} {}: send after collect for {app}",
                    t.id
                );
            }
            if let (Some(c), Some(k)) = (collect, commit) {
                assert!(
                    c < k,
                    "depth {depth} {}: collect after commit for {app}",
                    t.id
                );
            }

            // Recovery follows the failed delivery, and when the event
            // commits as "recovered" the recovery is nested strictly
            // before that commit. (After a "delivered" commit, recovery
            // may still legitimately appear — a post-commit checkpoint
            // or invariant rollback crashing the app — so the nesting is
            // only required for recovered commits.)
            let recovered_commit = t
                .events
                .iter()
                .position(|e| e.app == *app && e.phase == "commit" && e.outcome == "recovered");
            if let Some(df) = first_index(t, app, "deliver_fail") {
                for phase in ["restore", "replay", "policy"] {
                    if let Some(r) = first_index(t, app, phase) {
                        assert!(
                            df < r,
                            "depth {depth} {}: {phase} before the failed delivery for {app}",
                            t.id
                        );
                        if let Some(k) = recovered_commit {
                            assert!(
                                r < k,
                                "depth {depth} {}: {phase} after the recovered commit for {app}",
                                t.id
                            );
                        }
                    }
                }
            }

            // A cancelled speculative delivery must be re-sent from the
            // recovered state: the cancel is followed by a fresh send.
            if let Some(cx) = first_index(t, app, "cancel") {
                let resent = last_index(t, app, "send");
                assert!(
                    resent.is_some_and(|s| s > cx),
                    "depth {depth} {}: cancel without a later re-send for {app}",
                    t.id
                );
                assert!(
                    first_index(t, app, "resend").is_some_and(|r| r > cx),
                    "depth {depth} {}: cancel without a resend marker for {app}",
                    t.id
                );
            }
        }
    }
}

/// The full crash-recovery episode — failed delivery, restore, policy
/// verdict, recovered commit — must appear inside one trace.
fn recovery_trace(traces: &[Trace]) -> Option<&Trace> {
    traces.iter().find(|t| {
        t.events.iter().any(|e| e.phase == "deliver_fail")
            && t.events.iter().any(|e| e.phase == "restore")
            && t.events
                .iter()
                .any(|e| e.phase == "commit" && e.outcome == "recovered")
    })
}

#[test]
fn depth1_traces_are_causally_ordered() {
    let (_obs, traces) = run_traced_campaign(1, 0x5eed_0001);
    assert!(!traces.is_empty(), "depth 1 recorded no traces");
    assert_causal(&traces, 1);
    assert!(
        recovery_trace(&traces).is_some(),
        "depth 1: no single trace holds a full crash-recovery episode"
    );
}

#[test]
fn depth8_traces_are_causally_ordered_across_the_window() {
    let (obs, traces) = run_traced_campaign(8, 0x5eed_0008);
    assert!(!traces.is_empty(), "depth 8 recorded no traces");
    assert_causal(&traces, 8);

    // Acceptance: a depth-8 crash-recovery episode reconstructs as a
    // single causal trace, and that trace is retrievable by id.
    let episode = recovery_trace(&traces)
        .expect("depth 8: no single trace holds a full crash-recovery episode");
    let fetched = obs
        .trace(episode.id)
        .expect("the episode trace is fetchable by id");
    assert_eq!(fetched.trace_seq, episode.trace_seq);

    // The mid-window crash cancelled queued later deliveries; their
    // traces must carry the cancel (re-send ordering is asserted per
    // trace above).
    assert!(
        traces
            .iter()
            .any(|t| t.events.iter().any(|e| e.phase == "cancel")),
        "depth 8: no trace recorded a cross-event cancellation"
    );
}

/// Sharded dispatch must not silence the flight recorder: with four
/// worker threads each recording under its own per-thread trace scope,
/// a fully sampled run still reconstructs causally ordered per-app
/// phase stories, and commits still land in the traces.
#[test]
fn sharded_workers_still_feed_the_flight_recorder() {
    let topo = Topology::linear(2, 1);
    let mut net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
        isolation: IsolationMode::Channel,
        dispatch: DispatchConfig::default().window(2).workers(4),
        obs: ObsConfig::instance(Obs::new()).trace_sample(1),
        ..LegoSdnConfig::default()
    });
    let obs = rt.obs();
    rt.attach(Box::new(LearningSwitch::new())).unwrap();
    rt.attach(Box::new(ShortestPathRouter::new())).unwrap();
    for _ in 0..4 {
        rt.attach(Box::new(Hub::new())).unwrap();
    }
    rt.run_cycle(&mut net); // handshake + discovery
    let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
    for _ in 0..4 {
        let _ = net.inject(a, Packet::ethernet(a, b));
        let _ = net.inject(b, Packet::ethernet(b, a));
        rt.run_cycle(&mut net);
    }
    let traces = obs.traces();
    rt.shutdown();
    assert!(!traces.is_empty(), "workers=4 recorded no traces");
    assert_causal(&traces, 2);
    assert!(
        traces
            .iter()
            .any(|t| t.events.iter().any(|e| e.phase == "commit")),
        "workers=4: no trace recorded a commit phase"
    );
}

#[test]
fn sampling_thins_the_recorder_and_zero_disables_it() {
    let topo = Topology::linear(2, 1);
    let mut net = Network::new(&topo);
    for (sample, expect_any) in [(0u64, false), (4, true)] {
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            obs: ObsConfig::instance(Obs::new()).trace_sample(sample),
            ..LegoSdnConfig::default()
        });
        let obs = rt.obs();
        rt.attach(Box::new(Hub::new())).unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        for _ in 0..8 {
            let _ = net.inject(a, Packet::ethernet(a, b));
            rt.run_cycle(&mut net);
        }
        let traces = obs.traces();
        if expect_any {
            assert!(
                !traces.is_empty() && traces.len() < 8,
                "sample {sample}: expected a thinned, non-empty recorder, got {}",
                traces.len()
            );
        } else {
            assert!(traces.is_empty(), "sample 0 must disable tracing");
        }
    }
}
