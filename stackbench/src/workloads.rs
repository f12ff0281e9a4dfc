//! The five workloads: which configuration of the real runtime each one
//! drives, with which trace, and why. Sizes are per round and stay fixed;
//! a run is as many rounds as fit in its time budget.

use crate::trace_gen::TraceKind;
use legosdn::netsim::Topology;
use legosdn::obs::Obs;
use legosdn::prelude::*;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub trace: TraceKind,
    /// Trace events per round at full scale.
    pub n: usize,
    /// Trace events injected per op before the controller runs.
    pub burst: usize,
    /// Attach the crashing fourth app.
    pub faulty: bool,
    pub config: fn() -> LegoSdnConfig,
}

/// The skeleton every non-default workload starts from: in-process apps,
/// per-event dispatch, a checkpoint every 64 events, no invariant
/// checker, observability off.
pub fn lean() -> LegoSdnConfig {
    let mut cfg = LegoSdnConfig {
        checker: None,
        obs: ObsConfig::disabled(),
        ..LegoSdnConfig::default()
    };
    cfg.crashpad.checkpoints.interval = 64;
    cfg
}

fn window_shard() -> LegoSdnConfig {
    LegoSdnConfig {
        dispatch: DispatchConfig::default().window(8).workers(2),
        obs: ObsConfig::instance(Obs::new()).trace_sample(0),
        ..lean()
    }
}

fn isolated_channel() -> LegoSdnConfig {
    LegoSdnConfig {
        isolation: IsolationMode::Channel,
        io: IoConfig::polled(1),
        dispatch: DispatchConfig::default().window(8),
        ..lean()
    }
}

fn crash_flap() -> LegoSdnConfig {
    let mut cfg = LegoSdnConfig::default();
    cfg.crashpad.checkpoints.interval = 16;
    cfg
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "default_flash",
        why: "LegoSdnConfig::default(): a checkpoint and a full invariant check per event do most of the work",
        trace: TraceKind::FlashCrowd,
        n: 208,
        burst: 8,
        faulty: false,
        config: LegoSdnConfig::default,
    },
    Workload {
        name: "lean_mice",
        why: "bare skeleton, one packet per op, 70% dataplane hits: bypasses snapshots, checker, obs, windows, stubs",
        trace: TraceKind::ElephantMice,
        n: 40_000,
        burst: 1,
        faulty: false,
        config: lean,
    },
    Workload {
        name: "window_shard",
        why: "window depth 8 over 2 worker shards: view clones, per-cycle threads and the commit barrier dominate",
        trace: TraceKind::FlashCrowd,
        n: 3_000,
        burst: 32,
        faulty: false,
        config: window_shard,
    },
    Workload {
        name: "isolated_channel",
        why: "apps behind AppVisor stubs on in-process channels: proxy, stub, rpc and codec dominate",
        trace: TraceKind::FlashCrowd,
        n: 500,
        burst: 8,
        faulty: false,
        config: isolated_channel,
    },
    Workload {
        name: "crash_flap",
        why: "link-flap storm plus an app that crashes on one host's packets: restore and replay beside snapshots, port-status churn",
        trace: TraceKind::LinkFlap,
        n: 512,
        burst: 16,
        faulty: true,
        config: crash_flap,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Topology size and trace length: full scale for measuring, a small one
/// so the smoke test exercises every output check in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Fat-tree arity.
    pub k: usize,
    /// Divisor applied to every workload's `n`.
    pub shrink: usize,
}

impl Scale {
    pub fn full() -> Self {
        Scale { k: 8, shrink: 1 }
    }

    pub fn smoke() -> Self {
        Scale { k: 4, shrink: 8 }
    }

    pub fn trace_len(self, w: &Workload) -> usize {
        // A multiple of the burst, so every op injects a full burst.
        (w.n / self.shrink).max(2 * w.burst).div_ceil(w.burst) * w.burst
    }

    pub fn topology(self) -> Topology {
        Topology::fat_tree(self.k)
    }
}

/// SpanningTree first so flooding follows a tree. ROADMAP's roster
/// (LearningSwitch + ShortestPathRouter) floods unknown destinations
/// without one, and a fat-tree has loops: one packet never quiesces.
pub fn roster(w: &Workload, topo: &Topology) -> Vec<Box<dyn SdnApp>> {
    let mut apps: Vec<Box<dyn SdnApp>> = vec![
        Box::new(SpanningTree::new()),
        Box::new(LearningSwitch::new()),
        Box::new(Firewall::new(vec![AclRule::deny_port(8080)])),
    ];
    if w.faulty {
        apps.push(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnPacketToMac(topo.hosts[3].mac),
            BugEffect::Crash,
        )));
    }
    apps
}
