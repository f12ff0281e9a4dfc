//! # LegoSDN
//!
//! A faithful, from-scratch reproduction of *"Tolerating SDN Application
//! Failures with LegoSDN"* (Chandrasekaran & Benson, HotNets-XIII 2014):
//! a re-designed SDN controller architecture that eliminates the two
//! fate-sharing relationships of monolithic controllers —
//!
//! 1. **app ⇄ controller**: an application crash must not crash the
//!    controller or other apps (AppVisor isolation, §3.1);
//! 2. **app ⇄ network**: an application failure must not leave the network
//!    inconsistent (NetLog transactions + rollback, §3.2).
//!
//! On top of both, **Crash-Pad** (§3.3) survives deterministic bugs by
//! checkpointing app state before every event and, on failure, restoring
//! the snapshot and *ignoring or transforming* the offending event per an
//! operator policy.
//!
//! ## Quick start
//!
//! ```
//! use legosdn::prelude::*;
//!
//! // A 2-switch network with a host on each switch.
//! let topo = Topology::linear(2, 1);
//! let mut net = Network::new(&topo);
//!
//! // The LegoSDN runtime with default protection.
//! let mut runtime = LegoSdnRuntime::new(LegoSdnConfig::default());
//! runtime.attach(Box::new(LearningSwitch::new())).unwrap();
//!
//! // Buggy app: crashes on any packet to host 2 — under LegoSDN this is
//! // survivable; under a monolithic controller it kills everything.
//! let poison = topo.hosts[1].mac;
//! runtime.attach(Box::new(FaultyApp::new(
//!     Box::new(Hub::new()),
//!     BugTrigger::OnPacketToMac(poison),
//!     BugEffect::Crash,
//! ))).unwrap();
//!
//! runtime.run_cycle(&mut net); // handshake + discovery
//! let src = topo.hosts[0].mac;
//! net.inject(src, Packet::ethernet(src, poison)).unwrap();
//! let report = runtime.run_cycle(&mut net);
//! assert!(report.recoveries >= 1);      // the bug fired and was survived
//! assert!(!runtime.is_crashed());       // the controller never dies
//! ```
//!
//! ## Crate map
//!
//! | Crate | Paper artifact |
//! |---|---|
//! | `legosdn-openflow` | OpenFlow 1.0 subset, wire codec, message inversion |
//! | `legosdn-netsim` | the network (switches, flow tables, dataplane) |
//! | `legosdn-controller` | controller core, app API, monolithic baseline |
//! | `legosdn-appvisor` | AppVisor proxy/stub isolation layer |
//! | `legosdn-netlog` | NetLog transactions, undo log, counter-cache |
//! | `legosdn-crashpad` | Crash-Pad checkpoints, policies, recovery |
//! | `legosdn-invariants` | byzantine-failure detection (policy checker) |
//! | `legosdn-apps` | the app suite + fault injection |
//! | `legosdn-sts` | minimal causal sequences (§5) |
//! | `legosdn` (this crate) | the runtime + §3.4/§5 extensions |

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod host;
pub mod nversion;
pub mod runtime;

#[doc(hidden)]
pub use config::DispatchConfig;
pub use config::{ConfigError, IoConfig, IsolationMode, LegoSdnConfig, ObsConfig, ResourceLimits};
pub use host::{Host, ProxyAdapter};
pub use nversion::{NVersionApp, VoteStats};
pub use runtime::{
    AppId, AppStatus, AttachError, LegoCycleReport, LegoSdnRuntime, ResourceUsage, RuntimeStats,
};

// Re-export the component crates under stable names.
pub use legosdn_apps as apps;
pub use legosdn_appvisor as appvisor;
pub use legosdn_controller as controller;
pub use legosdn_crashpad as crashpad;
pub use legosdn_invariants as invariants;
pub use legosdn_netlog as netlog;
pub use legosdn_netsim as netsim;
pub use legosdn_obs as obs;
pub use legosdn_openflow as openflow;
pub use legosdn_sts as sts;

pub mod prelude {
    //! Everything a typical consumer needs.
    #[doc(hidden)]
    pub use crate::config::DispatchConfig;
    pub use crate::config::{
        ConfigError, IoConfig, IsolationMode, LegoSdnConfig, ObsConfig, ResourceLimits,
    };
    pub use crate::nversion::NVersionApp;
    pub use crate::runtime::{AppId, AppStatus, LegoCycleReport, LegoSdnRuntime, RuntimeStats};
    pub use legosdn_apps::{
        AclRule, Backend, BugEffect, BugTrigger, FaultyApp, Firewall, Flooder, Hub, LearningSwitch,
        LoadBalancer, ShortestPathRouter, SpanningTree, StatsMonitor,
    };
    pub use legosdn_appvisor::{IoMode, ProxyConfig, StubConfig};
    pub use legosdn_controller::app::{Command, Ctx, SdnApp};
    pub use legosdn_controller::event::{Event, EventKind};
    pub use legosdn_controller::monolithic::MonolithicController;
    pub use legosdn_crashpad::{
        CheckpointPolicy, CompromisePolicy, CrashPadConfig, PolicyTable, TransformDirection,
    };
    pub use legosdn_invariants::{Checker, Invariant};
    #[doc(hidden)]
    pub use legosdn_netlog::TxMode;
    pub use legosdn_netsim::{Network, SimDuration, SimTime, Topology};
    pub use legosdn_obs::{Obs, ObsServer, ServeConfig};
    pub use legosdn_openflow::prelude::*;
}
