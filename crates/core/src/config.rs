//! LegoSDN runtime configuration.
//!
//! The configuration is sectioned: [`DispatchConfig`] (window, worker
//! shards, lookahead), [`IoConfig`] (stub I/O threads + proxy tuning),
//! and [`ObsConfig`] (observability instance + trace sampling).
//! Build one with struct update syntax plus the section constructors,
//! then validate it with [`LegoSdnConfig::build`]:
//!
//! ```
//! use legosdn::config::{DispatchConfig, IoConfig, LegoSdnConfig};
//!
//! let cfg = LegoSdnConfig {
//!     dispatch: DispatchConfig::default().window(8).workers(4),
//!     io: IoConfig::polled(2),
//!     ..LegoSdnConfig::default()
//! }
//! .build()
//! .expect("valid config");
//! assert_eq!(cfg.dispatch.workers, 4);
//! ```
//!
//! `build()` rejects nonsense up front — window depth 0, zero I/O
//! threads, zero workers, a trace sample with observability disabled —
//! instead of panicking or silently clamping at use sites. The old flat
//! `with_*` builders have completed their deprecation cycle and are gone;
//! struct-literal section updates are the only way to configure.

use legosdn_appvisor::{IoMode, ProxyConfig};
use legosdn_crashpad::CrashPadConfig;
use legosdn_invariants::Checker;
use legosdn_netlog::TxMode;
use legosdn_obs::Obs;
use std::fmt;

/// Where each application's fault domain lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IsolationMode {
    /// In-process sandbox with panic containment (fast path; still isolates
    /// crashes from the controller).
    Local,
    /// AppVisor stub on the stub-host pool, RPC over in-memory channels.
    Channel,
    /// AppVisor stub on the stub-host pool, RPC over UDP loopback — the
    /// paper's prototype transport (§4.1).
    Udp,
    /// AppVisor stub on the stub-host pool, RPC over TCP loopback with
    /// length framing (the reliable-stream alternative).
    Tcp,
}

impl IsolationMode {
    /// Parse a CLI-style name (`local` | `channel` | `udp` | `tcp`).
    pub fn parse(s: &str) -> Option<IsolationMode> {
        match s {
            "local" => Some(IsolationMode::Local),
            "channel" => Some(IsolationMode::Channel),
            "udp" => Some(IsolationMode::Udp),
            "tcp" => Some(IsolationMode::Tcp),
            _ => None,
        }
    }
}

/// Cross-event dispatch window: up to `depth` translated events from one
/// cycle are in flight to the isolated stubs at once. Each stub's RPC
/// queue carries the deliveries (and any due checkpoint requests) in
/// per-app event order, so an app never sees event *k+1* before it has
/// answered *k*; gather and commit stay fully serialized in (event,
/// attach) order, keeping network state, the NetLog txlog, and runtime
/// counters bit-identical to the sequential reference (DESIGN.md §9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchWindow {
    /// Events in flight at once. `1` (the default) delivers and commits
    /// one event at a time; values above 1 overlap delivery of later
    /// events with gather/commit of earlier ones.
    pub depth: usize,
}

impl Default for DispatchWindow {
    fn default() -> Self {
        DispatchWindow { depth: 1 }
    }
}

impl DispatchWindow {
    /// A window of the given depth (clamped to at least 1; the sectioned
    /// [`DispatchConfig::window`] setter instead leaves invalid depths
    /// for [`LegoSdnConfig::build`] to reject).
    #[must_use]
    pub fn new(depth: usize) -> Self {
        DispatchWindow {
            depth: depth.max(1),
        }
    }
}

/// Event-dispatch section: the shape of the one dispatch engine. Each
/// event is queued on every isolated stub before any ack is collected
/// (local sandboxes run inline while the stubs work), outcomes are
/// gathered and only the failures recovered, and each app's commands
/// commit through NetLog in (event, attach) order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DispatchConfig {
    /// Cross-event window: lets deliveries of later events overlap the
    /// commits of earlier ones.
    pub window: DispatchWindow,
    /// Worker shards: apps are dealt round-robin, in attach order, across
    /// `workers` shards, each with its own AppVisor proxy, Crash-Pad, and
    /// window machinery (DESIGN.md §9). `1` (the default) runs the
    /// engine on the calling thread; values above 1 commit through the
    /// cross-shard barrier, bit-identical to the sequential reference.
    pub workers: usize,
    /// Cross-cycle windowing: one `run_cycle` call may consume follow-on
    /// events triggered by its own commits, up to `lookahead_cycles ×`
    /// the cycle's initial event count, instead of draining the window
    /// at every cycle boundary (DESIGN.md §9). `1` (the default) means a
    /// cycle processes exactly the events queued when it started. The
    /// sequential reference honours it too, so sharded runs stay
    /// bit-identical to the reference at the same lookahead.
    pub lookahead_cycles: usize,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig {
            window: DispatchWindow::default(),
            workers: 1,
            lookahead_cycles: 1,
        }
    }
}

impl DispatchConfig {
    /// Set the cross-event window depth. Not clamped: depth 0 is rejected
    /// by [`LegoSdnConfig::build`].
    #[must_use]
    pub fn window(mut self, depth: usize) -> Self {
        self.window = DispatchWindow { depth };
        self
    }

    /// Set the worker-shard count. Not clamped: 0 workers is rejected by
    /// [`LegoSdnConfig::build`].
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the cross-cycle lookahead budget. Not clamped: 0 is rejected
    /// by [`LegoSdnConfig::build`].
    #[must_use]
    pub fn lookahead(mut self, lookahead_cycles: usize) -> Self {
        self.lookahead_cycles = lookahead_cycles;
        self
    }
}

/// Stub I/O section: how many threads service stub channels, plus
/// AppVisor proxy tuning. Only isolated modes (`Channel`, `Udp`, `Tcp`)
/// have stub channels to service.
#[derive(Clone, Debug, Default)]
pub struct IoConfig {
    /// Size of each shard's stub-host (and poll) pool; see [`IoMode`].
    pub mode: IoMode,
    /// AppVisor proxy tuning (timeouts, heartbeats). The proxy's own
    /// `io` field is overwritten with [`IoConfig::mode`] at build /
    /// runtime construction, so `mode` is the single source of truth.
    pub proxy: ProxyConfig,
}

impl IoConfig {
    /// Pooled servicing with `io_threads` stub-host workers per shard
    /// (plus as many poll workers once a socket transport is in use).
    /// Not clamped: 0 threads is rejected by
    /// [`LegoSdnConfig::build`].
    #[must_use]
    pub fn polled(io_threads: usize) -> Self {
        IoConfig {
            mode: IoMode { io_threads },
            ..IoConfig::default()
        }
    }

    /// Replace the proxy tuning (its `io` field is still overwritten by
    /// [`IoConfig::mode`]).
    #[must_use]
    pub fn proxy(mut self, proxy: ProxyConfig) -> Self {
        self.proxy = proxy;
        self
    }
}

/// Observability section: which instance the runtime (and every
/// sub-layer) reports into, and how often the flight recorder samples.
#[derive(Clone, Debug)]
pub struct ObsConfig {
    /// Instance for the runtime and every sub-layer (Crash-Pad, NetLog,
    /// AppVisor) — wired once at construction, so there is no window
    /// where layers report to different instances. `None` means
    /// [`Obs::global`].
    pub instance: Option<Obs>,
    /// Causal-trace sampling: begin a flight-recorder trace for every
    /// Nth translated event. `1` (the default) traces every event, `0`
    /// disables tracing entirely; untraced events pay a single relaxed
    /// atomic load per layer hook. Worker shards share one recorder with
    /// per-thread ambient scopes, so sampling works at any
    /// `dispatch.workers` count.
    pub trace_sample: u64,
    /// `false` routes the runtime to a throwaway private instance and
    /// requires `trace_sample == 0` (enforced by
    /// [`LegoSdnConfig::build`]).
    pub enabled: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            instance: None,
            trace_sample: 1,
            enabled: true,
        }
    }
}

impl ObsConfig {
    /// Report to `obs` instead of the process-global instance. Tests and
    /// multi-runtime processes use this to keep observability private
    /// per runtime.
    #[must_use]
    pub fn instance(obs: Obs) -> Self {
        ObsConfig {
            instance: Some(obs),
            ..ObsConfig::default()
        }
    }

    /// Shorthand for [`ObsConfig::instance`] with a fresh instance
    /// retaining at most `capacity` journal records.
    #[must_use]
    pub fn journal_capacity(capacity: usize) -> Self {
        ObsConfig::instance(Obs::with_journal_capacity(capacity))
    }

    /// Observability off: the runtime's metrics land in a throwaway
    /// instance and the flight recorder never samples. The one thing this
    /// does not reach is netsim: the caller builds the `Network`, so its
    /// switches' per-dpid churn counters (`netsim/flow_install` and its
    /// two siblings) land in [`Obs::global`] whatever is set here or in
    /// [`ObsConfig::instance`] (DESIGN.md §7).
    #[must_use]
    pub fn disabled() -> Self {
        ObsConfig {
            instance: None,
            trace_sample: 0,
            enabled: false,
        }
    }

    /// Set the flight-recorder sampling rate (`0` disables tracing).
    #[must_use]
    pub fn trace_sample(mut self, sample: u64) -> Self {
        self.trace_sample = sample;
        self
    }
}

/// What [`LegoSdnConfig::build`] rejects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `dispatch.window.depth == 0`: a window must hold at least one event.
    ZeroWindowDepth,
    /// `io.mode.io_threads == 0`: the stub-host pool needs a thread.
    ZeroIoThreads,
    /// `dispatch.workers == 0`: at least one worker shard must exist.
    ZeroWorkers,
    /// `dispatch.lookahead_cycles == 0`: a cycle must be allowed to
    /// process at least its own events.
    ZeroLookahead,
    /// `obs.trace_sample > 0` with `obs.enabled == false`: traces would
    /// record into a throwaway instance nobody can read.
    TraceWithObsDisabled,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWindowDepth => write!(f, "dispatch.window.depth must be at least 1"),
            ConfigError::ZeroIoThreads => write!(f, "io.mode.io_threads must be at least 1"),
            ConfigError::ZeroWorkers => write!(f, "dispatch.workers must be at least 1"),
            ConfigError::ZeroLookahead => {
                write!(f, "dispatch.lookahead_cycles must be at least 1")
            }
            ConfigError::TraceWithObsDisabled => {
                write!(f, "trace_sample > 0 requires observability enabled")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Per-application resource limits (paper §3.4: "an operator can define
/// resource limits for each SDN-App, thus limiting the impact of
/// misbehaving applications").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Maximum events an app may consume (None = unlimited).
    pub max_events: Option<u64>,
    /// Maximum commands an app may emit (None = unlimited).
    pub max_commands: Option<u64>,
    /// Maximum snapshot size in bytes (None = unlimited). Oversized apps
    /// are suspended — a runaway state is itself a resource leak.
    pub max_snapshot_bytes: Option<u64>,
}

/// Full runtime configuration.
#[derive(Clone, Debug)]
pub struct LegoSdnConfig {
    pub isolation: IsolationMode,
    /// Event-dispatch section; see [`DispatchConfig`].
    pub dispatch: DispatchConfig,
    /// Stub I/O section; see [`IoConfig`].
    pub io: IoConfig,
    /// Observability section; see [`ObsConfig`].
    pub obs: ObsConfig,
    /// NetLog transaction mode: `Immediate` (full NetLog: apply + undo log)
    /// or `Buffered` (the paper-prototype ablation).
    pub netlog_mode: TxMode,
    pub crashpad: CrashPadConfig,
    /// Byzantine-failure detection: gate/inspect app output against network
    /// invariants. `None` disables detection (fail-stop coverage only).
    pub checker: Option<Checker>,
    /// §5: when a No-Compromise app's byzantine output violates invariants,
    /// shut the whole network down rather than run unsafely.
    pub shutdown_network_on_no_compromise: bool,
    /// Default per-app resource limits.
    pub resource_limits: ResourceLimits,
}

impl Default for LegoSdnConfig {
    fn default() -> Self {
        LegoSdnConfig {
            isolation: IsolationMode::Local,
            dispatch: DispatchConfig::default(),
            io: IoConfig::default(),
            obs: ObsConfig::default(),
            netlog_mode: TxMode::Immediate,
            crashpad: CrashPadConfig::default(),
            checker: Some(Checker::default()),
            shutdown_network_on_no_compromise: false,
            resource_limits: ResourceLimits::default(),
        }
    }
}

impl LegoSdnConfig {
    /// Validate the configuration, rejecting nonsense up front instead of
    /// panicking or silently clamping at use sites. Also stamps
    /// `io.proxy.io` from `io.mode`, so the two can never disagree.
    pub fn build(mut self) -> Result<Self, ConfigError> {
        if self.dispatch.window.depth == 0 {
            return Err(ConfigError::ZeroWindowDepth);
        }
        if self.dispatch.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.dispatch.lookahead_cycles == 0 {
            return Err(ConfigError::ZeroLookahead);
        }
        if self.io.mode.io_threads == 0 {
            return Err(ConfigError::ZeroIoThreads);
        }
        if !self.obs.enabled && self.obs.trace_sample > 0 {
            return Err(ConfigError::TraceWithObsDisabled);
        }
        self.io.proxy.io = self.io.mode;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_paper_design() {
        let c = LegoSdnConfig::default();
        assert_eq!(c.isolation, IsolationMode::Local);
        // The window stays at 1 and the runtime stays single-worker
        // until the operator widens them.
        assert_eq!(c.dispatch.window, DispatchWindow { depth: 1 });
        assert_eq!(c.dispatch.workers, 1);
        assert_eq!(
            c.dispatch.lookahead_cycles, 1,
            "default lookahead drains the window at each cycle boundary"
        );
        assert_eq!(
            c.io.mode,
            IoMode { io_threads: 4 },
            "up to four stubs per shard each get a host thread of their own"
        );
        assert_eq!(c.netlog_mode, TxMode::Immediate);
        assert!(c.checker.is_some());
        assert_eq!(c.resource_limits, ResourceLimits::default());
        assert!(
            c.obs.instance.is_none(),
            "default means Obs::global at build time"
        );
        assert!(c.obs.enabled);
        assert_eq!(c.obs.trace_sample, 1, "every event is traced by default");
    }

    #[test]
    fn build_accepts_the_default_and_sectioned_configs() {
        assert!(LegoSdnConfig::default().build().is_ok());
        let c = LegoSdnConfig {
            dispatch: DispatchConfig::default().window(8).workers(4),
            io: IoConfig::polled(2),
            ..LegoSdnConfig::default()
        }
        .build()
        .unwrap();
        assert_eq!(c.dispatch.window.depth, 8);
        assert_eq!(c.dispatch.workers, 4);
        assert_eq!(c.io.mode, IoMode { io_threads: 2 });
        // build() stamps the proxy's io field from the section mode.
        assert_eq!(c.io.proxy.io, IoMode { io_threads: 2 });
    }

    #[test]
    fn build_rejects_nonsense_up_front() {
        let zero_window = LegoSdnConfig {
            dispatch: DispatchConfig::default().window(0),
            ..LegoSdnConfig::default()
        };
        assert_eq!(
            zero_window.build().unwrap_err(),
            ConfigError::ZeroWindowDepth
        );

        let zero_workers = LegoSdnConfig {
            dispatch: DispatchConfig::default().workers(0),
            ..LegoSdnConfig::default()
        };
        assert_eq!(zero_workers.build().unwrap_err(), ConfigError::ZeroWorkers);

        let zero_lookahead = LegoSdnConfig {
            dispatch: DispatchConfig::default().lookahead(0),
            ..LegoSdnConfig::default()
        };
        assert_eq!(
            zero_lookahead.build().unwrap_err(),
            ConfigError::ZeroLookahead
        );

        let zero_io = LegoSdnConfig {
            io: IoConfig::polled(0),
            ..LegoSdnConfig::default()
        };
        assert_eq!(zero_io.build().unwrap_err(), ConfigError::ZeroIoThreads);

        let trace_without_obs = LegoSdnConfig {
            obs: ObsConfig::disabled().trace_sample(1),
            ..LegoSdnConfig::default()
        };
        assert_eq!(
            trace_without_obs.build().unwrap_err(),
            ConfigError::TraceWithObsDisabled
        );
        assert!(LegoSdnConfig {
            obs: ObsConfig::disabled(),
            ..LegoSdnConfig::default()
        }
        .build()
        .is_ok());
    }

    #[test]
    fn config_errors_render_for_cli_use() {
        for e in [
            ConfigError::ZeroWindowDepth,
            ConfigError::ZeroIoThreads,
            ConfigError::ZeroWorkers,
            ConfigError::ZeroLookahead,
            ConfigError::TraceWithObsDisabled,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn mode_parsers_cover_cli_names() {
        assert_eq!(IsolationMode::parse("local"), Some(IsolationMode::Local));
        assert_eq!(
            IsolationMode::parse("channel"),
            Some(IsolationMode::Channel)
        );
        assert_eq!(IsolationMode::parse("udp"), Some(IsolationMode::Udp));
        assert_eq!(IsolationMode::parse("tcp"), Some(IsolationMode::Tcp));
        assert_eq!(IsolationMode::parse("vm"), None);
    }

    #[test]
    fn obs_section_constructors_set_the_instance() {
        let mine = Obs::new();
        let c = LegoSdnConfig {
            obs: ObsConfig::instance(mine.clone()),
            ..LegoSdnConfig::default()
        };
        mine.counter("t", "probe", "").inc();
        assert_eq!(
            c.obs
                .instance
                .as_ref()
                .unwrap()
                .counter("t", "probe", "")
                .get(),
            1
        );
        let c = LegoSdnConfig {
            obs: ObsConfig::journal_capacity(16),
            ..LegoSdnConfig::default()
        };
        assert_eq!(c.obs.instance.unwrap().journal().capacity(), 16);
    }
}
