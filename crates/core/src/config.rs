//! LegoSDN runtime configuration.
//!
//! The configuration is sectioned: [`IoConfig`] (stub I/O threads + proxy
//! tuning) and [`ObsConfig`] (observability instance + trace sampling).
//! How deep the dispatch window runs is not configured: it belongs to
//! the [`IsolationMode`] (DESIGN.md §9). Build one with struct update
//! syntax plus the section constructors, then validate it with
//! [`LegoSdnConfig::build`]:
//!
//! ```
//! use legosdn::config::{IoConfig, IsolationMode, LegoSdnConfig};
//!
//! let cfg = LegoSdnConfig {
//!     isolation: IsolationMode::Channel,
//!     io: IoConfig::polled(2),
//!     ..LegoSdnConfig::default()
//! }
//! .build()
//! .expect("valid config");
//! assert_eq!(cfg.io.proxy.io.io_threads, 2);
//! ```
//!
//! `build()` rejects nonsense up front — zero I/O threads — instead of
//! panicking or silently clamping at use sites. Struct-literal section
//! updates are the only way to configure.

use legosdn_appvisor::{IoMode, ProxyConfig};
use legosdn_crashpad::CrashPadConfig;
use legosdn_invariants::Checker;
use legosdn_netlog::TxMode;
use legosdn_obs::Obs;
use std::fmt;

/// Where each application's fault domain lives. The mode also sets how
/// deep the dispatch window runs (DESIGN.md §9): work overlaps only
/// across fault domains, so an in-process app takes its events one at a
/// time, and a stub up to [`crate::engine::STUB_WINDOW`] at once.
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
}

impl IsolationMode {
    /// Parse a CLI-style name (`local` | `channel` | `udp`).
    pub fn parse(s: &str) -> Option<IsolationMode> {
        match s {
            "local" => Some(IsolationMode::Local),
            "channel" => Some(IsolationMode::Channel),
            "udp" => Some(IsolationMode::Udp),
            _ => None,
        }
    }
}

/// What an older caller configured as the event-dispatch section. It has
/// no field: the window depth belongs to the isolation mode (DESIGN.md
/// §9), and the engine runs on the runtime thread. It stays for callers
/// outside this workspace that still build one.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchConfig;

#[doc(hidden)]
impl DispatchConfig {
    /// Returns `self`: the depth is the isolation mode's, and the
    /// argument is ignored.
    #[must_use]
    pub fn window(self, _ignored: usize) -> Self {
        self
    }

    /// Returns `self`: the engine runs on the runtime thread, and the
    /// argument is ignored.
    #[must_use]
    pub fn workers(self, _ignored: usize) -> Self {
        self
    }
}

/// Stub I/O section: how many threads service stub channels, plus
/// AppVisor proxy tuning. Only isolated modes (`Channel`, `Udp`) have
/// stub channels to service.
#[derive(Clone, Debug, Default)]
pub struct IoConfig {
    /// Size of the stub-host pool; see [`IoMode`].
    pub mode: IoMode,
    /// AppVisor proxy tuning (timeouts, stub settings). The proxy's own
    /// `io` field is overwritten with [`IoConfig::mode`] at build /
    /// runtime construction, so `mode` is the single source of truth.
    pub proxy: ProxyConfig,
}

impl IoConfig {
    /// Pooled servicing with `io_threads` stub-host workers,
    /// whichever transport the stubs use. Not clamped: 0 threads is
    /// rejected by [`LegoSdnConfig::build`].
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
    /// disables tracing entirely.
    pub trace_sample: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            instance: None,
            trace_sample: 1,
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

    /// Observability off: every layer reports into a private instance
    /// that records nothing ([`Obs::disabled`]: an emission is one
    /// branch, metrics still count) and the flight recorder never
    /// samples. Nothing lands in [`Obs::global`]: no layer below the
    /// runtime reports anywhere it was not handed.
    #[must_use]
    pub fn disabled() -> Self {
        ObsConfig {
            instance: Some(Obs::disabled()),
            trace_sample: 0,
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
    /// `io.mode.io_threads == 0`: the stub-host pool needs a thread.
    ZeroIoThreads,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroIoThreads => write!(f, "io.mode.io_threads must be at least 1"),
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
}

/// Full runtime configuration.
#[derive(Clone, Debug)]
pub struct LegoSdnConfig {
    /// Where each app's fault domain lives, and so how deep the dispatch
    /// window runs; see [`IsolationMode`].
    pub isolation: IsolationMode,
    /// Ignored; see [`DispatchConfig`]. It stays for callers outside this
    /// workspace that still set it.
    #[doc(hidden)]
    pub dispatch: DispatchConfig,
    /// Stub I/O section; see [`IoConfig`].
    pub io: IoConfig,
    /// Observability section; see [`ObsConfig`].
    pub obs: ObsConfig,
    /// NetLog transaction mode. There is one (apply + undo log), and the
    /// runtime does not read this; it stays for callers outside this
    /// workspace that still set it.
    #[doc(hidden)]
    pub netlog_mode: TxMode,
    pub crashpad: CrashPadConfig,
    /// Byzantine-failure detection: the runtime's NetLog checks every
    /// state-altering commit against these invariants and rolls back what
    /// violates them. `None` disables detection (fail-stop coverage only).
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
            dispatch: DispatchConfig,
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
        if self.io.mode.io_threads == 0 {
            return Err(ConfigError::ZeroIoThreads);
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
        assert_eq!(
            c.io.mode,
            IoMode { io_threads: 4 },
            "up to four stubs each get a host thread of their own"
        );
        assert!(c.checker.is_some());
        assert_eq!(c.resource_limits, ResourceLimits::default());
        assert!(
            c.obs.instance.is_none(),
            "default means Obs::global at build time"
        );
        assert_eq!(c.obs.trace_sample, 1, "every event is traced by default");
    }

    #[test]
    fn build_accepts_the_default_and_sectioned_configs() {
        assert!(LegoSdnConfig::default().build().is_ok());
        let c = LegoSdnConfig {
            isolation: IsolationMode::Channel,
            io: IoConfig::polled(2),
            ..LegoSdnConfig::default()
        }
        .build()
        .unwrap();
        assert_eq!(c.io.mode, IoMode { io_threads: 2 });
        // build() stamps the proxy's io field from the section mode.
        assert_eq!(c.io.proxy.io, IoMode { io_threads: 2 });
    }

    #[test]
    fn build_rejects_nonsense_up_front() {
        let zero_io = LegoSdnConfig {
            io: IoConfig::polled(0),
            ..LegoSdnConfig::default()
        };
        assert_eq!(zero_io.build().unwrap_err(), ConfigError::ZeroIoThreads);

        assert!(LegoSdnConfig {
            obs: ObsConfig::disabled(),
            ..LegoSdnConfig::default()
        }
        .build()
        .is_ok());
    }

    #[test]
    fn config_errors_render_for_cli_use() {
        assert!(!ConfigError::ZeroIoThreads.to_string().is_empty());
    }

    #[test]
    fn the_worker_count_is_ignored() {
        // The engine runs on the runtime thread and the window depth is
        // the isolation mode's: a worker count or a depth set by an older
        // caller changes nothing, and zero is no error.
        assert_eq!(DispatchConfig.window(8).workers(4), DispatchConfig);
        let zero = LegoSdnConfig {
            dispatch: DispatchConfig.window(0).workers(0),
            ..LegoSdnConfig::default()
        };
        assert!(zero.build().is_ok());
    }

    #[test]
    fn mode_parsers_cover_cli_names() {
        assert_eq!(IsolationMode::parse("local"), Some(IsolationMode::Local));
        assert_eq!(
            IsolationMode::parse("channel"),
            Some(IsolationMode::Channel)
        );
        assert_eq!(IsolationMode::parse("udp"), Some(IsolationMode::Udp));
        assert_eq!(IsolationMode::parse("tcp"), None);
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
        let obs = c.obs.instance.unwrap();
        for _ in 0..17 {
            obs.emit(None, legosdn_obs::RecordKind::CommFailure);
        }
        assert_eq!(obs.records().len(), 16);
    }
}
