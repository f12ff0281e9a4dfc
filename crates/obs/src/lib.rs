//! `legosdn-obs` — zero-dependency observability for LegoSDN.
//!
//! The paper's pitch is that app failures become *survivable events with a
//! measurable recovery path*; this crate makes that path measurable. Five
//! pieces, all std-only:
//!
//! - **Metrics** ([`metrics`]): lock-free counters/gauges and log-bucketed
//!   latency histograms addressed by `(component, name, label)`.
//! - **Spans** ([`span!`], [`Histogram::start`]): RAII guards timing a
//!   region via `Instant`, feeding histograms.
//! - **Journal** ([`journal`]): bounded ring buffer of structured recovery
//!   records (crashes, checkpoints, NetLog transactions, policy verdicts,
//!   tickets) with monotonic sequence numbers.
//! - **Timelines** ([`timeline`]): stitches journal records into
//!   per-incident detection→restore→replay reports.
//! - **Ops endpoint** ([`serve`]): a bounded, blocking HTTP responder
//!   serving all of the above live over TCP (`/metrics`, `/metrics.json`,
//!   `/incidents`, `/traces`, `/rollups`, `/healthz`).
//!
//! Exporters ([`Obs::prometheus`], [`Obs::json_snapshot`]) serve scraping
//! and `BENCH_*.json` trajectories.
//!
//! Engines take an [`Obs`] handle (cheap `Arc` clone); everything defaults
//! to [`Obs::global`] so wiring is optional per call site, while tests use
//! private instances to stay isolated.

pub mod export;
pub mod journal;
pub mod metrics;
pub mod rollup;
pub mod serve;
pub mod timeline;
pub mod trace;

pub use journal::{Journal, Record, RecordKind};
pub use metrics::{
    bucket_bounds, bucket_index, Counter, Gauge, Histogram, HistogramRow, HistogramSummary,
    SpanGuard,
};
pub use rollup::{RollupConfig, RollupSample, RollupTracker, RollupWindow};
pub use serve::{ObsServer, ServeConfig};
pub use timeline::{reconstruct, IncidentReport, ReplayInfo, Resolution, RestoreInfo};
pub use trace::{FlightRecorder, Trace, TraceEvent, TraceId, DEFAULT_TRACE_CAPACITY};

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use metrics::Registry;

/// Default journal capacity: enough for thousands of incidents without
/// unbounded growth.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 8192;

/// Shared observability handle: a metrics registry plus an event journal
/// with a common time base. Cloning is an `Arc` bump.
#[derive(Clone, Debug)]
pub struct Obs {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    registry: Registry,
    journal: Journal,
    tracer: FlightRecorder,
    start: Instant,
    /// Handles for the two series `record` / `trace_begin` bump. Resolved
    /// on the first drop, not at construction: an instance that never
    /// dropped anything exports neither series.
    journal_dropped: OnceLock<Arc<Counter>>,
    traces_dropped: OnceLock<Arc<Counter>>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    /// A fresh instance with the default journal capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_journal_capacity(DEFAULT_JOURNAL_CAPACITY)
    }

    /// A fresh instance retaining at most `capacity` journal records.
    #[must_use]
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Obs {
            inner: Arc::new(Inner {
                registry: Registry::default(),
                journal: Journal::new(capacity),
                tracer: FlightRecorder::new(DEFAULT_TRACE_CAPACITY),
                start: Instant::now(),
                journal_dropped: OnceLock::new(),
                traces_dropped: OnceLock::new(),
            }),
        }
    }

    /// The process-wide instance. Engines default to this when not handed
    /// an explicit instance.
    #[must_use]
    pub fn global() -> Obs {
        static GLOBAL: OnceLock<Obs> = OnceLock::new();
        GLOBAL.get_or_init(Obs::new).clone()
    }

    /// Nanoseconds since this instance was created — the journal's time
    /// base.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Counter handle for `(component, name, label)`; hold it for hot
    /// paths, updates are lock-free.
    #[must_use]
    pub fn counter(&self, component: &str, name: &str, label: &str) -> Arc<Counter> {
        self.inner.registry.counter(component, name, label)
    }

    /// Gauge handle for `(component, name, label)`.
    #[must_use]
    pub fn gauge(&self, component: &str, name: &str, label: &str) -> Arc<Gauge> {
        self.inner.registry.gauge(component, name, label)
    }

    /// Histogram handle for `(component, name, label)`.
    #[must_use]
    pub fn histogram(&self, component: &str, name: &str, label: &str) -> Arc<Histogram> {
        self.inner.registry.histogram(component, name, label)
    }

    /// Start a span timing `path` (`"component.name"`, split at the first
    /// dot). The guard records elapsed nanoseconds on drop.
    #[must_use]
    pub fn span(&self, path: &str) -> SpanGuard {
        self.span_labeled(path, "")
    }

    /// [`Obs::span`] with an explicit label — the worker-sharded runtime
    /// tags per-worker spans `w0`, `w1`, … so one shard's fill/commit
    /// timing doesn't blur into another's. An empty label lands in the
    /// same series `span` uses.
    #[must_use]
    pub fn span_labeled(&self, path: &str, label: &str) -> SpanGuard {
        let (component, name) = path.split_once('.').unwrap_or(("obs", path));
        self.histogram(component, name, label).start()
    }

    /// Append a journal record stamped with [`Obs::now_ns`]; returns its
    /// sequence number. A record evicted to make room bumps the
    /// `journal_dropped` counter so bounded-ring data loss is visible in
    /// `/metrics`.
    pub fn record(&self, kind: RecordKind) -> u64 {
        let (seq, dropped) = self.inner.journal.record_at_evicting(self.now_ns(), kind);
        if dropped {
            self.inner
                .journal_dropped
                .get_or_init(|| self.counter("journal", "dropped", ""))
                .inc();
        }
        seq
    }

    /// The underlying journal (for tests and exporters).
    #[must_use]
    pub fn journal(&self) -> &Journal {
        &self.inner.journal
    }

    /// Open a causal trace for one dispatched event. An evicted trace
    /// (ring at capacity) bumps the `traces_dropped` counter.
    pub fn trace_begin(&self, id: TraceId, kind: &str) {
        if self.inner.tracer.begin(id, kind, self.now_ns()) {
            self.inner
                .traces_dropped
                .get_or_init(|| self.counter("trace", "traces_dropped", ""))
                .inc();
        }
    }

    /// Point subsequent [`Obs::trace_event`] calls at `id` (or nowhere).
    /// The runtime scopes the recorder to whichever event it is working
    /// on; layers below record phases without knowing the id.
    pub fn trace_scope(&self, id: Option<TraceId>) {
        self.inner.tracer.set_scope(id);
    }

    /// The trace currently in scope.
    #[must_use]
    pub fn trace_scope_id(&self) -> Option<TraceId> {
        self.inner.tracer.scope()
    }

    /// Whether any thread has a trace in scope — what a caller checks
    /// before it formats an outcome for [`Obs::trace_event`].
    #[must_use]
    pub fn trace_active(&self) -> bool {
        self.inner.tracer.is_active()
    }

    /// Append a `(phase, app, outcome)` step to the trace in scope.
    /// Single relaxed atomic load, and no clock read, when tracing is off
    /// or out of scope.
    pub fn trace_event(&self, phase: &str, app: &str, outcome: &str) {
        if self.trace_active() {
            self.inner.tracer.event(self.now_ns(), phase, app, outcome);
        }
    }

    /// Append a step to a specific trace regardless of scope (cross-trace
    /// effects such as window cancellation).
    pub fn trace_event_for(&self, id: TraceId, phase: &str, app: &str, outcome: &str) {
        self.inner
            .tracer
            .event_for(id, self.now_ns(), phase, app, outcome);
    }

    /// All retained traces, oldest first.
    #[must_use]
    pub fn traces(&self) -> Vec<Trace> {
        self.inner.tracer.snapshot()
    }

    /// One trace by id.
    #[must_use]
    pub fn trace(&self, id: TraceId) -> Option<Trace> {
        self.inner.tracer.get(id)
    }

    /// Traces evicted from the flight recorder.
    #[must_use]
    pub fn traces_dropped(&self) -> u64 {
        self.inner.tracer.dropped()
    }

    /// The metrics registry — the rollup sampler reads it whole.
    pub(crate) fn registry(&self) -> &Registry {
        &self.inner.registry
    }

    /// By-name instrument lookups (`counter` / `gauge` / `histogram` /
    /// `span`) served so far, each a registry-mutex acquisition. Tests pin
    /// it flat across the per-event path.
    #[doc(hidden)]
    #[must_use]
    pub fn registry_lookups(&self) -> u64 {
        self.inner.registry.lookups()
    }

    /// Reconstruct incident timelines from the current journal contents.
    #[must_use]
    pub fn incidents(&self) -> Vec<IncidentReport> {
        reconstruct(&self.inner.journal.snapshot())
    }

    /// Prometheus text exposition of all metrics.
    #[must_use]
    pub fn prometheus(&self) -> String {
        export::prometheus(&self.inner.registry)
    }

    /// JSON snapshot (metrics + journal occupancy + incidents) for
    /// `BENCH_*.json`.
    #[must_use]
    pub fn json_snapshot(&self) -> String {
        export::json_snapshot(&self.inner.registry, &self.inner.journal, &self.incidents())
    }
}

/// Time a region: `let _g = obs::span!(obs, "appvisor.deliver");` records
/// elapsed nanoseconds into the `(appvisor, deliver, "")` histogram when
/// the guard drops. The one-argument form uses [`Obs::global`].
#[macro_export]
macro_rules! span {
    ($obs:expr, $path:expr) => {
        $obs.span($path)
    };
    ($path:expr) => {
        $crate::Obs::global().span($path)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_facade_roundtrip() {
        let obs = Obs::with_journal_capacity(8);
        obs.counter("core", "events", "").add(3);
        {
            let _g = span!(obs, "appvisor.deliver");
        }
        obs.record(RecordKind::AppCrash {
            app: "a".into(),
            detail: "p".into(),
        });
        obs.record(RecordKind::TicketFiled {
            app: "a".into(),
            failure: "fs".into(),
        });

        assert_eq!(obs.counter("core", "events", "").get(), 3);
        assert_eq!(obs.histogram("appvisor", "deliver", "").count(), 1);
        let incidents = obs.incidents();
        assert_eq!(incidents.len(), 1);
        assert!(obs.prometheus().contains("legosdn_core_events 3"));
        assert!(obs.json_snapshot().contains("\"incidents\""));
    }

    #[test]
    fn clones_share_state() {
        let a = Obs::new();
        let b = a.clone();
        a.counter("x", "y", "").inc();
        assert_eq!(b.counter("x", "y", "").get(), 1);
    }

    #[test]
    fn journal_timestamps_are_monotonic() {
        let obs = Obs::new();
        let s1 = obs.record(RecordKind::HeartbeatMiss { app: "a".into() });
        let s2 = obs.record(RecordKind::HeartbeatMiss { app: "a".into() });
        assert!(s2 > s1);
        let snap = obs.journal().snapshot();
        assert!(snap[1].at_ns >= snap[0].at_ns);
    }

    #[test]
    fn journal_eviction_bumps_the_dropped_counter() {
        let obs = Obs::with_journal_capacity(2);
        for _ in 0..5 {
            obs.record(RecordKind::HeartbeatMiss { app: "a".into() });
        }
        assert_eq!(obs.counter("journal", "dropped", "").get(), 3);
        assert!(obs.prometheus().contains("legosdn_journal_dropped 3"));
    }

    #[test]
    fn drop_series_exist_only_once_something_dropped() {
        let obs = Obs::with_journal_capacity(1);
        let id = |seq| TraceId { cycle: 1, seq };
        obs.record(RecordKind::HeartbeatMiss { app: "a".into() });
        obs.trace_begin(id(0), "PacketIn");
        let text = obs.prometheus();
        assert!(!text.contains("journal_dropped"), "{text}");
        assert!(!text.contains("traces_dropped"), "{text}");

        obs.record(RecordKind::HeartbeatMiss { app: "a".into() });
        assert!(obs.prometheus().contains("legosdn_journal_dropped 1"));
        assert!(!obs.prometheus().contains("traces_dropped"));

        for seq in 1..=DEFAULT_TRACE_CAPACITY as u64 {
            obs.trace_begin(id(seq), "PacketIn");
        }
        assert!(obs.prometheus().contains("legosdn_trace_traces_dropped 1"));
        assert_eq!(obs.traces_dropped(), 1);
    }

    #[test]
    fn trace_facade_records_scoped_phases() {
        let obs = Obs::new();
        let id = TraceId { cycle: 1, seq: 0 };
        obs.trace_begin(id, "PacketIn");
        obs.trace_scope(Some(id));
        obs.trace_event("fill", "lsw", "selected");
        obs.trace_event("send", "lsw", "queued");
        obs.trace_scope(None);
        obs.trace_event("send", "lsw", "ignored");
        let t = obs.trace(id).unwrap();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[0].phase, "fill");
        assert_eq!(obs.traces().len(), 1);
        assert_eq!(obs.traces_dropped(), 0);
    }

    #[test]
    fn global_is_a_singleton() {
        Obs::global().counter("global", "probe", "").inc();
        assert!(Obs::global().counter("global", "probe", "").get() >= 1);
    }
}
