//! `legosdn-obs` — zero-dependency observability for LegoSDN.
//!
//! The paper's pitch is that app failures become *survivable events with a
//! measurable recovery path*; this crate makes that path measurable. All
//! std-only:
//!
//! - **Metrics** ([`metrics`]): lock-free counters/gauges and log-bucketed
//!   latency histograms addressed by `(component, name, label)`.
//! - **Spans** ([`Histogram::start`], [`Obs::span`]): RAII guards timing
//!   a region via `Instant`, feeding histograms.
//! - **Records** ([`journal`], [`trace`]): one typed record per reported
//!   moment, emitted once through [`Obs::emit`], kept by two retention
//!   policies — the journal (recent recovery records, dense sequence
//!   numbers) and the flight recorder (the steps of sampled traces).
//! - **Timelines** ([`timeline`]): stitches journal records into
//!   per-incident detection→restore→replay reports.
//! - **Ops endpoint** ([`serve`]): a bounded, blocking HTTP responder
//!   serving all of the above live over TCP (`/metrics`, `/metrics.json`,
//!   `/incidents`, `/traces`, `/rollups`, `/healthz`).
//!
//! Exporters ([`Obs::prometheus`], [`Obs::json_snapshot`]) serve scraping:
//! `/metrics` and `/metrics.json`.
//!
//! Engines take an [`Obs`] handle (cheap `Arc` clone) and report into an
//! [`Obs::disabled`] instance until they are handed one: nothing below
//! the runtime reports to [`Obs::global`] on its own.

#![forbid(unsafe_code)]

pub mod export;
pub mod journal;
pub mod metrics;
pub mod rollup;
pub mod serve;
pub mod timeline;
pub mod trace;

pub use journal::{AppId, Journal, Record, RecordKind, Verdict};
pub use metrics::{
    bucket_bounds, bucket_index, Counter, Gauge, Histogram, HistogramRow, HistogramSummary,
    SpanGuard,
};
pub use rollup::{RollupConfig, RollupSample, RollupTracker, RollupWindow};
pub use serve::{ObsServer, ServeConfig};
pub use timeline::{reconstruct, IncidentReport, ReplayInfo, Resolution, RestoreInfo};
pub use trace::{Trace, TraceId, TraceStep, DEFAULT_TRACE_CAPACITY};

use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use metrics::Registry;
use trace::FlightRecorder;

/// Default journal capacity: enough for thousands of incidents without
/// unbounded growth.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 8192;

thread_local! {
    /// The trace this thread's emissions belong to, and the `Obs` (by
    /// address) that scoped it: a per-thread cell, so the dispatch engine
    /// scopes the work of the thread it runs on, two runtimes on two
    /// threads never share a scope, and switching takes no lock.
    static SCOPE: Cell<Option<(usize, TraceId)>> = const { Cell::new(None) };
}

/// Shared observability handle: a metrics registry plus one record
/// stream with a common time base. Cloning is an `Arc` bump.
#[derive(Clone, Debug)]
pub struct Obs {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    registry: Registry,
    /// `false` for [`Obs::disabled`]: an emission is one branch.
    recording: bool,
    stream: Mutex<Stream>,
    start: Instant,
    /// Handles for the two series `emit` / `trace_begin` bump. Resolved
    /// on the first drop, not at construction: an instance that never
    /// dropped anything exports neither series.
    journal_dropped: OnceLock<Arc<Counter>>,
    traces_dropped: OnceLock<Arc<Counter>>,
}

/// The record stream's two retention policies, and the names its app ids
/// index.
#[derive(Debug)]
struct Stream {
    journal: Journal,
    recorder: FlightRecorder,
    apps: Vec<String>,
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

    /// An instance that records nothing: its journal and flight recorder
    /// stay empty, so an emission costs one branch. Metrics still count.
    #[must_use]
    pub fn disabled() -> Self {
        let mut obs = Self::with_journal_capacity(1);
        Arc::get_mut(&mut obs.inner)
            .expect("a new instance")
            .recording = false;
        obs
    }

    /// A fresh instance retaining at most `capacity` journal records.
    #[must_use]
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Obs {
            inner: Arc::new(Inner {
                registry: Registry::default(),
                recording: true,
                stream: Mutex::new(Stream {
                    journal: Journal::new(capacity),
                    recorder: FlightRecorder::default(),
                    apps: Vec::new(),
                }),
                start: Instant::now(),
                journal_dropped: OnceLock::new(),
                traces_dropped: OnceLock::new(),
            }),
        }
    }

    /// The process-wide instance: where a runtime built with the default
    /// `ObsConfig` reports. No engine falls back to it on its own.
    #[must_use]
    pub fn global() -> Obs {
        static GLOBAL: OnceLock<Obs> = OnceLock::new();
        GLOBAL.get_or_init(Obs::new).clone()
    }

    /// Nanoseconds since this instance was created: the records' clock.
    fn now_ns(&self) -> u64 {
        u64::try_from(self.inner.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The stream, whatever a panicking holder left: every update is a
    /// single push or pop, so the rings are valid at every step.
    fn stream(&self) -> MutexGuard<'_, Stream> {
        self.inner
            .stream
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
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

    /// The id this instance's records name the app called `name` by: the
    /// same id for the same name, whoever asks. Past 65 535 names, ids
    /// saturate.
    pub fn attach_app(&self, name: &str) -> AppId {
        let apps = &mut self.stream().apps;
        let i = apps.iter().position(|a| a == name).unwrap_or_else(|| {
            apps.push(name.to_owned());
            apps.len() - 1
        });
        AppId(u16::try_from(i).unwrap_or(u16::MAX))
    }

    /// Emit one record, stamped now, in the trace this thread has in
    /// scope: the journal keeps a journaled kind, the flight recorder a
    /// step of a sampled trace. A journal eviction bumps `journal_dropped`.
    pub fn emit(&self, app: Option<AppId>, kind: RecordKind) {
        if self.inner.recording {
            let key = Arc::as_ptr(&self.inner) as usize;
            let scope = SCOPE.get().and_then(|(k, id)| (k == key).then_some(id));
            self.emit_to(scope, app, kind);
        }
    }

    /// [`Obs::emit`] in `trace` instead of the scope: cross-trace effects
    /// such as window cancellation.
    pub fn emit_to(&self, trace: Option<TraceId>, app: Option<AppId>, kind: RecordKind) {
        let traced = trace.filter(|_| kind.step_count() > 0);
        if !self.inner.recording || (traced.is_none() && !kind.journaled()) {
            return;
        }
        let at_ns = self.now_ns();
        let dropped = {
            let mut st = self.stream();
            if let Some(id) = traced {
                st.recorder.keep(id, at_ns, app, &kind);
            }
            kind.journaled() && st.journal.push(at_ns, trace, app, kind)
        };
        if dropped {
            self.inner
                .journal_dropped
                .get_or_init(|| self.counter("journal", "dropped", ""))
                .inc();
        }
    }

    /// Copy of the journal's retained records, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<Record> {
        self.stream().journal.snapshot()
    }

    /// Open a causal trace for one dispatched event. An evicted trace
    /// (ring at capacity) bumps the `traces_dropped` counter.
    pub fn trace_begin(&self, id: TraceId, kind: &'static str) {
        if !self.inner.recording {
            return;
        }
        let now_ns = self.now_ns();
        if self.stream().recorder.begin(id, kind, now_ns) {
            self.inner
                .traces_dropped
                .get_or_init(|| self.counter("trace", "traces_dropped", ""))
                .inc();
        }
    }

    /// Point this thread's later [`Obs::emit`] calls at `id` (or nowhere),
    /// so layers below emit without knowing it. No lock is taken.
    pub fn trace_scope(&self, id: Option<TraceId>) {
        SCOPE.set(id.map(|id| (Arc::as_ptr(&self.inner) as usize, id)));
    }

    /// All retained traces, oldest first.
    #[must_use]
    pub fn traces(&self) -> Vec<Trace> {
        let st = self.stream();
        st.recorder.snapshot(&st.apps)
    }

    /// One trace by id.
    #[must_use]
    pub fn trace(&self, id: TraceId) -> Option<Trace> {
        let st = self.stream();
        st.recorder.get(id, &st.apps)
    }

    /// Traces evicted from the flight recorder.
    #[must_use]
    pub fn traces_dropped(&self) -> u64 {
        self.stream().recorder.dropped
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
        let (records, names) = {
            let st = self.stream();
            (st.journal.snapshot(), st.apps.clone())
        };
        reconstruct(&records, &names)
    }

    /// Prometheus text exposition of all metrics.
    #[must_use]
    pub fn prometheus(&self) -> String {
        export::prometheus(&self.inner.registry)
    }

    /// JSON snapshot (metrics + journal occupancy + incidents), served at
    /// `/metrics.json`.
    #[must_use]
    pub fn json_snapshot(&self) -> String {
        let journal = {
            let j = &self.stream().journal;
            [j.total, j.evicted, j.total - j.evicted]
        };
        export::json_snapshot(&self.inner.registry, journal, &self.incidents())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_facade_roundtrip() {
        let obs = Obs::with_journal_capacity(8);
        obs.counter("core", "events", "").add(3);
        {
            let _g = obs.span("appvisor.deliver");
        }
        let a = Some(obs.attach_app("a"));
        obs.emit(a, RecordKind::AppCrash { detail: "p".into() });
        obs.emit(a, RecordKind::TicketFiled { failure: "fs" });

        assert_eq!(obs.counter("core", "events", "").get(), 3);
        assert_eq!(obs.histogram("appvisor", "deliver", "").count(), 1);
        let incidents = obs.incidents();
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].app, "a");
        assert!(obs.prometheus().contains("legosdn_core_events 3"));
        assert!(obs.json_snapshot().contains("\"incidents\""));
    }

    #[test]
    fn clones_share_state() {
        let a = Obs::new();
        let b = a.clone();
        a.counter("x", "y", "").inc();
        assert_eq!(b.counter("x", "y", "").get(), 1);
        assert_eq!(a.attach_app("lsw"), b.attach_app("lsw"));
        assert_ne!(a.attach_app("lsw"), b.attach_app("hub"));
    }

    #[test]
    fn journal_timestamps_are_monotonic() {
        let obs = Obs::new();
        obs.emit(Some(obs.attach_app("a")), RecordKind::CommFailure);
        obs.emit(Some(obs.attach_app("a")), RecordKind::CommFailure);
        let snap = obs.records();
        assert!(snap[1].seq > snap[0].seq);
        assert!(snap[1].at_ns >= snap[0].at_ns);
    }

    #[test]
    fn journal_eviction_bumps_the_dropped_counter() {
        let obs = Obs::with_journal_capacity(2);
        for _ in 0..5 {
            obs.emit(None, RecordKind::CommFailure);
        }
        assert_eq!(obs.counter("journal", "dropped", "").get(), 3);
        assert!(obs.prometheus().contains("legosdn_journal_dropped 3"));
    }

    #[test]
    fn drop_series_exist_only_once_something_dropped() {
        let obs = Obs::with_journal_capacity(1);
        let id = |seq| TraceId { cycle: 1, seq };
        obs.emit(None, RecordKind::CommFailure);
        obs.trace_begin(id(0), "PacketIn");
        let text = obs.prometheus();
        assert!(!text.contains("journal_dropped"), "{text}");
        assert!(!text.contains("traces_dropped"), "{text}");

        obs.emit(None, RecordKind::CommFailure);
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
        let lsw = Some(obs.attach_app("lsw"));
        let id = TraceId { cycle: 1, seq: 0 };
        obs.trace_begin(id, "PacketIn");
        obs.trace_scope(Some(id));
        obs.emit(lsw, RecordKind::Step("fill", "selected"));
        obs.emit(
            lsw,
            RecordKind::CheckpointTaken {
                bytes: 8,
                dur_ns: 1,
            },
        );
        obs.emit(lsw, RecordKind::Step("send", "queued"));
        obs.trace_scope(None);
        obs.emit(lsw, RecordKind::Step("send", "ignored"));
        let t = obs.trace(id).unwrap();
        assert_eq!(t.events.len(), 2, "a journal-only kind is no step");
        assert_eq!(t.events[0].phase, "fill");
        assert_eq!(obs.traces().len(), 1);
        assert_eq!(obs.traces_dropped(), 0);
        // The journal kept the checkpoint, naming the trace it happened in.
        let records = obs.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].trace, Some(id));
    }

    #[test]
    fn a_disabled_instance_records_nothing() {
        let obs = Obs::disabled();
        let id = TraceId { cycle: 1, seq: 0 };
        obs.trace_begin(id, "PacketIn");
        obs.trace_scope(Some(id));
        obs.emit(None, RecordKind::AppCrash { detail: "p".into() });
        obs.trace_scope(None);
        assert!(obs.records().is_empty() && obs.traces().is_empty());
        obs.counter("core", "events", "").inc();
        assert!(obs.prometheus().contains("legosdn_core_events 1"));
    }

    #[test]
    fn global_is_a_singleton() {
        Obs::global().counter("global", "probe", "").inc();
        assert!(Obs::global().counter("global", "probe", "").get() >= 1);
    }
}
