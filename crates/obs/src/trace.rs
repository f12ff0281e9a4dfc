//! Per-event causal traces: a bounded flight recorder of what happened to
//! each dispatched event, in order, across every layer of the stack.
//!
//! The runtime assigns each dispatched event a [`TraceId`] `(cycle,
//! event-seq)` and opens a [`Trace`] in the [`FlightRecorder`]. While that
//! event is being worked on, the runtime points the recorder's *scope* at
//! the trace; every layer it crosses — dispatch fill, AppVisor queue /
//! collect RPCs, Crash-Pad restore / replay / transform, NetLog commit /
//! rollback — appends a [`TraceEvent`] `(phase, app, outcome,
//! t-offset-ns)` to whichever trace is in scope, without any signature
//! changes on those layers.
//!
//! The recorder is a drop-oldest ring: at capacity the oldest trace is
//! evicted and `traces_dropped` incremented, so a long campaign holds a
//! bounded window of recent history, served via `GET /traces` and
//! `GET /traces/<id>`.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;

use crate::export::json_escape;
use crate::timeline::IncidentReport;

/// Default number of traces the flight recorder retains.
pub const DEFAULT_TRACE_CAPACITY: usize = 256;

/// Hard cap on events recorded per trace; extras bump
/// [`Trace::truncated`] instead of growing without bound.
pub const MAX_TRACE_EVENTS: usize = 192;

/// Identity of one dispatched event: the runtime cycle that translated it
/// and its position within that cycle. Renders as `"<cycle>-<seq>"`
/// (the `/traces/<id>` path segment).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId {
    pub cycle: u64,
    pub seq: u64,
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.cycle, self.seq)
    }
}

impl TraceId {
    /// Parse the `"<cycle>-<seq>"` form used in URLs.
    #[must_use]
    pub fn parse(s: &str) -> Option<TraceId> {
        let (c, e) = s.split_once('-')?;
        Some(TraceId {
            cycle: c.parse().ok()?,
            seq: e.parse().ok()?,
        })
    }
}

/// One step of an event's causal story: which phase ran, in which app's
/// context, with what outcome, at what offset from the trace's start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub t_off_ns: u64,
    pub phase: String,
    pub app: String,
    pub outcome: String,
}

/// The full causal record of one dispatched event. `trace_seq` is the
/// recorder-wide monotonic sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    pub id: TraceId,
    pub trace_seq: u64,
    pub kind: String,
    pub started_ns: u64,
    pub events: Vec<TraceEvent>,
    pub truncated: u64,
}

impl Trace {
    /// Index of the first event with `phase` for `app`, if any.
    #[must_use]
    pub fn first_phase(&self, app: &str, phase: &str) -> Option<usize> {
        self.events
            .iter()
            .position(|e| e.app == app && e.phase == phase)
    }

    /// Absolute timestamp (recorder time base) of the last event.
    #[must_use]
    pub fn last_at_ns(&self) -> u64 {
        self.started_ns + self.events.last().map_or(0, |e| e.t_off_ns)
    }

    /// JSON rendering of this trace plus any incidents (reconstructed from
    /// the journal by [`crate::timeline::reconstruct`]) that overlap it —
    /// the payload of `GET /traces/<id>`.
    #[must_use]
    pub fn to_json(&self, incidents: &[IncidentReport]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"id\": \"{}\",\n  \"trace_seq\": {},\n  \"kind\": \"{}\",\n  \
             \"started_ns\": {},\n  \"truncated\": {},\n  \"events\": [",
            self.id,
            self.trace_seq,
            json_escape(&self.kind),
            self.started_ns,
            self.truncated
        );
        for (i, e) in self.events.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"t_off_ns\":{},\"phase\":\"{}\",\"app\":\"{}\",\
                 \"outcome\":\"{}\"}}",
                e.t_off_ns,
                json_escape(&e.phase),
                json_escape(&e.app),
                json_escape(&e.outcome)
            );
        }
        out.push_str("\n  ],\n  \"incidents\": [");
        let apps: Vec<&str> = self.events.iter().map(|e| e.app.as_str()).collect();
        let last = self.last_at_ns();
        let mut first = true;
        for inc in incidents {
            let end = inc.end_at_ns.max(inc.detection_at_ns);
            let overlaps = apps.contains(&inc.app.as_str())
                && inc.detection_at_ns <= last
                && end >= self.started_ns;
            if !overlaps {
                continue;
            }
            let sep = if first { "" } else { "," };
            first = false;
            let _ = write!(out, "{sep}\n    \"{}\"", json_escape(&inc.render()));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Bounded drop-oldest ring of recent [`Trace`]s, plus the *scope*: the
/// trace that layer-level [`FlightRecorder::event`] calls append to.
///
/// Scopes are per calling thread, so the worker-sharded runtime can keep
/// one recorder and have each worker thread point its own scope at the
/// event it is dispatching; the `active` flag makes the disabled path
/// (sampling off, or no trace in scope anywhere) a single relaxed atomic
/// load.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    active: AtomicBool,
    dropped: AtomicU64,
    inner: Mutex<RecorderState>,
}

#[derive(Debug, Default)]
struct RecorderState {
    traces: VecDeque<Trace>,
    /// Scope per thread: which trace this thread's [`FlightRecorder::event`]
    /// calls append to. Keyed by `ThreadId` rather than thread-local so
    /// two recorder instances on one thread stay independent.
    scopes: HashMap<ThreadId, TraceId>,
    next_seq: u64,
}

impl FlightRecorder {
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            capacity: capacity.max(1),
            active: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            inner: Mutex::new(RecorderState::default()),
        }
    }

    /// Open a new trace. Returns `true` when an old trace was evicted to
    /// make room (callers mirror that into the `traces_dropped` counter).
    pub fn begin(&self, id: TraceId, kind: &str, now_ns: u64) -> bool {
        let mut st = self.inner.lock().unwrap();
        st.next_seq += 1;
        let trace_seq = st.next_seq;
        let mut evicted = false;
        if st.traces.len() >= self.capacity {
            st.traces.pop_front();
            evicted = true;
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        st.traces.push_back(Trace {
            id,
            trace_seq,
            kind: kind.to_string(),
            started_ns: now_ns,
            events: Vec::new(),
            truncated: 0,
        });
        evicted
    }

    /// Point the calling thread's subsequent [`FlightRecorder::event`]
    /// calls at `id` (or nowhere, when `None`). Other threads' scopes are
    /// untouched.
    pub fn set_scope(&self, id: Option<TraceId>) {
        let mut st = self.inner.lock().unwrap();
        let tid = std::thread::current().id();
        match id {
            Some(id) => {
                st.scopes.insert(tid, id);
            }
            None => {
                st.scopes.remove(&tid);
            }
        }
        self.active.store(!st.scopes.is_empty(), Ordering::Relaxed);
    }

    /// The trace the calling thread currently has in scope.
    #[must_use]
    pub fn scope(&self) -> Option<TraceId> {
        let st = self.inner.lock().unwrap();
        st.scopes.get(&std::thread::current().id()).copied()
    }

    /// Whether any thread has a scope set.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Append an event to the calling thread's trace in scope. No-op (one
    /// atomic load) when no thread has a scope anywhere.
    pub fn event(&self, now_ns: u64, phase: &str, app: &str, outcome: &str) {
        if !self.is_active() {
            return;
        }
        let mut st = self.inner.lock().unwrap();
        let Some(&id) = st.scopes.get(&std::thread::current().id()) else {
            return;
        };
        Self::append(&mut st, id, now_ns, phase, app, outcome);
    }

    /// Append an event to a specific trace, ignoring the scope — used for
    /// cross-trace effects (a crash on event *k* cancelling event *k+1*'s
    /// queued delivery).
    pub fn event_for(&self, id: TraceId, now_ns: u64, phase: &str, app: &str, outcome: &str) {
        let mut st = self.inner.lock().unwrap();
        Self::append(&mut st, id, now_ns, phase, app, outcome);
    }

    fn append(
        st: &mut RecorderState,
        id: TraceId,
        now_ns: u64,
        phase: &str,
        app: &str,
        outcome: &str,
    ) {
        // Searching from the back finds the trace in O(depth): scoped
        // traces are always among the most recently opened.
        let Some(trace) = st.traces.iter_mut().rev().find(|t| t.id == id) else {
            return;
        };
        if trace.events.len() >= MAX_TRACE_EVENTS {
            trace.truncated += 1;
            return;
        }
        trace.events.push(TraceEvent {
            t_off_ns: now_ns.saturating_sub(trace.started_ns),
            phase: phase.to_string(),
            app: app.to_string(),
            outcome: outcome.to_string(),
        });
    }

    /// All retained traces, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Trace> {
        self.inner.lock().unwrap().traces.iter().cloned().collect()
    }

    /// Look one trace up by id.
    #[must_use]
    pub fn get(&self, id: TraceId) -> Option<Trace> {
        self.inner
            .lock()
            .unwrap()
            .traces
            .iter()
            .rev()
            .find(|t| t.id == id)
            .cloned()
    }

    /// Traces evicted to make room (`traces_dropped`).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Summary line for `GET /traces`: one JSON object per retained trace.
#[must_use]
pub fn list_json(traces: &[Trace], dropped: u64) -> String {
    use std::fmt::Write as _;
    let mut out = format!("{{\n  \"traces_dropped\": {dropped},\n  \"traces\": [");
    for (i, t) in traces.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    {{\"id\":\"{}\",\"kind\":\"{}\",\"events\":{},\
             \"started_ns\":{},\"truncated\":{}}}",
            t.id,
            json_escape(&t.kind),
            t.events.len(),
            t.started_ns,
            t.truncated
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_roundtrips_through_display_and_parse() {
        let id = TraceId { cycle: 12, seq: 3 };
        assert_eq!(id.to_string(), "12-3");
        assert_eq!(TraceId::parse("12-3"), Some(id));
        assert_eq!(TraceId::parse("12"), None);
        assert_eq!(TraceId::parse("a-b"), None);
    }

    #[test]
    fn scoped_events_land_in_the_current_trace() {
        let r = FlightRecorder::new(8);
        let a = TraceId { cycle: 1, seq: 0 };
        let b = TraceId { cycle: 1, seq: 1 };
        r.begin(a, "PacketIn", 100);
        r.begin(b, "PacketIn", 110);
        r.set_scope(Some(a));
        r.event(150, "fill", "app1", "selected");
        r.set_scope(Some(b));
        r.event(160, "fill", "app1", "selected");
        r.set_scope(None);
        r.event(170, "fill", "app1", "ignored");
        let a = r.get(a).unwrap();
        assert_eq!(a.events.len(), 1);
        assert_eq!(a.events[0].t_off_ns, 50);
        let b = r.get(b).unwrap();
        assert_eq!(b.events.len(), 1);
        assert_eq!(b.events[0].t_off_ns, 50);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let r = FlightRecorder::new(2);
        for i in 0..5u64 {
            let evicted = r.begin(TraceId { cycle: 0, seq: i }, "k", i);
            assert_eq!(evicted, i >= 2);
        }
        assert_eq!(r.dropped(), 3);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].id.seq, 3);
        assert_eq!(snap[1].id.seq, 4);
        assert!(r.get(TraceId { cycle: 0, seq: 0 }).is_none());
    }

    #[test]
    fn per_trace_event_cap_truncates() {
        let r = FlightRecorder::new(2);
        let id = TraceId { cycle: 0, seq: 0 };
        r.begin(id, "k", 0);
        r.set_scope(Some(id));
        for i in 0..(MAX_TRACE_EVENTS as u64 + 10) {
            r.event(i, "p", "a", "o");
        }
        let t = r.get(id).unwrap();
        assert_eq!(t.events.len(), MAX_TRACE_EVENTS);
        assert_eq!(t.truncated, 10);
    }

    #[test]
    fn scopes_are_per_thread() {
        use std::sync::Arc;
        let r = Arc::new(FlightRecorder::new(8));
        let a = TraceId { cycle: 1, seq: 0 };
        let b = TraceId { cycle: 1, seq: 1 };
        r.begin(a, "PacketIn", 0);
        r.begin(b, "PacketIn", 0);
        r.set_scope(Some(a));
        let worker = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                // This thread starts with no scope even though the main
                // thread has one.
                assert_eq!(r.scope(), None);
                r.event(5, "fill", "w", "ignored");
                r.set_scope(Some(b));
                r.event(10, "send", "w", "queued");
                r.set_scope(None);
            })
        };
        worker.join().unwrap();
        r.event(20, "commit", "m", "ok");
        r.set_scope(None);
        let a = r.get(a).unwrap();
        assert_eq!(a.events.len(), 1, "worker events never landed in a");
        assert_eq!(a.events[0].phase, "commit");
        let b = r.get(b).unwrap();
        assert_eq!(b.events.len(), 1);
        assert_eq!(b.events[0].phase, "send");
    }

    #[test]
    fn event_for_reaches_out_of_scope_traces() {
        let r = FlightRecorder::new(4);
        let a = TraceId { cycle: 2, seq: 0 };
        let b = TraceId { cycle: 2, seq: 1 };
        r.begin(a, "k", 0);
        r.begin(b, "k", 0);
        r.set_scope(Some(a));
        r.event_for(b, 5, "cancel", "app1", "crash upstream");
        assert_eq!(r.get(b).unwrap().events[0].phase, "cancel");
        assert!(r.get(a).unwrap().events.is_empty());
    }

    #[test]
    fn json_renders_events_and_is_balanced() {
        let r = FlightRecorder::new(4);
        let id = TraceId { cycle: 3, seq: 2 };
        r.begin(id, "PacketIn", 0);
        r.set_scope(Some(id));
        r.event(10, "fill", "a\"pp", "selected");
        let t = r.get(id).unwrap();
        let json = t.to_json(&[]);
        assert!(json.contains("\"id\": \"3-2\""));
        assert!(json.contains("a\\\"pp"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let list = list_json(&r.snapshot(), r.dropped());
        assert!(list.contains("\"id\":\"3-2\""));
        assert_eq!(list.matches('[').count(), list.matches(']').count());
    }
}
