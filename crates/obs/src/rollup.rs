//! Time-windowed rollups with bounded retention.
//!
//! Long-running campaigns need "what did the last few minutes look like"
//! answers without unbounded growth: the tracker folds cumulative series
//! (event counts, the `core.run_cycle` latency histogram, recovery
//! count/duration) into fixed-width windows of *deltas*, retaining only
//! the most recent `retain` windows (drop-oldest).
//!
//! Sampling is pull-shaped: the ops endpoint hands the tracker a
//! [`RollupSample`] on each `GET /rollups`. When a sample lands past the
//! current window boundary, the open window closes with the delta between
//! its boundary samples. Attribution is at sample granularity — a
//! sample's activity counts toward the window it closes into, which is
//! exact whenever sampling is at least as frequent as the window width.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::Duration;

use crate::Obs;

/// Width and retention of the rollup ring.
#[derive(Clone, Copy, Debug)]
pub struct RollupConfig {
    /// Window width (default 10s).
    pub width: Duration,
    /// Closed windows retained before the oldest is evicted (default 60 —
    /// ten minutes of history at the default width).
    pub retain: usize,
}

impl Default for RollupConfig {
    fn default() -> Self {
        RollupConfig {
            width: Duration::from_secs(10),
            retain: 60,
        }
    }
}

impl RollupConfig {
    fn width_ns(&self) -> u64 {
        u64::try_from(self.width.as_nanos())
            .unwrap_or(u64::MAX)
            .max(1)
    }
}

/// A point-in-time reading of the cumulative series the rollup tracks.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RollupSample {
    /// Timestamp on the sampled [`Obs`]'s clock.
    pub at_ns: u64,
    /// Cumulative events translated.
    pub events: u64,
    /// Cumulative cycle count (`core.run_cycle` histogram count).
    pub cycles: u64,
    /// Cumulative fail-stop recoveries (summed over app labels).
    pub recoveries: u64,
    /// Cumulative restore duration (`crashpad.restore_ns` sum / count).
    pub recovery_ns: u64,
    pub recovery_count: u64,
    /// Cumulative `core.run_cycle` buckets as `(upper_bound, count)`.
    pub cycle_buckets: Vec<(u64, u64)>,
}

impl RollupSample {
    /// Read the tracked series straight out of an [`Obs`] registry.
    #[must_use]
    pub fn from_obs(obs: &Obs) -> RollupSample {
        let reg = obs.registry();
        let mut s = RollupSample {
            at_ns: obs.now_ns(),
            ..RollupSample::default()
        };
        for (key, value) in reg.counters() {
            match (key.0.as_str(), key.1.as_str()) {
                ("core", "events_translated") => s.events += value,
                ("core", "failstop_recoveries") => s.recoveries += value,
                _ => {}
            }
        }
        for (key, summary, buckets) in reg.histograms() {
            match (key.0.as_str(), key.1.as_str()) {
                ("core", "run_cycle") => {
                    s.cycles += summary.count;
                    merge_buckets(&mut s.cycle_buckets, &buckets);
                }
                ("crashpad", "restore_ns") => {
                    s.recovery_count += summary.count;
                    s.recovery_ns = s.recovery_ns.saturating_add(summary.sum);
                }
                _ => {}
            }
        }
        s
    }
}

/// Sum `(upper_bound, count)` bucket lists bucket-wise into `into` — a
/// series recorded under several labels reads as one.
fn merge_buckets(into: &mut Vec<(u64, u64)>, add: &[(u64, u64)]) {
    let mut map: BTreeMap<u64, u64> = into.iter().copied().collect();
    for &(ub, c) in add {
        *map.entry(ub).or_insert(0) += c;
    }
    *into = map.into_iter().collect();
}

/// Quantile over `(upper_bound, count)` deltas: the upper bound of the
/// covering bucket (same ~2x-error contract as the live histograms).
#[must_use]
pub fn quantile_from_buckets(buckets: &[(u64, u64)], q: f64) -> u64 {
    let total: u64 = buckets.iter().map(|&(_, c)| c).sum();
    if total == 0 {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for &(ub, c) in buckets {
        cum += c;
        if cum >= rank {
            return ub;
        }
    }
    buckets.last().map_or(0, |&(ub, _)| ub)
}

/// One closed window of deltas.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RollupWindow {
    /// Window ordinal: `floor(start-of-window / width)` on the sampler's
    /// clock.
    pub index: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub events: u64,
    pub events_per_sec: f64,
    pub cycles: u64,
    pub p50_cycle_ns: u64,
    pub p99_cycle_ns: u64,
    pub recoveries: u64,
    pub recovery_count: u64,
    pub recovery_ns: u64,
    /// Per-window `core.run_cycle` bucket deltas the quantiles are taken
    /// from.
    pub cycle_buckets: Vec<(u64, u64)>,
}

impl RollupWindow {
    fn from_delta(
        index: u64,
        start_ns: u64,
        end_ns: u64,
        base: &RollupSample,
        s: &RollupSample,
    ) -> RollupWindow {
        let mut cycle_buckets: Vec<(u64, u64)> = Vec::new();
        let base_map: BTreeMap<u64, u64> = base.cycle_buckets.iter().copied().collect();
        for &(ub, c) in &s.cycle_buckets {
            let d = c.saturating_sub(base_map.get(&ub).copied().unwrap_or(0));
            if d > 0 {
                cycle_buckets.push((ub, d));
            }
        }
        let span_ns = end_ns.saturating_sub(start_ns);
        let events = s.events.saturating_sub(base.events);
        RollupWindow {
            index,
            start_ns,
            end_ns,
            events,
            events_per_sec: if span_ns == 0 {
                0.0
            } else {
                events as f64 * 1e9 / span_ns as f64
            },
            cycles: s.cycles.saturating_sub(base.cycles),
            p50_cycle_ns: quantile_from_buckets(&cycle_buckets, 0.50),
            p99_cycle_ns: quantile_from_buckets(&cycle_buckets, 0.99),
            recoveries: s.recoveries.saturating_sub(base.recoveries),
            recovery_count: s.recovery_count.saturating_sub(base.recovery_count),
            recovery_ns: s.recovery_ns.saturating_sub(base.recovery_ns),
            cycle_buckets,
        }
    }

    /// JSON object for `/rollups`.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"index\":{},\"start_ns\":{},\"end_ns\":{},\"events\":{},\
             \"events_per_sec\":{:.3},\"cycles\":{},\"p50_cycle_ns\":{},\
             \"p99_cycle_ns\":{},\"recoveries\":{},\"recovery_count\":{},\
             \"recovery_ns\":{}}}",
            self.index,
            self.start_ns,
            self.end_ns,
            self.events,
            self.events_per_sec,
            self.cycles,
            self.p50_cycle_ns,
            self.p99_cycle_ns,
            self.recoveries,
            self.recovery_count,
            self.recovery_ns
        )
    }
}

/// Boundary bookkeeping plus the bounded ring of closed windows, behind
/// one lock so the ops endpoint's workers can share it.
#[derive(Debug, Default)]
pub struct RollupTracker {
    cfg: RollupConfig,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    /// Sample at the last closed boundary.
    base: Option<RollupSample>,
    base_window: u64,
    /// Most recent sample seen (the closing edge of the open window).
    last: Option<RollupSample>,
    windows: VecDeque<RollupWindow>,
    evicted: u64,
}

impl RollupTracker {
    #[must_use]
    pub fn new(cfg: RollupConfig) -> Self {
        RollupTracker {
            cfg,
            state: Mutex::default(),
        }
    }

    /// Fold a sample in; closes the open window when `s` lands past its
    /// boundary, evicting the oldest closed window beyond `retain`.
    pub fn observe(&self, s: RollupSample) {
        self.state.lock().unwrap().observe(&self.cfg, s);
    }

    /// Closed windows, oldest first.
    #[must_use]
    pub fn windows(&self) -> Vec<RollupWindow> {
        let st = self.state.lock().unwrap();
        st.windows.iter().cloned().collect()
    }

    /// Sample `obs` now, then render the `/rollups` JSON.
    #[must_use]
    pub fn json_for(&self, obs: &Obs) -> String {
        let mut st = self.state.lock().unwrap();
        st.observe(&self.cfg, RollupSample::from_obs(obs));
        st.render_json(&self.cfg)
    }
}

impl State {
    fn observe(&mut self, cfg: &RollupConfig, s: RollupSample) {
        let width = cfg.width_ns();
        let w = s.at_ns / width;
        match &self.base {
            None => {
                self.base = Some(s.clone());
                self.base_window = w;
            }
            Some(base) if w > self.base_window => {
                let closing = self.last.as_ref().unwrap_or(base).clone();
                let start_ns = self.base_window * width;
                let end_ns = start_ns + width;
                self.windows.push_back(RollupWindow::from_delta(
                    self.base_window,
                    start_ns,
                    end_ns,
                    base,
                    &closing,
                ));
                while self.windows.len() > cfg.retain.max(1) {
                    self.windows.pop_front();
                    self.evicted += 1;
                }
                self.base = Some(closing);
                self.base_window = w;
            }
            Some(_) => {}
        }
        self.last = Some(s);
    }

    /// The open (not yet closed) window: deltas from the last boundary to
    /// the latest sample. `None` until a sample exists.
    fn current(&self, cfg: &RollupConfig) -> Option<RollupWindow> {
        let base = self.base.as_ref()?;
        let last = self.last.as_ref()?;
        let width = cfg.width_ns();
        Some(RollupWindow::from_delta(
            self.base_window,
            self.base_window * width,
            last.at_ns,
            base,
            last,
        ))
    }

    /// The `/rollups` body: closed windows plus the open one.
    fn render_json(&self, cfg: &RollupConfig) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{{\"width_ns\":{},\"retain\":{},\"windows_evicted\":{},\"windows\":[",
            cfg.width_ns(),
            cfg.retain,
            self.evicted
        );
        for (i, w) in self.windows.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}{}", w.to_json());
        }
        out.push_str("],\"current\":");
        match self.current(cfg) {
            Some(w) => out.push_str(&w.to_json()),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at_s: u64, events: u64) -> RollupSample {
        RollupSample {
            at_ns: at_s * 1_000_000_000,
            events,
            cycles: events / 2,
            cycle_buckets: vec![(1023, events / 2)],
            ..RollupSample::default()
        }
    }

    #[test]
    fn windows_close_on_boundary_with_deltas() {
        let cfg = RollupConfig {
            width: Duration::from_secs(10),
            retain: 8,
        };
        let st = RollupTracker::new(cfg);
        st.observe(sample(1, 100));
        st.observe(sample(5, 200)); // still window 0
        assert!(st.windows().is_empty());
        st.observe(sample(12, 260)); // crosses into window 1
        let ws = st.windows();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].index, 0);
        // Window 0 closed with the delta up to its last in-window sample.
        assert_eq!(ws[0].events, 100);
        assert_eq!(ws[0].cycles, 50);
        assert!(ws[0].events_per_sec > 0.0);
        // The open window carries the remainder.
        let cur = st.state.lock().unwrap().current(&cfg).unwrap();
        assert_eq!(cur.events, 60);
    }

    #[test]
    fn retention_evicts_oldest_windows_at_cap() {
        let cfg = RollupConfig {
            width: Duration::from_secs(1),
            retain: 3,
        };
        let st = RollupTracker::new(cfg);
        for s in 0..10u64 {
            st.observe(sample(s, s * 10));
        }
        let ws = st.windows();
        assert_eq!(ws.len(), 3, "ring holds exactly `retain` windows");
        assert_eq!(st.state.lock().unwrap().evicted, 6, "9 closed, 6 evicted");
        // The survivors are the most recent ones, in order.
        let idx: Vec<u64> = ws.iter().map(|w| w.index).collect();
        assert_eq!(idx, vec![6, 7, 8]);
    }

    #[test]
    fn quantiles_come_from_bucket_deltas() {
        let b = vec![(63, 10), (1023, 80), (4095, 10)];
        assert_eq!(quantile_from_buckets(&b, 0.50), 1023);
        assert_eq!(quantile_from_buckets(&b, 0.99), 4095);
        assert_eq!(quantile_from_buckets(&[], 0.5), 0);
    }

    #[test]
    fn from_obs_reads_the_tracked_series() {
        let obs = Obs::new();
        obs.counter("core", "events_translated", "").add(7);
        obs.counter("core", "failstop_recoveries", "app1").add(2);
        obs.counter("core", "failstop_recoveries", "app2").add(1);
        obs.histogram("core", "run_cycle", "").observe(500);
        obs.histogram("crashpad", "restore_ns", "").observe(1000);
        let s = RollupSample::from_obs(&obs);
        assert_eq!(s.events, 7);
        assert_eq!(s.recoveries, 3);
        assert_eq!(s.cycles, 1);
        assert_eq!(s.recovery_count, 1);
        assert!(s.recovery_ns >= 1000);
        assert!(!s.cycle_buckets.is_empty());
    }

    #[test]
    fn from_obs_merges_labelled_cycle_histograms_bucket_wise() {
        let obs = Obs::new();
        // Two labels of one series (a sharded runtime's `w0` / `w1`)
        // whose buckets overlap at 100 and differ elsewhere.
        for v in [100, 100, 3] {
            obs.histogram("core", "run_cycle", "w0").observe(v);
        }
        for v in [100, 1 << 20] {
            obs.histogram("core", "run_cycle", "w1").observe(v);
        }
        let ub = |v| crate::bucket_bounds(crate::bucket_index(v)).1;
        let s = RollupSample::from_obs(&obs);
        assert_eq!(s.cycles, 5);
        assert_eq!(
            s.cycle_buckets,
            vec![(ub(3), 1), (ub(100), 3), (ub(1 << 20), 1)],
            "bucket-wise sums, ordered by bound"
        );

        // Quantiles of a window come from the merged deltas: four more
        // slow cycles on w1 move p50 off the bucket w0 alone would give.
        let st = RollupTracker::new(RollupConfig::default());
        st.observe(s);
        for _ in 0..4 {
            obs.histogram("core", "run_cycle", "w1").observe(1 << 20);
        }
        obs.histogram("core", "run_cycle", "w0").observe(100);
        st.observe(RollupSample::from_obs(&obs));
        let cur = st.state.lock().unwrap().current(&st.cfg).unwrap();
        assert_eq!(cur.cycles, 5);
        assert_eq!(cur.cycle_buckets, vec![(ub(100), 1), (ub(1 << 20), 4)]);
        assert_eq!(cur.p50_cycle_ns, ub(1 << 20));
        assert_eq!(cur.p99_cycle_ns, ub(1 << 20));
    }

    #[test]
    fn render_json_is_balanced_and_tagged() {
        let cfg = RollupConfig::default();
        let st = RollupTracker::new(cfg);
        st.observe(sample(1, 10));
        st.observe(sample(2, 30));
        let json = st.state.lock().unwrap().render_json(&cfg);
        assert!(json.contains("\"width_ns\":10000000000"));
        assert!(json.contains("\"current\":{"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
