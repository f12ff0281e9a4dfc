//! Lock-free metric instruments and the registry that owns them.
//!
//! Updates are single atomic ops; the registry `Mutex` is only taken when a
//! handle is first created, so hot paths hold handles (`Arc`) and never
//! lock.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Metric address: `(component, name, label)`. Label is free-form — an app
/// name, a switch dpid, or empty.
pub type Key = (String, String, String);

/// Monotonically increasing count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depths, live-app counts).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: bucket `i` covers `[2^i, 2^(i+1))`, bucket 0
/// additionally holds zero. 64 buckets span the full `u64` range.
pub const BUCKETS: usize = 64;

/// Log-bucketed histogram of `u64` samples (latencies in nanoseconds,
/// sizes in bytes).
///
/// Fixed ~2× relative error on quantiles in exchange for lock-free O(1)
/// recording — the standard HdrHistogram-style trade.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a sample: `floor(log2(v))`, with 0 and 1 sharing
/// bucket 0.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    (63 - (v | 1).leading_zeros()) as usize
}

/// Inclusive value range covered by bucket `i`.
#[must_use]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        return (0, 1);
    }
    let lo = 1u64 << i;
    let hi = if i + 1 >= 64 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    };
    (lo, hi)
}

impl Histogram {
    /// Record one sample.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturate instead of wrapping: long-running campaigns accumulate
        // enough nanoseconds to overflow, and a wrapped sum silently
        // corrupts every scrape after that point.
        let prev = self.sum.fetch_add(v, Ordering::Relaxed);
        if prev.checked_add(v).is_none() {
            self.sum.store(u64::MAX, Ordering::Relaxed);
        }
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Start a timing span; its drop records the elapsed nanoseconds here.
    #[must_use]
    pub fn start(self: &Arc<Self>) -> SpanGuard {
        SpanGuard {
            hist: Arc::clone(self),
            begun: Instant::now(),
        }
    }

    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Approximate quantile `q in [0, 1]` by linear interpolation inside
    /// the covering bucket. Returns 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let (lo, hi) = bucket_bounds(i);
                let into = (rank - cum - 1) as f64 / c as f64;
                let est = lo as f64 + into * (hi - lo) as f64;
                // Clamp into the covering bucket (float rounding must not
                // report below its lower bound), and never beyond the
                // observed max.
                return (est as u64).clamp(lo, hi).min(self.max());
            }
            cum += c;
        }
        self.max()
    }

    /// The standard latency digest: count, sum, p50/p90/p99, max.
    #[must_use]
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            max: self.max(),
        }
    }

    /// Per-bucket `(inclusive upper bound, count)` for non-empty buckets.
    #[must_use]
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| (bucket_bounds(i).1, c))
            })
            .collect()
    }
}

/// One registry histogram: its key, summary statistics, and
/// `(upper_bound, count)` buckets.
pub type HistogramRow = (Key, HistogramSummary, Vec<(u64, u64)>);

/// Point-in-time digest of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

/// RAII timer: created by [`Histogram::start`], records elapsed
/// nanoseconds into the histogram on drop.
pub struct SpanGuard {
    hist: Arc<Histogram>,
    begun: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = u64::try_from(self.begun.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.hist.observe(ns);
    }
}

/// A [`Key`] or a borrowed `(&str, &str, &str)` seen as the same three
/// parts, so the maps can be probed without building an owned key. Both
/// order by the parts, which is `Key`'s own (tuple) order — exports list
/// series exactly as before.
trait KeyParts {
    fn parts(&self) -> (&str, &str, &str);
}

impl KeyParts for Key {
    fn parts(&self) -> (&str, &str, &str) {
        (&self.0, &self.1, &self.2)
    }
}

impl KeyParts for (&str, &str, &str) {
    fn parts(&self) -> (&str, &str, &str) {
        *self
    }
}

impl<'a> Borrow<dyn KeyParts + 'a> for Key {
    fn borrow(&self) -> &(dyn KeyParts + 'a) {
        self
    }
}

impl PartialEq for dyn KeyParts + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.parts() == other.parts()
    }
}

impl Eq for dyn KeyParts + '_ {}

impl PartialOrd for dyn KeyParts + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn KeyParts + '_ {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.parts().cmp(&other.parts())
    }
}

/// Owns every instrument, addressable by [`Key`]. `BTreeMap` so exports
/// are deterministically ordered.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<Key, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<Key, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<Key, Arc<Histogram>>>,
    /// By-name lookups served, each one a mutex acquisition — what the
    /// allocation-budget test pins at zero on the per-event path.
    lookups: AtomicU64,
}

impl Registry {
    /// The instrument at `(component, name, label)`, created on first
    /// use. The owned key is built only then; a hit borrows.
    fn resolve<T: Default>(
        &self,
        map: &Mutex<BTreeMap<Key, Arc<T>>>,
        (component, name, label): (&str, &str, &str),
    ) -> Arc<T> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let mut map = map.lock().unwrap();
        let probe: &dyn KeyParts = &(component, name, label);
        if let Some(found) = map.get(probe) {
            return Arc::clone(found);
        }
        let made = Arc::<T>::default();
        map.insert(
            (component.into(), name.into(), label.into()),
            Arc::clone(&made),
        );
        made
    }

    pub fn counter(&self, component: &str, name: &str, label: &str) -> Arc<Counter> {
        self.resolve(&self.counters, (component, name, label))
    }

    pub fn gauge(&self, component: &str, name: &str, label: &str) -> Arc<Gauge> {
        self.resolve(&self.gauges, (component, name, label))
    }

    pub fn histogram(&self, component: &str, name: &str, label: &str) -> Arc<Histogram> {
        self.resolve(&self.histograms, (component, name, label))
    }

    /// By-name lookups served so far.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Snapshot of all counters as `(key, value)`.
    #[must_use]
    pub fn counters(&self) -> Vec<(Key, u64)> {
        self.counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }

    /// Snapshot of all gauges as `(key, value)`.
    #[must_use]
    pub fn gauges(&self) -> Vec<(Key, i64)> {
        self.gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect()
    }

    /// Snapshot of all histograms as `(key, summary, buckets)`.
    #[must_use]
    pub fn histograms(&self) -> Vec<HistogramRow> {
        self.histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, h)| (k.clone(), h.summary(), h.buckets()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(7), 2);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
        }
    }

    #[test]
    fn quantiles_on_uniform_data() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.sum(), 500_500);
        // Log buckets give ~2× relative error; check the right ballpark.
        let p50 = h.quantile(0.50);
        assert!((256..=1000).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99);
        assert!((512..=1000).contains(&p99), "p99 = {p99}");
        assert!(h.quantile(1.0) <= 1000);
        assert_eq!(h.quantile(0.0), h.quantile(0.001));
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn quantile_single_value() {
        let h = Histogram::default();
        h.observe(777);
        // Log buckets: the answer lands in 777's bucket [512, 1023],
        // clamped to the observed max.
        let q = h.quantile(0.5);
        assert!((512..=777).contains(&q), "q = {q}");
        assert_eq!(h.max(), 777);
    }

    #[test]
    fn quantile_never_exceeds_max() {
        let h = Histogram::default();
        h.observe(5);
        h.observe(1_000_000);
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert!(h.quantile(q) <= 1_000_000);
        }
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = Histogram::default();
        h.observe(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "second overflow-sized sample pins");
        h.observe(1);
        assert_eq!(h.sum(), u64::MAX, "saturated sum never moves again");
        assert_eq!(h.count(), 3, "count still tracks every sample");
    }

    #[test]
    fn quantile_never_below_covering_bucket_floor() {
        // All samples share bucket [1024, 2047]; every quantile must stay
        // within it (and at or below the observed max).
        let h = Histogram::default();
        for _ in 0..1000 {
            h.observe(1024);
        }
        for q in [0.0, 0.001, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!((1024..=2047).contains(&v), "q={q} gave {v}");
            assert!(v <= h.max());
        }
    }

    #[test]
    fn span_guard_records_on_drop() {
        let h = Arc::new(Histogram::default());
        {
            let _guard = h.start();
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() > 0, "elapsed time is nonzero");
    }

    #[test]
    fn registry_returns_same_instrument_for_same_key() {
        let r = Registry::default();
        r.counter("core", "events", "").inc();
        r.counter("core", "events", "").inc();
        assert_eq!(r.counter("core", "events", "").get(), 2);
        r.counter("core", "events", "app1").inc();
        assert_eq!(r.counter("core", "events", "app1").get(), 1);
        assert_eq!(r.counters().len(), 2);
    }

    #[test]
    fn borrowed_lookup_orders_and_finds_like_the_owned_key() {
        let r = Registry::default();
        // Parts that only order correctly as a tuple: ("a", "b") sorts
        // before ("a", "b0") before ("a0", ""), whatever the label.
        let names = [
            ("a0", "", "z"),
            ("a", "b0", ""),
            ("a", "b", "y"),
            ("a", "b", ""),
            ("", "x", ""),
        ];
        for (i, (c, n, l)) in names.iter().enumerate() {
            r.counter(c, n, l).add(i as u64 + 1);
        }
        for (i, (c, n, l)) in names.iter().enumerate() {
            assert_eq!(
                r.counter(c, n, l).get(),
                i as u64 + 1,
                "hit finds {c}/{n}/{l}"
            );
        }
        let keys: Vec<Key> = r.counters().into_iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(keys.len(), names.len());
        assert_eq!(r.lookups(), 2 * names.len() as u64);
    }
}
