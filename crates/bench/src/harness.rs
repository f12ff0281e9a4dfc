//! Minimal offline stand-in for the criterion benchmark API.
//!
//! The build environment has no network access, so the bench targets run
//! on this shim instead: same surface (`Criterion`, `benchmark_group`,
//! `bench_function`, `bench_with_input`, `criterion_group!`), plain
//! `Instant`-based timing underneath. Each run prints a mean/min/max
//! table to stderr and, in `final_summary`, dumps the accumulated
//! results, the exhibit's [`headline`] numbers and the global
//! [`legosdn_obs`] snapshot to `BENCH_<exhibit>.json` — the one writer
//! every exhibit's numbers go through.

use std::fmt::Display;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static RESULTS: Mutex<Vec<BenchResult>> = Mutex::new(Vec::new());
static HEADLINES: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

/// Record an exhibit-level number — a throughput, a thread count, a
/// speedup — for [`Criterion::final_summary`] to write beside the timed
/// results.
pub fn headline(name: &str, value: f64) {
    HEADLINES.lock().unwrap().push((name.to_string(), value));
}

#[derive(Clone, Debug)]
pub struct BenchResult {
    pub group: String,
    pub name: String,
    pub samples: usize,
    pub mean_ns: f64,
    pub min_ns: f64,
    pub max_ns: f64,
}

/// Identifier for a parameterized benchmark, shown as `name/param`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(name: impl Display, param: impl Display) -> Self {
        Self {
            id: format!("{name}/{param}"),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.id.fmt(f)
    }
}

#[derive(Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    pub fn configure_from_args(self) -> Self {
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            _c: self,
        }
    }

    /// Print the results table and write `BENCH_<exhibit>.json` (bench
    /// results + the global obs snapshot) into the working directory.
    pub fn final_summary(&self) {
        let results = RESULTS.lock().unwrap();
        if results.is_empty() {
            return;
        }
        let rows: Vec<Vec<String>> = results
            .iter()
            .map(|r| {
                vec![
                    format!("{}/{}", r.group, r.name),
                    r.samples.to_string(),
                    format!("{:.1}", r.mean_ns / 1e3),
                    format!("{:.1}", r.min_ns / 1e3),
                    format!("{:.1}", r.max_ns / 1e3),
                ]
            })
            .collect();
        crate::print_table(
            "bench timings",
            &["benchmark", "samples", "mean us", "min us", "max us"],
            &rows,
        );
        let path = format!("BENCH_{}.json", exhibit_name());
        match std::fs::write(&path, snapshot_json(&results)) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// Derive the exhibit name from the bench executable (cargo names bench
/// binaries `<target>-<hash>`).
fn exhibit_name() -> String {
    let exe = std::env::args().next().unwrap_or_default();
    let stem = std::path::Path::new(&exe)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("bench")
        .to_string();
    match stem.rsplit_once('-') {
        Some((base, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            base.to_string()
        }
        _ => stem,
    }
}

fn snapshot_json(results: &[BenchResult]) -> String {
    let mut out = String::from("{\n  \"bench\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"samples\": {}, \
             \"mean_ns\": {:.0}, \"min_ns\": {:.0}, \"max_ns\": {:.0}}}{}\n",
            r.group,
            r.name,
            r.samples,
            r.mean_ns,
            r.min_ns,
            r.max_ns,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"headline\": {");
    let headlines = HEADLINES.lock().unwrap();
    for (i, (name, value)) in headlines.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        out.push_str(&format!("{sep}\"{name}\": {value}"));
    }
    out.push_str("},\n  \"obs\": ");
    out.push_str(&legosdn_obs::Obs::global().json_snapshot());
    out.push_str("\n}\n");
    out
}

pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _c: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function(
        &mut self,
        id: impl Display,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut b = Bencher {
            sample_size: self.sample_size,
            samples: Vec::new(),
        };
        f(&mut b);
        self.record(id.to_string(), b.samples);
        self
    }

    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let mut b = Bencher {
            sample_size: self.sample_size,
            samples: Vec::new(),
        };
        f(&mut b, input);
        self.record(id.to_string(), b.samples);
        self
    }

    pub fn finish(self) {}

    fn record(&self, name: String, samples: Vec<Duration>) {
        if samples.is_empty() {
            return;
        }
        let ns: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e9).collect();
        let mean = ns.iter().sum::<f64>() / ns.len() as f64;
        let min = ns.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ns.iter().cloned().fold(0.0f64, f64::max);
        RESULTS.lock().unwrap().push(BenchResult {
            group: self.name.clone(),
            name,
            samples: ns.len(),
            mean_ns: mean,
            min_ns: min,
            max_ns: max,
        });
    }
}

pub struct Bencher {
    sample_size: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Time `f`: one warmup iteration, then `sample_size` timed runs.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        std::hint::black_box(f());
        for _ in 0..self.sample_size {
            let start = Instant::now();
            std::hint::black_box(f());
            self.samples.push(start.elapsed());
        }
    }
}

/// Identity that defeats constant-folding, mirroring criterion's helper.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Group N bench functions into a single runner, mirroring criterion's
/// macro of the same name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

pub use crate::criterion_group;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_records_results() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("smoke");
        g.sample_size(3);
        g.bench_function("noop", |b| b.iter(|| 1 + 1));
        g.bench_with_input(BenchmarkId::new("param", 7), &7, |b, &x| b.iter(|| x * 2));
        g.finish();
        let results = RESULTS.lock().unwrap();
        let ours: Vec<_> = results.iter().filter(|r| r.group == "smoke").collect();
        assert_eq!(ours.len(), 2);
        assert_eq!(ours[0].samples, 3);
        assert_eq!(ours[1].name, "param/7");
        assert!(ours[0].mean_ns >= 0.0);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("abc", 12).to_string(), "abc/12");
    }
}
