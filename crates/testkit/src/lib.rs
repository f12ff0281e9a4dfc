//! Deterministic randomness for LegoSDN: a seedable PRNG used by
//! `netsim::Topology::random` and the trace generators, plus a tiny
//! property-test harness replacing `proptest` (the build environment has
//! no registry access, so both are hand-rolled over std), and a deadline
//! for tests of code that can hang.
//!
//! Determinism is load-bearing: topology generation and fault campaigns
//! assert same-seed reproducibility, and STS-style replay (ROADMAP) depends
//! on it.

#![forbid(unsafe_code)]

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

/// A small, fast, seedable PRNG (splitmix64).
///
/// Not cryptographic. Passes through every 64-bit state exactly once, so
/// distinct seeds give distinct streams; the same seed always gives the
/// same stream on every platform.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator whose stream is fully determined by `seed`.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[range.start, range.end)`. Panics on empty ranges,
    /// matching `rand::Rng::gen_range`.
    pub fn gen_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T {
        assert!(range.start < range.end, "gen_range called with empty range");
        T::sample(self, range.start, range.end)
    }

    /// Uniform value in `[range.start, range.end]`.
    pub fn gen_range_inclusive<T: SampleUniform>(
        &mut self,
        range: std::ops::RangeInclusive<T>,
    ) -> T {
        let (lo, hi) = range.into_inner();
        T::sample_inclusive(self, lo, hi)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A vector of `len in len_range` elements drawn by `gen`.
    pub fn gen_vec<T>(
        &mut self,
        len_range: std::ops::Range<usize>,
        mut gen: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        let len = if len_range.start + 1 == len_range.end {
            len_range.start
        } else {
            self.gen_range(len_range)
        };
        (0..len).map(|_| gen(self)).collect()
    }

    /// `Some(gen(..))` half the time.
    pub fn gen_option<T>(&mut self, gen: impl FnOnce(&mut Rng) -> T) -> Option<T> {
        if self.gen_bool(0.5) {
            Some(gen(self))
        } else {
            None
        }
    }

    /// One element of `items`, by reference. Panics if empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.gen_range(0..items.len())]
    }

    /// A lowercase ASCII string with `len in len_range` characters.
    pub fn gen_name(&mut self, len_range: std::ops::Range<usize>) -> String {
        let len = self.gen_range(len_range);
        (0..len)
            .map(|_| (b'a' + (self.gen_range(0..26u32) as u8)) as char)
            .collect()
    }
}

/// Integer types [`Rng::gen_range`] can sample uniformly.
pub trait SampleUniform: Copy + PartialOrd {
    fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self;
    fn sample_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self;
}

macro_rules! sample_uniform {
    ($($ty:ty => $wide:ty),* $(,)?) => {$(
        impl SampleUniform for $ty {
            fn sample(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                // Multiply-shift bounded sampling; bias is < 2^-64 per draw,
                // irrelevant for tests and topology generation.
                let v = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                ((lo as $wide).wrapping_add(v as $wide)) as $ty
            }
            fn sample_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                if lo == hi {
                    return lo;
                }
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $ty;
                }
                let v = ((rng.next_u64() as u128 * (span as u128 + 1)) >> 64) as u64;
                ((lo as $wide).wrapping_add(v as $wide)) as $ty
            }
        }
    )*};
}

sample_uniform!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
);

/// Run `body` against `cases` deterministically-seeded generators.
///
/// Replacement for `proptest!`: each case gets an [`Rng`] seeded from a
/// fixed base (overridable via `LEGOSDN_TESTKIT_SEED`), so failures
/// reproduce exactly. On panic the failing case's seed is printed before
/// the panic propagates — re-run with that seed to debug:
///
/// ```text
/// LEGOSDN_TESTKIT_SEED=42 cargo test -p legosdn-netlog
/// ```
pub fn forall(cases: u32, mut body: impl FnMut(&mut Rng)) {
    let base: u64 = std::env::var("LEGOSDN_TESTKIT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_1E60_5D4E_0001);
    for case in 0..cases {
        let seed = base.wrapping_add(u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = Rng::seed_from_u64(seed);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = outcome {
            eprintln!(
                "testkit: property failed at case {case}/{cases} \
                 (LEGOSDN_TESTKIT_SEED={base}, case seed {seed:#x})"
            );
            panic::resume_unwind(payload);
        }
    }
}

/// Run `body` on a thread of its own and fail if it panics, or if it has
/// not returned within `limit`: a test of code that can hang fails rather
/// than wedge the suite. The thread of a body that hangs is left behind.
pub fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(limit) {
        Ok(()) => {}
        Err(RecvTimeoutError::Timeout) => panic!("not done within {limit:?}"),
        Err(RecvTimeoutError::Disconnected) => panic!("the body panicked"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = rng.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let s = rng.gen_range(-5i32..5);
            assert!((-5..5).contains(&s));
            let i = rng.gen_range_inclusive(1u8..=32);
            assert!((1..=32).contains(&i));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = Rng::seed_from_u64(4);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(5);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "p=0.25 gave {hits}/10000");
    }

    #[test]
    fn forall_is_deterministic() {
        let mut first = Vec::new();
        forall(5, |rng| first.push(rng.next_u64()));
        let mut second = Vec::new();
        forall(5, |rng| second.push(rng.next_u64()));
        assert_eq!(first, second);
    }

    #[test]
    fn gen_vec_length_in_range() {
        let mut rng = Rng::seed_from_u64(6);
        for _ in 0..100 {
            let v = rng.gen_vec(0..10, |r| r.next_u64());
            assert!(v.len() < 10);
        }
    }
}
