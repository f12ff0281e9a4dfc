//! Order statistics over small samples.

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method); a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |quarter: usize| {
        let j = (quarter * (n + 1) / 4).clamp(1, n - 1);
        let delta = (quarter * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The percentiles the tail may be reported at, lowest first, each with
/// the per-mille share of samples beyond it.
pub const TAIL_LADDER: [(f64, u64); 5] =
    [(75.0, 250), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The highest rung of [`TAIL_LADDER`] with at least ten of `samples`
/// beyond it; `None` when even the lowest has fewer.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|(_, beyond)| samples as u64 * beyond >= 10_000)
        .map(|(p, _)| *p)
}

/// Nearest-rank percentile of an ascending sample.
fn percentile_of_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of nanosecond samples, in microseconds; 0 with
/// no samples. Sorts `ns`.
pub fn percentile_us(ns: &mut [u64], p: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    percentile_of_sorted(ns, p) as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_of_sorted(&v, 50.0), 50);
        assert_eq!(percentile_of_sorted(&v, 99.0), 99);
        assert_eq!(percentile_of_sorted(&v, 100.0), 100);
        assert_eq!(percentile_of_sorted(&[7], 99.9), 7);
        assert_eq!(percentile_us(&mut [3_000, 1_000, 2_000], 50.0), 2.0);
        assert_eq!(percentile_us(&mut [], 50.0), 0.0);
    }
}
