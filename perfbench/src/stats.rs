//! Order statistics over measured samples.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice. Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Largest of `values`; `0.0` for an empty slice.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Nearest-rank percentile of an ascending slice. `per_100k` names the
/// percentile in units of 0.001% (p99.9 = 99_900). Integer arithmetic
/// keeps the rank exact: `0.999 * 10_000` in floating point is not 9990.
fn rank_of(per_100k: u64, n: usize) -> usize {
    let n = n as u64;
    (per_100k * n).div_ceil(100_000).max(1) as usize
}

/// Value at percentile `per_100k` of an ascending, non-empty slice.
pub fn percentile(sorted: &[f64], per_100k: u64) -> f64 {
    sorted[rank_of(per_100k, sorted.len()) - 1]
}

/// The highest percentile a sample supports: the one with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent (99.9 for p99.9).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first, in units of 0.001%.
const TAIL_CANDIDATES: [u64; 5] = [99_990, 99_900, 99_000, 90_000, 50_000];

/// The highest of p99.99, p99.9, p99, p90 and p50 that keeps at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with the sample count; `None`
/// when even the median has fewer than that beyond it. `sorted` must be
/// ascending.
pub fn tail_percentile(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_CANDIDATES.iter().find_map(|&p| {
        if n == 0 {
            return None;
        }
        let rank = rank_of(p, n);
        let beyond = n - rank;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            pct: p as f64 / 1000.0,
            value: sorted[rank - 1],
            beyond,
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn best_is_the_largest() {
        assert_eq!(best(&[3.0, 7.5, 1.0]), 7.5);
        assert_eq!(best(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50_000), 50.0);
        assert_eq!(percentile(&v, 99_000), 99.0);
        assert_eq!(percentile(&v, 100_000), 100.0);
    }
}
