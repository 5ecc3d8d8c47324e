//! Order statistics over latency samples. Percentiles are given in basis points
//! (1/100 of a percent) so every rank is exact integer arithmetic.

/// The value at percentile `bp` (basis points) by the nearest-rank rule: the
/// smallest sample with at least that share of the samples at or below it.
pub fn percentile(sorted: &[f64], bp: u64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), bp) - 1]
}

/// 1-based nearest rank of percentile `bp` among `n` samples.
fn rank(n: usize, bp: u64) -> usize {
    let n = n as u64;
    (bp * n).div_ceil(10_000).clamp(1, n) as usize
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 5_000)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Candidate tail percentiles in basis points, highest first. The ladder stops
/// at p99: beyond it, a run on a shared host measures the host's stalls.
const TAIL_LADDER: [u64; 6] = [9_900, 9_500, 9_000, 8_000, 7_500, 5_000];

/// The tail of a sample: the highest percentile of [`TAIL_LADDER`] with at least
/// ten samples beyond it, its value, and the sample count. Below 20 samples no
/// percentile qualifies and the median stands in.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The chosen percentile, in percent.
    pub percentile: f64,
    pub value: f64,
    pub n: usize,
}

pub fn tail(samples: &[f64]) -> Tail {
    let sorted = sorted(samples);
    let n = sorted.len();
    let bp = TAIL_LADDER
        .into_iter()
        .find(|&bp| n - rank(n, bp) >= 10)
        .unwrap_or(5_000);
    Tail {
        percentile: bp as f64 / 100.0,
        value: percentile(&sorted, bp),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reverse order: the picker must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond it.
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.n), (99.0, 990.0, 1000));
        // 999 samples: p99 leaves 9, so p95 (rank 950, 49 beyond) is the tail.
        let t = tail(&ramp(999));
        assert_eq!((t.percentile, t.value, t.n), (95.0, 950.0, 999));
        // Larger samples stay at the top of the ladder.
        let t = tail(&ramp(100_000));
        assert_eq!((t.percentile, t.value, t.n), (99.0, 99_000.0, 100_000));
        // 100 samples: p90 leaves 10; 199 samples: p95 leaves 9, p90 19.
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.value, t.n), (90.0, 90.0, 100));
        let t = tail(&ramp(199));
        assert_eq!((t.percentile, t.value, t.n), (90.0, 180.0, 199));
    }

    #[test]
    fn tail_of_a_small_sample_falls_back_to_the_median() {
        let t = tail(&ramp(15));
        assert_eq!((t.percentile, t.value, t.n), (50.0, 8.0, 15));
    }

    #[test]
    fn median_uses_the_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
