//! Minimal measurement utilities shared by the `harness = false` bench binaries and the
//! `perf_smoke` binary: environment-driven sample counts/sizes and a summary statistic
//! over a set of timed runs.

use std::fmt;
use std::time::Duration;

/// Summary statistics of one benchmarked configuration.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Configuration label (e.g. `"views"`).
    pub name: String,
    /// Trace length (entries per side) the configuration ran over.
    pub trace_len: usize,
    /// Fastest observed run.
    pub min: Duration,
    /// Median observed run.
    pub median: Duration,
    /// Mean over all runs.
    pub mean: Duration,
    /// Number of timed samples.
    pub samples: usize,
}

impl fmt::Display for Sample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>20} / {:>7} entries: min {:>10.3?}  median {:>10.3?}  mean {:>10.3?}  ({} samples)",
            self.name, self.trace_len, self.min, self.median, self.mean, self.samples
        )
    }
}

/// Summarizes a list of timed runs.
///
/// # Panics
///
/// Panics when `times` is empty.
pub fn summarize(name: &str, trace_len: usize, mut times: Vec<Duration>) -> Sample {
    assert!(!times.is_empty(), "no samples recorded");
    times.sort();
    let total: Duration = times.iter().sum();
    Sample {
        name: name.to_owned(),
        trace_len,
        min: times[0],
        median: times[times.len() / 2],
        mean: total / times.len() as u32,
        samples: times.len(),
    }
}

/// Number of timed samples per configuration: `RPRISM_BENCH_SAMPLES` or the default.
pub fn sample_env(default: usize) -> usize {
    std::env::var("RPRISM_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Benchmark sizes: comma-separated `RPRISM_BENCH_SIZES` or the defaults.
pub fn sizes_env(default: &[usize]) -> Vec<usize> {
    match std::env::var("RPRISM_BENCH_SIZES") {
        Ok(s) => s
            .split(',')
            .filter_map(|part| part.trim().parse().ok())
            .collect(),
        Err(_) => default.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_orders_statistics() {
        let s = summarize(
            "x",
            10,
            vec![
                Duration::from_millis(3),
                Duration::from_millis(1),
                Duration::from_millis(2),
            ],
        );
        assert_eq!(s.min, Duration::from_millis(1));
        assert_eq!(s.median, Duration::from_millis(2));
        assert_eq!(s.mean, Duration::from_millis(2));
        assert!(s.to_string().contains("median"));
    }

    #[test]
    fn sizes_parse_comma_lists() {
        assert_eq!(sizes_env(&[5, 6]), vec![5, 6]);
    }
}
