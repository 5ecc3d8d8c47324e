//! The common result type shared by the LCS-based and views-based trace differencers.

use std::time::Duration;

use rprism_trace::Trace;

use crate::cost::CostStats;
use crate::matching::{DiffSequence, Matching};

/// The outcome of differencing a pair of traces (left = original/old, right = new).
#[derive(Clone, Debug)]
pub struct TraceDiffResult {
    /// The similarity set Π: pairs of entries considered semantically equivalent.
    pub matching: Matching,
    /// Contiguous difference sequences derived from the matching.
    pub sequences: Vec<DiffSequence>,
    /// Resource usage of the differencing run.
    pub cost: CostStats,
    /// Wall-clock time of the differencing run.
    pub elapsed: Duration,
    /// A label identifying which algorithm produced the result (`"lcs"`, `"views"`, …).
    pub algorithm: &'static str,
}

impl TraceDiffResult {
    /// Number of distinct differing entries across both traces (the paper's
    /// "Num Diffs." column).
    pub fn num_differences(&self) -> usize {
        self.matching.num_differences()
    }

    /// Number of difference sequences (the paper's "Diff. Seqs." column).
    pub fn num_sequences(&self) -> usize {
        self.sequences.len()
    }

    /// Number of entries judged similar across the two traces.
    pub fn num_similar(&self) -> usize {
        self.matching.len()
    }

    /// The paper's *accuracy* metric for this result relative to a baseline result over
    /// the same trace pair (§5.1):
    ///
    /// ```text
    /// accuracy = ((totalEntries − thisNumDiffs) / totalEntries)
    ///          / ((totalEntries − baselineNumDiffs) / totalEntries)
    /// ```
    ///
    /// Values above 1.0 mean this algorithm found more semantic correlations (fewer
    /// differences) than the baseline.
    pub fn accuracy_vs(&self, baseline: &TraceDiffResult) -> f64 {
        let total = (self.matching.left_len() + self.matching.right_len()) as f64;
        if total == 0.0 {
            return 1.0;
        }
        let ours = (total - self.num_differences() as f64) / total;
        let theirs = (total - baseline.num_differences() as f64) / total;
        if theirs == 0.0 {
            return if ours == 0.0 { 1.0 } else { f64::INFINITY };
        }
        ours / theirs
    }

    /// Renders the difference sequences against the two traces as a human-readable
    /// semantic diff, in the spirit of the listing in the paper's Fig. 13.
    pub fn render(&self, left: &Trace, right: &Trace, max_sequences: usize) -> String {
        self.render_with(
            max_sequences,
            |idx| left.entries.get(idx).map(|e| e.render()),
            |idx| right.entries.get(idx).map(|e| e.render()),
        )
    }

    /// [`TraceDiffResult::render`] with pluggable entry renderers, for callers whose
    /// traces are not fully materialized (streamed handles render a compact context
    /// line per entry instead). The closures return `None` for out-of-range indices,
    /// which are skipped.
    pub fn render_with(
        &self,
        max_sequences: usize,
        mut left_entry: impl FnMut(usize) -> Option<String>,
        mut right_entry: impl FnMut(usize) -> Option<String>,
    ) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "semantic diff ({}) — {} differences in {} sequences\n",
            self.algorithm,
            self.num_differences(),
            self.num_sequences()
        ));
        for (i, seq) in self.sequences.iter().take(max_sequences).enumerate() {
            out.push_str(&format!(
                "-- sequence {} ({:?}, {} entries)\n",
                i + 1,
                seq.kind(),
                seq.len()
            ));
            for idx in &seq.left {
                if let Some(rendered) = left_entry(*idx) {
                    out.push_str(&format!("  - {rendered}\n"));
                }
            }
            for idx in &seq.right {
                if let Some(rendered) = right_entry(*idx) {
                    out.push_str(&format!("  + {rendered}\n"));
                }
            }
        }
        if self.sequences.len() > max_sequences {
            out.push_str(&format!(
                "... {} more sequences\n",
                self.sequences.len() - max_sequences
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(left_len: usize, right_len: usize, pairs: Vec<(usize, usize)>) -> TraceDiffResult {
        let matching = Matching::from_pairs(left_len, right_len, pairs);
        let sequences = matching.difference_sequences();
        TraceDiffResult {
            matching,
            sequences,
            cost: CostStats::default(),
            elapsed: Duration::ZERO,
            algorithm: "test",
        }
    }

    #[test]
    fn accuracy_above_one_when_fewer_differences() {
        let better = result(10, 10, (0..9).map(|i| (i, i)).collect());
        let worse = result(10, 10, (0..6).map(|i| (i, i)).collect());
        assert!(better.accuracy_vs(&worse) > 1.0);
        assert!((better.accuracy_vs(&better) - 1.0).abs() < 1e-9);
        assert!(worse.accuracy_vs(&better) < 1.0);
    }

    #[test]
    fn accuracy_of_empty_traces_is_one() {
        let a = result(0, 0, vec![]);
        let b = result(0, 0, vec![]);
        assert_eq!(a.accuracy_vs(&b), 1.0);
    }

    #[test]
    fn render_reports_counts_and_truncates() {
        let r = result(4, 4, vec![(0, 0), (2, 2)]);
        let left = Trace::named("L");
        let right = Trace::named("R");
        let text = r.render(&left, &right, 1);
        assert!(text.contains("differences"));
        assert!(text.contains("more sequences"));
    }
}
