//! Evaluation metrics: accuracy, speedup, false positives/negatives (§5.1).
//!
//! These are the quantities reported in the paper's Fig. 14 and Table 1. Ground truth —
//! which code locations actually constitute the regression cause — is supplied by the
//! workload generators (they know what they injected) as a set of textual markers
//! (method, field and class names involved in the change).

use rprism_trace::Trace;

use crate::analysis::RegressionReport;

/// Ground truth about an injected (or historically documented) regression: markers
/// identifying the cause locations, e.g. `"Num.min"` or `"shouldAddInv2"`.
#[derive(Clone, Debug, Default)]
pub struct GroundTruth {
    /// Substrings that identify a regression-cause location when they appear in the
    /// rendering of a trace entry.
    pub markers: Vec<String>,
}

impl GroundTruth {
    /// Ground truth with the given markers.
    pub fn new(markers: impl IntoIterator<Item = impl Into<String>>) -> Self {
        GroundTruth {
            markers: markers.into_iter().map(Into::into).collect(),
        }
    }

    /// Returns `true` when the rendered entry mentions any cause marker.
    pub fn matches(&self, rendered: &str) -> bool {
        self.markers.iter().any(|m| rendered.contains(m.as_str()))
    }
}

/// Precision/recall style quality metrics of one analysis run against ground truth.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QualityMetrics {
    /// Total difference sequences in the suspected comparison.
    pub total_sequences: usize,
    /// Sequences reported as regression-related.
    pub reported_sequences: usize,
    /// Reported sequences that do not touch any ground-truth marker (false positives).
    pub false_positives: usize,
    /// Ground-truth markers not covered by any reported sequence (false negatives).
    pub false_negatives: usize,
    /// Ground-truth markers covered by at least one reported sequence.
    pub covered_markers: usize,
}

/// Evaluates a regression report against ground truth.
///
/// A reported sequence is a *true* positive when at least one of its differing entries
/// (looked up in the old/new regressing traces) mentions a ground-truth marker; a marker
/// is *covered* when some reported sequence mentions it.
pub fn evaluate(
    report: &RegressionReport,
    old_regressing: &Trace,
    new_regressing: &Trace,
    ground_truth: &GroundTruth,
) -> QualityMetrics {
    let mut metrics = QualityMetrics {
        total_sequences: report.suspected_diff.sequences.len(),
        ..QualityMetrics::default()
    };

    let mut covered = vec![false; ground_truth.markers.len()];
    for sequence in report.regression_sequences() {
        metrics.reported_sequences += 1;
        let mut touches_truth = false;
        let rendered: Vec<String> = (sequence.left.iter())
            .filter_map(|i| old_regressing.entries.get(*i))
            .chain((sequence.right.iter()).filter_map(|i| new_regressing.entries.get(*i)))
            .map(|e| e.render())
            .collect();
        for text in &rendered {
            for (mi, marker) in ground_truth.markers.iter().enumerate() {
                if text.contains(marker.as_str()) {
                    covered[mi] = true;
                    touches_truth = true;
                }
            }
        }
        if !touches_truth {
            metrics.false_positives += 1;
        }
    }
    metrics.covered_markers = covered.iter().filter(|c| **c).count();
    metrics.false_negatives = ground_truth.markers.len() - metrics.covered_markers;
    metrics
}

/// The paper's accuracy metric (§5.1 "Measurements") comparing the number of semantic
/// correlations found by RPrism against the LCS baseline, expressed as a ratio:
///
/// ```text
/// accuracy = ((total − rprismDiffs) / total) / ((total − lcsDiffs) / total)
/// ```
pub fn accuracy(total_entries: usize, rprism_diffs: usize, lcs_diffs: usize) -> f64 {
    if total_entries == 0 {
        return 1.0;
    }
    let total = total_entries as f64;
    let ours = (total - rprism_diffs as f64) / total;
    let theirs = (total - lcs_diffs as f64) / total;
    if theirs <= 0.0 {
        return if ours <= 0.0 { 1.0 } else { f64::INFINITY };
    }
    ours / theirs
}

/// The paper's speedup metric: LCS compare operations divided by RPrism compare
/// operations.
pub fn speedup(lcs_compare_ops: u64, rprism_compare_ops: u64) -> f64 {
    if rprism_compare_ops == 0 {
        return f64::INFINITY;
    }
    lcs_compare_ops as f64 / rprism_compare_ops as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_formula_matches_paper_definition() {
        // 1000 entries, RPrism finds 50 diffs, LCS finds 100 diffs: RPrism correlates more.
        let a = accuracy(1000, 50, 100);
        assert!(a > 1.0);
        assert!((accuracy(1000, 100, 100) - 1.0).abs() < 1e-9);
        assert!(accuracy(1000, 200, 100) < 1.0);
        assert_eq!(accuracy(0, 0, 0), 1.0);
        // Degenerate: LCS marks everything different.
        assert!(accuracy(10, 5, 10).is_infinite());
    }

    #[test]
    fn speedup_is_compare_op_ratio() {
        assert_eq!(speedup(1000, 10), 100.0);
        assert!(speedup(10, 1000) < 1.0);
        assert!(speedup(5, 0).is_infinite());
    }

    #[test]
    fn ground_truth_matching_is_substring_based() {
        let gt = GroundTruth::new([".min", "shouldAddInv2"]);
        assert!(gt.matches("set Num-1.min = 1"));
        assert!(!gt.matches("set Other-1.max = 5"));
        assert!(GroundTruth::default().markers.is_empty());
    }
}
