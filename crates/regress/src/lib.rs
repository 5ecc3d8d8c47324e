//! # rprism-regress
//!
//! Regression-cause analysis (paper §4) built on views-based trace differencing: given
//! traces of an original and a regressing program version under a regressing test case and
//! a similar passing test case, compute the suspected (A), expected (B) and regression (C)
//! difference sets, derive the candidate causes `D = (A − B) ∩ C` (or the code-removal
//! variant `(A − B) − C`), and classify the suspected comparison's difference sequences as
//! regression-related or not.
//!
//! * [`analysis`] — the sets, the algorithm and the [`RegressionReport`];
//! * [`sets`] — version-independent difference signatures and set algebra;
//! * [`metrics`] — accuracy / speedup (Fig. 14) and false-positive / false-negative
//!   evaluation against ground truth (Table 1);
//! * [`report`] — human-readable rendering of the semantic diff and candidate causes.

pub mod analysis;
pub mod metrics;
pub mod report;
pub mod sets;
mod sets_differential;

pub use analysis::{
    analyze_prepared, analyze_prepared_with, AnalysisComparison, AnalysisMode, DiffAlgorithm,
    PreparedInput, RegressionReport,
};
pub use metrics::{accuracy, evaluate, speedup, GroundTruth, QualityMetrics};
pub use report::{render_report, render_report_with, RenderOptions};
pub use sets::{DiffSet, DiffSignature};
