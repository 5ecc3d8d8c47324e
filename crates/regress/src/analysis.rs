//! The regression-cause analysis algorithm (paper §4.1).
//!
//! Given traces of the original (non-regressing) and new (regressing) program versions
//! under a regressing test case and a similar non-regressing test case, the analysis
//! computes:
//!
//! * **A** — the *suspected differences set*: old vs new under the regressing test,
//! * **B** — the *expected differences set*: old vs new under the passing test (differences
//!   due to ordinary program evolution, unlikely to be regression-related),
//! * **C** — the *regression differences set*: passing vs regressing test on the *new*
//!   version (differences caused by the differing inputs, which include the regression's
//!   trigger and manifestation),
//! * **D** — the candidate causes: `D = (A − B) ∩ C`, or `D = (A − B) − C` when the
//!   regression is suspected to be caused by *removed* code (§4.1's variant).
//!
//! Finally, the difference sequences of the suspected comparison are classified: a
//! sequence is reported as regression-related when it contains at least one difference
//! whose signature survives into D. The report holds each sequence once, in its
//! `suspected_diff`, and one verdict flag per sequence beside it.
//!
//! The algebra runs on signature hashes over the prepared sides (see [`crate::sets`]):
//! A, B and C are hashed sets of unmatched entries, D is computed by merges, and each
//! sequence entry is classified by a binary search of D. A [`DiffSignature`] is built
//! only for the four sets the report returns, once each, in canonical order.
//!
//! [`DiffSignature`]: crate::sets::DiffSignature

use std::time::{Duration, Instant};

use crate::sets::{DiffSet, SignatureSource};
use rprism_diff::{
    anchored_diff_prepared, lcs_diff_prepared, views_diff_sides, AnchoredDiffOptions, DiffError,
    DiffSequence, DiffSide, LcsDiffOptions, TraceDiffResult, ViewsDiffOptions,
};

/// The borrowed input of [`analyze_prepared`]: the four traces of the regression-cause
/// analysis as prepared [`DiffSide`]s. Nothing is owned, so the same prepared traces
/// can feed any number of analyses (and any number of plain diffs) without re-deriving
/// keys or webs — the session pattern `rprism::Engine` builds on.
#[derive(Clone, Copy, Debug)]
pub struct PreparedInput<'a> {
    /// Original (correct) version, regressing test case.
    pub old_regressing: DiffSide<'a>,
    /// New (regressing) version, regressing test case.
    pub new_regressing: DiffSide<'a>,
    /// Original version, similar but non-regressing test case.
    pub old_passing: DiffSide<'a>,
    /// New version, similar but non-regressing test case.
    pub new_passing: DiffSide<'a>,
}

/// Which differencing semantics the analysis uses for all three comparisons.
#[derive(Clone, Debug)]
pub enum DiffAlgorithm {
    /// The views-based differencing of §3.3 (RPrism proper).
    Views(ViewsDiffOptions),
    /// The LCS baseline of §3.2.
    Lcs(LcsDiffOptions),
    /// The anchor-based (patience/histogram) mode: near-linear on huge traces, valid
    /// but not necessarily maximal matchings — verdict-equivalent, not
    /// matching-identical, to the exact modes (see MIGRATION.md).
    Anchored(AnchoredDiffOptions),
}

impl DiffAlgorithm {
    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            DiffAlgorithm::Views(_) => "views",
            DiffAlgorithm::Lcs(_) => "lcs",
            DiffAlgorithm::Anchored(_) => "anchored",
        }
    }
}

/// How the candidate set D is computed from A, B and C.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum AnalysisMode {
    /// `D = (A − B) ∩ C` — the default, for regressions caused by added/changed code.
    #[default]
    Intersect,
    /// `D = (A − B) − C` — for regressions caused by *removal* of code in the new version.
    SubtractRegressionSet,
}

/// The complete output of one regression-cause analysis run.
#[derive(Clone, Debug)]
pub struct RegressionReport {
    /// Label of the differencing algorithm used.
    pub algorithm: &'static str,
    /// The suspected differences set A.
    pub suspected: DiffSet,
    /// The expected differences set B.
    pub expected: DiffSet,
    /// The regression differences set C.
    pub regression: DiffSet,
    /// The candidate causes D.
    pub candidates: DiffSet,
    /// The analysis mode that produced D.
    pub mode: AnalysisMode,
    /// The raw differencing result of the suspected comparison (old vs new, regressing
    /// test) — the semantic diff the developer ultimately inspects. Its `sequences`
    /// are the sequences the analysis classifies.
    pub suspected_diff: TraceDiffResult,
    /// One verdict per sequence of `suspected_diff.sequences`, in the same order:
    /// `true` when the sequence is regression-related (it contains a difference that
    /// survives into D).
    pub verdicts: Vec<bool>,
    /// Total wall-clock time of the three differencing runs plus the set algebra.
    ///
    /// Artifact preparation (keys, webs) is *excluded*: those are built once per trace,
    /// when its handle is made, and amortized across every query, so charging them
    /// to one analysis would misstate both.
    pub analysis_time: Duration,
    /// Sum of compare operations across the three differencing runs.
    pub compare_ops: u64,
    /// Peak working-set bytes across the three differencing runs.
    pub peak_bytes: u64,
}

impl RegressionReport {
    /// The difference sequences reported to the developer as regression-related.
    pub fn regression_sequences(&self) -> impl Iterator<Item = &DiffSequence> {
        (self.suspected_diff.sequences.iter())
            .zip(&self.verdicts)
            .filter_map(|(sequence, &related)| related.then_some(sequence))
    }

    /// Number of regression-related difference sequences (the paper's "Regression Diff.
    /// Seqs." column).
    pub fn num_regression_sequences(&self) -> usize {
        self.verdicts.iter().filter(|&&related| related).count()
    }
}

/// Which of the three §4.1 comparisons is being differenced — passed to the pluggable
/// differ of [`analyze_prepared_with`] so callers with pair-level caches (such as
/// `rprism::Engine`) know which trace pair a diff belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnalysisComparison {
    /// A — old vs new version under the regressing test.
    Suspected,
    /// B — old vs new version under the passing test.
    Expected,
    /// C — passing vs regressing test on the new version.
    Regression,
}

/// Runs the full regression-cause analysis over borrowed prepared artifacts: nothing is
/// copied, keys and webs are consumed as supplied, and the same [`PreparedInput`] sources
/// can feed any number of analyses.
///
/// # Errors
///
/// Returns a [`DiffError`] when the LCS baseline exhausts its memory budget on any of the
/// three comparisons (the views-based algorithm never fails).
pub fn analyze_prepared(
    input: &PreparedInput<'_>,
    algorithm: &DiffAlgorithm,
    mode: AnalysisMode,
) -> Result<RegressionReport, DiffError> {
    analyze_prepared_with(input, algorithm, mode, |_, left, right| match algorithm {
        DiffAlgorithm::Views(options) => Ok(views_diff_sides(&left, &right, options)),
        DiffAlgorithm::Lcs(options) => lcs_diff_prepared(left.keyed(), right.keyed(), options),
        DiffAlgorithm::Anchored(options) => {
            Ok(anchored_diff_prepared(left.keyed(), right.keyed(), options))
        }
    })
}

/// [`analyze_prepared`] with a pluggable differ: the three §4.1 comparisons are
/// delegated to `diff_pair`, which receives the [`AnalysisComparison`] being computed
/// plus the two prepared sides. This is the workhorse behind `rprism::Engine`'s
/// `analyze`/`analyze_many` — the engine's differ reuses its session-cached pair
/// correlations, so repeated analyses of the same input re-derive nothing.
///
/// The differ must compute the same matching the configured `algorithm` would (the
/// report's `algorithm` label and cost aggregation come from its results).
///
/// # Errors
///
/// Propagates the first `diff_pair` error, in comparison order (A, B, C).
pub fn analyze_prepared_with(
    input: &PreparedInput<'_>,
    algorithm: &DiffAlgorithm,
    mode: AnalysisMode,
    mut diff_pair: impl FnMut(
        AnalysisComparison,
        DiffSide<'_>,
        DiffSide<'_>,
    ) -> Result<TraceDiffResult, DiffError>,
) -> Result<RegressionReport, DiffError> {
    let start = Instant::now();
    // Hashed sets name entries by their side's position in `sides`.
    const OLD_REG: usize = 0;
    const NEW_REG: usize = 1;
    const OLD_PASS: usize = 2;
    const NEW_PASS: usize = 3;
    let sides = [
        input.old_regressing,
        input.new_regressing,
        input.old_passing,
        input.new_passing,
    ];
    let source = SignatureSource::new(&sides);

    // Step 1: A — old vs new under the regressing test.
    let suspected_diff = diff_pair(
        AnalysisComparison::Suspected,
        sides[OLD_REG],
        sides[NEW_REG],
    )?;
    let suspected = source.unmatched(&suspected_diff, OLD_REG, NEW_REG);

    // Step 2: B — old vs new under the passing test.
    let expected_diff = diff_pair(
        AnalysisComparison::Expected,
        sides[OLD_PASS],
        sides[NEW_PASS],
    )?;
    let expected = source.unmatched(&expected_diff, OLD_PASS, NEW_PASS);

    // Step 3: C — passing vs regressing test on the new version.
    let regression_diff = diff_pair(
        AnalysisComparison::Regression,
        sides[NEW_PASS],
        sides[NEW_REG],
    )?;
    let regression = source.unmatched(&regression_diff, NEW_PASS, NEW_REG);

    // Step 4: D.
    let a_minus_b = source.subtract(&suspected, &expected);
    let candidates = match mode {
        AnalysisMode::Intersect => source.intersect(&a_minus_b, &regression),
        AnalysisMode::SubtractRegressionSet => source.subtract(&a_minus_b, &regression),
    };

    // Classify the suspected comparison's difference sequences against D.
    let verdicts = (suspected_diff.sequences.iter())
        .map(|sequence| {
            (sequence.left.iter()).any(|&i| source.contains(&candidates, OLD_REG, i))
                || (sequence.right.iter()).any(|&i| source.contains(&candidates, NEW_REG, i))
        })
        .collect();

    let compare_ops = suspected_diff.cost.compare_ops
        + expected_diff.cost.compare_ops
        + regression_diff.cost.compare_ops;
    let peak_bytes = suspected_diff
        .cost
        .peak_bytes
        .max(expected_diff.cost.peak_bytes)
        .max(regression_diff.cost.peak_bytes);

    // D's signatures are copies of A's: it was computed from A by merges.
    let (suspected, candidates) = source.materialize_with_subset(&suspected, &candidates);
    Ok(RegressionReport {
        algorithm: algorithm.label(),
        suspected,
        expected: source.materialize(&expected),
        regression: source.materialize(&regression),
        candidates,
        mode,
        suspected_diff,
        verdicts,
        analysis_time: start.elapsed(),
        compare_ops,
        peak_bytes,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rprism_lang::parser::parse_program;
    use rprism_trace::{KeyedTrace, LeanTrace, Trace, TraceMeta};
    use rprism_views::ViewWeb;
    use rprism_vm::{run_traced, VmConfig};

    /// The four traces of one scenario, owned, for tests that build them from source.
    pub(crate) struct RegressionTraces {
        pub(crate) old_regressing: Trace,
        pub(crate) new_regressing: Trace,
        pub(crate) old_passing: Trace,
        pub(crate) new_passing: Trace,
    }

    /// Prepares keys and webs for the four traces and runs [`analyze_prepared`] — the
    /// borrowed-artifact path every caller now goes through.
    pub(crate) fn run(
        traces: &RegressionTraces,
        algorithm: &DiffAlgorithm,
        mode: AnalysisMode,
    ) -> Result<RegressionReport, DiffError> {
        let prep = |t: &Trace| (LeanTrace::build(t), KeyedTrace::build(t), ViewWeb::build(t));
        let (orl, ork, orw) = prep(&traces.old_regressing);
        let (nrl, nrk, nrw) = prep(&traces.new_regressing);
        let (opl, opk, opw) = prep(&traces.old_passing);
        let (npl, npk, npw) = prep(&traces.new_passing);
        analyze_prepared(
            &PreparedInput {
                old_regressing: DiffSide::lean(&orl, &ork, &orw),
                new_regressing: DiffSide::lean(&nrl, &nrk, &nrw),
                old_passing: DiffSide::lean(&opl, &opk, &opw),
                new_passing: DiffSide::lean(&npl, &npk, &npw),
            },
            algorithm,
            mode,
        )
    }

    /// The motivating-example shape: a conversion range initialized during request setup,
    /// consulted much later during processing; the regression flips the range's lower
    /// bound and only manifests for the "text/html" input.
    fn program(range_min: i64) -> String {
        format!(
            r#"
            class Log extends Object {{
                Int n;
                Unit addMsg(Str m) {{ this.n = this.n + 1; }}
            }}
            class Num extends Object {{
                Int min; Int max;
                Bool convert(Int c) {{ return (c < this.min) || (c > this.max); }}
            }}
            class SP extends Object {{
                Log log; Num conv; Int converted;
                Unit setRequestType(Str ty) {{
                    this.log.addMsg("Handling request");
                    if (ty == "text/html") {{
                        this.conv = new Num({range_min}, 127);
                    }}
                    this.log.addMsg("Set req type");
                }}
                Unit emit(Int c) {{
                    if (ty_is_html(this)) {{
                        if (this.conv.convert(c)) {{
                            this.converted = this.converted + 1;
                        }}
                    }}
                }}
            }}
            "#
        )
        .replace("ty_is_html(this)", "this.conv != null")
    }

    fn main_for(doc_type: &str) -> String {
        format!(
            r#"
            main {{
                let log = new Log(0);
                let sp = new SP(log, null, 0);
                sp.setRequestType("{doc_type}");
                sp.emit(20);
                sp.emit(64);
                sp.emit(200);
            }}
            "#
        )
    }

    fn trace(range_min: i64, doc_type: &str, name: &str) -> Trace {
        let src = format!("{}{}", program(range_min), main_for(doc_type));
        let p = parse_program(&src).unwrap();
        run_traced(&p, TraceMeta::new(name, "", ""), VmConfig::default())
            .unwrap()
            .trace
    }

    fn scenario() -> RegressionTraces {
        RegressionTraces {
            old_regressing: trace(32, "text/html", "old-reg"),
            new_regressing: trace(1, "text/html", "new-reg"),
            old_passing: trace(32, "text/plain", "old-pass"),
            new_passing: trace(1, "text/plain", "new-pass"),
        }
    }

    #[test]
    fn candidate_set_is_smaller_than_suspected_set() {
        let report = run(
            &scenario(),
            &DiffAlgorithm::Views(ViewsDiffOptions::default()),
            AnalysisMode::Intersect,
        )
        .unwrap();
        assert!(!report.suspected.is_empty(), "A must not be empty");
        assert!(!report.candidates.is_empty(), "D must not be empty");
        assert!(report.candidates.len() <= report.suspected.len());
        // The filtered result points at the changed range initialization: at least one
        // candidate mentions the Num class or its min field.
        let mentions_cause = report
            .candidates
            .iter()
            .any(|sig| sig.name_str() == Some("min") || sig.name_str() == Some("Num"));
        assert!(mentions_cause, "candidates: {:?}", report.candidates);
    }

    #[test]
    fn regression_sequences_are_a_subset_of_all_sequences() {
        let report = run(
            &scenario(),
            &DiffAlgorithm::Views(ViewsDiffOptions::default()),
            AnalysisMode::Intersect,
        )
        .unwrap();
        assert!(report.num_regression_sequences() <= report.suspected_diff.sequences.len());
        assert!(report.num_regression_sequences() >= 1);
    }

    #[test]
    fn passing_tests_only_produce_no_candidates() {
        // If the "regressing" test behaves identically in both versions (we use the
        // passing input for all four traces), A captures only version differences and C is
        // empty, so D must be empty.
        let traces = RegressionTraces {
            old_regressing: trace(32, "text/plain", "old-reg"),
            new_regressing: trace(1, "text/plain", "new-reg"),
            old_passing: trace(32, "text/plain", "old-pass"),
            new_passing: trace(1, "text/plain", "new-pass"),
        };
        let report = run(
            &traces,
            &DiffAlgorithm::Views(ViewsDiffOptions::default()),
            AnalysisMode::Intersect,
        )
        .unwrap();
        assert!(report.regression.is_empty());
        assert!(report.candidates.is_empty());
        assert_eq!(report.num_regression_sequences(), 0);
    }

    #[test]
    fn lcs_and_views_modes_both_run() {
        let views = run(
            &scenario(),
            &DiffAlgorithm::Views(ViewsDiffOptions::default()),
            AnalysisMode::Intersect,
        )
        .unwrap();
        let lcs = run(
            &scenario(),
            &DiffAlgorithm::Lcs(LcsDiffOptions::default()),
            AnalysisMode::Intersect,
        )
        .unwrap();
        assert_eq!(views.algorithm, "views");
        assert_eq!(lcs.algorithm, "lcs");
        assert!(views.compare_ops > 0 && lcs.compare_ops > 0);
    }

    #[test]
    fn subtract_mode_for_code_removal() {
        let report = run(
            &scenario(),
            &DiffAlgorithm::Views(ViewsDiffOptions::default()),
            AnalysisMode::SubtractRegressionSet,
        )
        .unwrap();
        // (A − B) − C never contains anything that Intersect-mode D contains together with
        // C; sanity-check the algebra: D_subtract ∩ C = ∅.
        let regression = report.regression.as_slice();
        assert!(report
            .candidates
            .iter()
            .all(|signature| regression.binary_search(signature).is_err()));
        assert_eq!(report.mode, AnalysisMode::SubtractRegressionSet);
    }
}
