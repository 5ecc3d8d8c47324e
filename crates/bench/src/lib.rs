//! # rprism-bench
//!
//! The evaluation harness: shared plumbing for the binaries and Criterion benches that
//! regenerate the tables and figures of the paper's §5 (see `EXPERIMENTS.md` at the
//! workspace root for the experiment index and how to run each one).
//!
//! Binaries (each prints one artifact of the paper):
//!
//! * `fig14` — the accuracy and speedup histograms of Fig. 14 over the Rhino-like
//!   injected-bug dataset;
//! * `table1` — the per-benchmark characteristics of Table 1 (LCS-based vs views-based
//!   regression analysis on the four case studies);
//! * `table2` — the view counts and analysis-set sizes of Table 2;
//! * `motivating` — the §3.4 / Fig. 13 worked example on the MyFaces-style scenario;
//! * `ablation` — sensitivity of the views-based differencer to its window/Δ/relaxation
//!   parameters (design-choice ablation).

pub mod measure;
pub mod seed_baseline;

use std::collections::BTreeMap;

use rprism::Engine;
use rprism_diff::{
    views_diff_sides, DiffSide, LcsDiffOptions, MemoryBudget, TraceDiffResult, ViewsDiffOptions,
};
use rprism_regress::{evaluate, QualityMetrics, RegressionReport};
use rprism_trace::{par, KeyedTrace, LeanTrace, Trace};
use rprism_views::ViewWeb;
use rprism_workloads::scenario::{suspected_trace_entries, Scenario, ScenarioTraces};
use rprism_workloads::{dataset, InjectedBug, RhinoConfig};

/// One-shot views differencing: both traces' lean contexts, view webs and keys are
/// built from scratch (the two sides as a [`par::join`]) and then diffed with
/// [`views_diff_sides`]. This is the cold pipeline a caller without prepared handles
/// pays on every call, and the keyed side every comparison against the frozen seed
/// baseline runs.
pub fn cold_views_diff(left: &Trace, right: &Trace, options: &ViewsDiffOptions) -> TraceDiffResult {
    let prepare = |trace: &Trace| {
        (
            LeanTrace::build(trace),
            KeyedTrace::build(trace),
            ViewWeb::build(trace),
        )
    };
    let ((ll, lk, lw), (rl, rk, rw)) = par::join(|| prepare(left), || prepare(right));
    views_diff_sides(
        &DiffSide::lean(&ll, &lk, &lw),
        &DiffSide::lean(&rl, &rk, &rw),
        options,
    )
}

/// Renders a simple fixed-width text table.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let render_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&render_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out
}

/// Renders a textual histogram: one line per bucket with a bar of `#` characters.
pub fn format_histogram(title: &str, buckets: &BTreeMap<String, usize>) -> String {
    let mut out = format!("{title}\n");
    for (label, count) in buckets {
        out.push_str(&format!(
            "  {label:>8} | {}  ({count})\n",
            "#".repeat(*count)
        ));
    }
    out
}

/// Buckets an accuracy value the way Fig. 14(a) does.
pub fn accuracy_bucket(accuracy: f64) -> String {
    let pct = accuracy * 100.0;
    for bound in [99.0, 100.0, 105.0, 110.0, 125.0, 150.0, 200.0] {
        if pct <= bound {
            return format!("<={bound:.0}%");
        }
    }
    ">200%".to_owned()
}

/// Buckets a speedup value the way Fig. 14(b) does.
pub fn speedup_bucket(speedup: f64) -> String {
    for bound in [
        0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0, 2500.0, 5000.0,
    ] {
        if speedup <= bound {
            return format!("<={bound}x");
        }
    }
    ">5000x".to_owned()
}

/// The default Rhino-like evaluation dataset used by `fig14` and the ablation harness.
pub fn rhino_eval_dataset(bugs: usize, script_length: usize) -> Vec<InjectedBug> {
    let template = RhinoConfig {
        seed: 0,
        modules: 6,
        script_length,
        max_injection_attempts: 40,
    };
    dataset(100, bugs, &template)
}

/// One measured row of the Table 1 reproduction.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Scenario name.
    pub name: String,
    /// Approximate source size of the scenario (pretty-printed lines).
    pub loc: usize,
    /// Entries in the suspected comparison's traces.
    pub trace_entries: usize,
    /// Seconds spent tracing the four runs.
    pub tracing_secs: f64,
    /// Results of the LCS-based analysis (`None` when it ran out of memory).
    pub lcs: Option<AlgoRow>,
    /// Results of the views-based analysis.
    pub views: AlgoRow,
    /// Wall-clock speedup of views over LCS (when LCS completed).
    pub speedup: Option<f64>,
}

/// The per-algorithm columns of Table 1.
#[derive(Clone, Debug)]
pub struct AlgoRow {
    /// Total distinct differences in the suspected comparison.
    pub num_diffs: usize,
    /// Number of difference sequences.
    pub diff_seqs: usize,
    /// Number of sequences reported as regression-related.
    pub regression_seqs: usize,
    /// False positives against ground truth.
    pub false_pos: usize,
    /// False negatives against ground truth.
    pub false_neg: usize,
    /// Analysis wall-clock seconds (the three differencing runs plus set algebra).
    pub analysis_secs: f64,
    /// Peak working-set estimate in GiB.
    pub mem_gib: f64,
    /// Compare operations across the three differencing runs.
    pub compare_ops: u64,
}

fn algo_row(report: &RegressionReport, quality: &QualityMetrics) -> AlgoRow {
    AlgoRow {
        num_diffs: report.suspected.len(),
        diff_seqs: report.suspected_diff.sequences.len(),
        regression_seqs: report.num_regression_sequences(),
        false_pos: quality.false_positives,
        false_neg: quality.false_negatives,
        analysis_secs: report.analysis_time.as_secs_f64(),
        mem_gib: report.peak_bytes as f64 / (1024.0 * 1024.0 * 1024.0),
        compare_ops: report.compare_ops,
    }
}

/// Runs both analyses (LCS baseline and views-based) on one scenario, producing a Table 1
/// row. The LCS baseline runs under the given memory budget and its column is reported as
/// an out-of-memory failure when it exceeds it, as in the paper's Derby row.
pub fn table1_row(scenario: &Scenario, lcs_budget: MemoryBudget) -> Table1Row {
    let traces = scenario
        .trace_all()
        .expect("case-study scenarios always trace");

    // Both engines analyze the same prepared handles, so the traces' event keys are
    // derived once and shared between the views run and the LCS baseline run.
    let views_engine = Engine::builder()
        .views_options(ViewsDiffOptions::default())
        .build();
    let views_report = views_engine
        .analyze(&traces.traces)
        .expect("views-based analysis never fails");
    let views_quality = quality_of(scenario, &traces, &views_report);

    let lcs_engine = Engine::builder()
        .lcs_baseline(LcsDiffOptions {
            memory_budget: lcs_budget,
            linear_space: false,
        })
        .build();
    let lcs_result = lcs_engine.analyze(&traces.traces);
    let (lcs, speedup) = match lcs_result {
        Ok(report) => {
            let quality = quality_of(scenario, &traces, &report);
            let speedup = report.analysis_time.as_secs_f64()
                / views_report.analysis_time.as_secs_f64().max(1e-9);
            (Some(algo_row(&report, &quality)), Some(speedup))
        }
        Err(_) => (None, None),
    };

    Table1Row {
        name: scenario.name.clone(),
        loc: scenario.loc_estimate(),
        trace_entries: suspected_trace_entries(&traces),
        tracing_secs: traces.tracing_seconds,
        lcs,
        views: algo_row(&views_report, &views_quality),
        speedup,
    }
}

fn quality_of(
    scenario: &Scenario,
    traces: &ScenarioTraces,
    report: &RegressionReport,
) -> QualityMetrics {
    evaluate(
        report,
        &traces.traces.old_regressing,
        &traces.traces.new_regressing,
        &scenario.ground_truth,
    )
}

/// One measured row of the Table 2 reproduction: view counts of the original version's
/// regressing-test trace plus the analysis-set sizes.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Scenario name.
    pub name: String,
    /// Total number of views.
    pub total_views: usize,
    /// Thread views.
    pub thread_views: usize,
    /// Method views.
    pub method_views: usize,
    /// Target-object views.
    pub target_object_views: usize,
    /// |A| — suspected differences.
    pub a: usize,
    /// |B| — expected differences.
    pub b: usize,
    /// |C| — regression differences.
    pub c: usize,
    /// |D| — candidate causes.
    pub d: usize,
}

/// Computes a Table 2 row for one scenario using views-based differencing.
pub fn table2_row(scenario: &Scenario) -> Table2Row {
    let traces = scenario
        .trace_all()
        .expect("case-study scenarios always trace");
    let engine = Engine::builder()
        .views_options(ViewsDiffOptions::default())
        .build();
    let report = engine
        .analyze(&traces.traces)
        .expect("views-based analysis never fails");
    // The analysis above already built this web inside the prepared handle; counting
    // views reuses it instead of re-deriving.
    let counts = traces.traces.old_regressing.web().count_by_kind();
    Table2Row {
        name: scenario.name.clone(),
        total_views: counts.total(),
        thread_views: counts.thread,
        method_views: counts.method,
        target_object_views: counts.target_object,
        a: report.suspected.len(),
        b: report.expected.len(),
        c: report.regression.len(),
        d: report.candidates.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_aligns_columns() {
        let t = format_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-name".into(), "12345".into()],
            ],
        );
        assert!(t.contains("longer-name"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn buckets_cover_the_paper_ranges() {
        assert_eq!(accuracy_bucket(0.98), "<=99%");
        assert_eq!(accuracy_bucket(1.0), "<=100%");
        assert_eq!(accuracy_bucket(1.2), "<=125%");
        assert_eq!(accuracy_bucket(9.9), ">200%");
        assert_eq!(speedup_bucket(0.4), "<=0.5x");
        assert_eq!(speedup_bucket(70.0), "<=100x");
        assert_eq!(speedup_bucket(99999.0), ">5000x");
    }

    #[test]
    fn histogram_renders_bars() {
        let mut buckets = BTreeMap::new();
        buckets.insert("<=100%".to_owned(), 3);
        let h = format_histogram("Accuracy", &buckets);
        assert!(h.contains("###"));
    }

    #[test]
    fn table2_row_runs_on_the_smallest_case_study() {
        let scenario = rprism_workloads::casestudies::daikon::scenario();
        let row = table2_row(&scenario);
        assert!(row.total_views > 5);
        assert_eq!(row.thread_views, 1);
        assert!(row.a > 0);
        assert!(row.d <= row.a);
    }
}
