//! Human-readable rendering of regression reports.
//!
//! The paper emphasizes that besides the candidate causes, the tool outputs "a full
//! semantic diff between the original and new versions, allowing these potential causes to
//! be viewed in their full context, with dynamic state" (§1). This module renders that
//! report: candidate sequences first (with their entries and dynamic values), then a
//! summary of the analysis sets.

use rprism_trace::Trace;

use crate::analysis::RegressionReport;

/// Options controlling how much of the report is rendered.
#[derive(Clone, Copy, Debug)]
pub struct RenderOptions {
    /// Maximum number of regression-related sequences rendered in full.
    pub max_regression_sequences: usize,
    /// Maximum number of entries rendered per sequence.
    pub max_entries_per_sequence: usize,
    /// Whether non-regression sequences are listed (one line each).
    pub list_unrelated_sequences: bool,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            max_regression_sequences: 10,
            max_entries_per_sequence: 12,
            list_unrelated_sequences: false,
        }
    }
}

/// Renders the report as text.
pub fn render_report(
    report: &RegressionReport,
    old_regressing: &Trace,
    new_regressing: &Trace,
    options: &RenderOptions,
) -> String {
    render_report_with(
        report,
        options,
        |idx| old_regressing.entries.get(idx).map(|e| e.render()),
        |idx| new_regressing.entries.get(idx).map(|e| e.render()),
    )
}

/// [`render_report`] with pluggable entry renderers, for callers whose traces are not
/// fully materialized (streamed handles render a compact context line per entry
/// instead). The closures return `None` for out-of-range indices, which are skipped.
pub fn render_report_with(
    report: &RegressionReport,
    options: &RenderOptions,
    mut left_entry: impl FnMut(usize) -> Option<String>,
    mut right_entry: impl FnMut(usize) -> Option<String>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "regression cause analysis ({} differencing)\n",
        report.algorithm
    ));
    out.push_str(&format!(
        "  |A| suspected = {}   |B| expected = {}   |C| regression = {}   |D| candidates = {}\n",
        report.suspected.len(),
        report.expected.len(),
        report.regression.len(),
        report.candidates.len()
    ));
    out.push_str(&format!(
        "  difference sequences: {} total, {} regression-related\n",
        report.suspected_diff.sequences.len(),
        report.num_regression_sequences()
    ));
    out.push_str(&format!(
        "  analysis: {:.3}s, {} compare ops, {:.2} MiB peak\n\n",
        report.analysis_time.as_secs_f64(),
        report.compare_ops,
        report.peak_bytes as f64 / (1024.0 * 1024.0)
    ));

    let mut shown = 0usize;
    let classified = report.suspected_diff.sequences.iter().zip(&report.verdicts);
    for (i, (sequence, &related)) in classified.enumerate() {
        if !related {
            continue;
        }
        if shown >= options.max_regression_sequences {
            out.push_str("  ... further regression-related sequences elided\n");
            break;
        }
        shown += 1;
        out.push_str(&format!(
            "  candidate sequence #{} ({} entries)\n",
            i + 1,
            sequence.len()
        ));
        let mut printed = 0usize;
        for idx in &sequence.left {
            if printed >= options.max_entries_per_sequence {
                break;
            }
            if let Some(rendered) = left_entry(*idx) {
                out.push_str(&format!("    - {rendered}\n"));
                printed += 1;
            }
        }
        for idx in &sequence.right {
            if printed >= options.max_entries_per_sequence {
                break;
            }
            if let Some(rendered) = right_entry(*idx) {
                out.push_str(&format!("    + {rendered}\n"));
                printed += 1;
            }
        }
    }

    if options.list_unrelated_sequences {
        let unrelated = report.suspected_diff.sequences.len() - report.num_regression_sequences();
        out.push_str(&format!(
            "\n  {unrelated} difference sequences judged unrelated to the regression\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::tests::{run, RegressionTraces};
    use crate::analysis::{AnalysisMode, DiffAlgorithm};
    use rprism_diff::ViewsDiffOptions;
    use rprism_lang::parser::parse_program;
    use rprism_trace::TraceMeta;
    use rprism_vm::{run_traced, VmConfig};

    fn trace(min: i64, doc: &str) -> Trace {
        let src = format!(
            r#"
            class Num extends Object {{ Int min; Int max; }}
            class SP extends Object {{
                Num conv;
                Unit setup(Str ty) {{ if (ty == "html") {{ this.conv = new Num({min}, 127); }} }}
            }}
            main {{ let sp = new SP(null); sp.setup("{doc}"); }}
            "#
        );
        run_traced(
            &parse_program(&src).unwrap(),
            TraceMeta::default(),
            VmConfig::default(),
        )
        .unwrap()
        .trace
    }

    #[test]
    fn report_renders_sets_and_candidate_entries() {
        let traces = RegressionTraces {
            old_regressing: trace(32, "html"),
            new_regressing: trace(1, "html"),
            old_passing: trace(32, "text"),
            new_passing: trace(1, "text"),
        };
        let report = run(
            &traces,
            &DiffAlgorithm::Views(ViewsDiffOptions::default()),
            AnalysisMode::Intersect,
        )
        .unwrap();
        let text = render_report(
            &report,
            &traces.old_regressing,
            &traces.new_regressing,
            &RenderOptions {
                list_unrelated_sequences: true,
                ..RenderOptions::default()
            },
        );
        assert!(text.contains("|A| suspected"));
        assert!(text.contains("candidates"));
        assert!(text.contains("regression-related"));
        // The rendered candidate entries include the dynamic value of the bad range.
        assert!(text.contains("Num"), "report was:\n{text}");
    }
}
