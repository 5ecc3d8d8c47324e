//! Ablation study over the views-based differencer's design parameters (the design choices
//! called out in `DESIGN.md`): the secondary-view exploration radius Δ, the secondary LCS
//! window size δ, and the §5 relaxed-correlation mode. For each configuration the harness
//! reports differences found, compare operations and analysis quality on the Rhino-like
//! dataset.
//!
//! Run with `cargo run -p rprism-bench --bin ablation --release [-- <bugs> <script_length>]`.

use rprism::PreparedTrace;
use rprism_bench::{format_table, rhino_eval_dataset};
use rprism_diff::{views_diff_sides_correlated, ViewsDiffOptions};
use rprism_views::Correlation;

fn main() {
    let mut args = std::env::args().skip(1);
    let bugs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);
    let script_length: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(40);

    let dataset = rhino_eval_dataset(bugs, script_length);
    println!(
        "Views-differencing ablation over {} injected bugs (script length {script_length})\n",
        dataset.len()
    );

    let configs: Vec<(&str, ViewsDiffOptions)> = vec![
        ("default (Δ=2, δ=8, relaxed)", ViewsDiffOptions::default()),
        (
            "no secondary views (Δ=0, δ=0)",
            ViewsDiffOptions {
                delta: 0,
                window: 0,
                ..Default::default()
            },
        ),
        (
            "narrow windows (Δ=1, δ=2)",
            ViewsDiffOptions {
                delta: 1,
                window: 2,
                ..Default::default()
            },
        ),
        (
            "wide windows (Δ=4, δ=16)",
            ViewsDiffOptions {
                delta: 4,
                window: 16,
                ..Default::default()
            },
        ),
        (
            "no relaxed correlation",
            ViewsDiffOptions {
                relaxed_correlation: false,
                ..Default::default()
            },
        ),
        (
            "short scan-ahead (16)",
            ViewsDiffOptions {
                max_scan_ahead: 16,
                ..Default::default()
            },
        ),
    ];

    // Trace every bug once up front: all six configurations diff the same prepared
    // handles, sharing each trace's event keys and view web AND each pair's view
    // correlation (a pure function of the two webs — the ablation varies only the
    // exploration knobs, which the correlation does not depend on).
    let prepared: Vec<(PreparedTrace, PreparedTrace, Correlation)> = dataset
        .iter()
        .filter_map(|bug| bug.scenario.trace_all().ok())
        .map(|traces| {
            let old = traces.traces.old_regressing;
            let new = traces.traces.new_regressing;
            let correlation = Correlation::build(old.web(), new.web());
            (old, new, correlation)
        })
        .collect();

    let mut rows = Vec::new();
    for (label, options) in &configs {
        let mut total_diffs = 0usize;
        let mut total_similar = 0usize;
        let mut total_compare_ops = 0u64;
        let mut total_entries = 0usize;
        for (old, new, correlation) in &prepared {
            let result =
                views_diff_sides_correlated(&old.side(), &new.side(), correlation, options);
            total_diffs += result.num_differences();
            total_similar += result.num_similar();
            total_compare_ops += result.cost.compare_ops;
            total_entries += old.len() + new.len();
        }
        rows.push(vec![
            (*label).to_owned(),
            total_diffs.to_string(),
            total_similar.to_string(),
            format!(
                "{:.1}%",
                100.0 * total_diffs as f64 / total_entries.max(1) as f64
            ),
            total_compare_ops.to_string(),
        ]);
    }

    println!(
        "{}",
        format_table(
            &[
                "configuration",
                "total diffs",
                "total similar",
                "diff ratio",
                "compare ops"
            ],
            &rows
        )
    );
    println!("Lower diff ratio = more semantic correlations recovered; compare ops = cost.");
}
