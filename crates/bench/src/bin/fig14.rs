//! Reproduces Fig. 14 of the paper: accuracy (a) and speedup (b) of views-based
//! differencing relative to the optimized-LCS baseline over the injected-bug dataset.
//!
//! Run with `cargo run -p rprism-bench --bin fig14 --release [-- <bugs> <script_length>]`.

use std::collections::BTreeMap;

use rprism::Engine;
use rprism_bench::{
    accuracy_bucket, format_histogram, format_table, rhino_eval_dataset, speedup_bucket,
};
use rprism_diff::{LcsDiffOptions, MemoryBudget};

fn main() {
    let mut args = std::env::args().skip(1);
    let bugs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(14);
    let script_length: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(60);

    println!("Fig. 14 reproduction — {bugs} injected bugs, script length {script_length}");
    println!("(accuracy and speedup of views-based differencing vs optimized LCS)\n");

    let dataset = rhino_eval_dataset(bugs, script_length);
    let mut accuracy_hist: BTreeMap<String, usize> = BTreeMap::new();
    let mut speedup_hist: BTreeMap<String, usize> = BTreeMap::new();
    let mut rows = Vec::new();
    // The paper gives the baseline a 32 GB server; scale the budget to this harness.
    let lcs_budget = MemoryBudget::gib(2);

    // One session per algorithm; both diff the same prepared handles, so each trace's
    // event keys are derived once and shared between the two runs.
    let views_engine = Engine::new();
    let lcs_engine = Engine::builder()
        .lcs_baseline(LcsDiffOptions {
            memory_budget: lcs_budget,
            linear_space: false,
        })
        .build();

    for bug in &dataset {
        let traces = match bug.scenario.trace_all() {
            Ok(t) => t,
            Err(e) => {
                eprintln!("skipping {}: {e}", bug.scenario.name);
                continue;
            }
        };
        let left = &traces.traces.old_regressing;
        let right = &traces.traces.new_regressing;
        let views = views_engine.diff(left, right).expect("views never fails");
        let lcs = lcs_engine.diff(left, right);

        // The paper's baseline fails with memory exhaustion on the longest traces; the
        // views result still counts, with accuracy/speedup reported as unbounded.
        let (accuracy, speedup, lcs_diffs) = match &lcs {
            Ok(lcs) => (
                views.accuracy_vs(lcs),
                lcs.cost.compare_ops as f64 / views.cost.compare_ops.max(1) as f64,
                lcs.num_differences().to_string(),
            ),
            Err(_) => (f64::INFINITY, f64::INFINITY, "OOM".to_owned()),
        };

        if accuracy.is_finite() {
            *accuracy_hist.entry(accuracy_bucket(accuracy)).or_insert(0) += 1;
        }
        if speedup.is_finite() {
            *speedup_hist.entry(speedup_bucket(speedup)).or_insert(0) += 1;
        }
        rows.push(vec![
            bug.scenario.name.clone(),
            bug.mutation.cause.label().to_owned(),
            left.len().to_string(),
            views.num_differences().to_string(),
            lcs_diffs,
            if accuracy.is_finite() {
                format!("{:.1}%", accuracy * 100.0)
            } else {
                "n/a (LCS OOM)".to_owned()
            },
            if speedup.is_finite() {
                format!("{speedup:.1}x")
            } else {
                "inf".to_owned()
            },
        ]);
    }

    println!(
        "{}",
        format_table(
            &[
                "bug",
                "cause",
                "trace",
                "views diffs",
                "lcs diffs",
                "accuracy",
                "speedup"
            ],
            &rows
        )
    );
    println!(
        "{}",
        format_histogram("Fig. 14(a) — accuracy (RPrism vs LCS)", &accuracy_hist)
    );
    println!(
        "{}",
        format_histogram(
            "Fig. 14(b) — speedup (compare operations, RPrism vs LCS)",
            &speedup_hist
        )
    );
}
