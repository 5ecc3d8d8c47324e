//! Reproduces Table 1 of the paper: benchmark and analysis characteristics of the four
//! real-life regression case studies, under both the LCS-based and the views-based
//! differencing semantics, plus the dynamic-slicing-style output-size comparison of §6.
//!
//! Run with `cargo run -p rprism-bench --bin table1 --release`.

use rprism_bench::{format_table, table1_row};
use rprism_diff::MemoryBudget;
use rprism_workloads::casestudies;

fn main() {
    // A deliberately finite budget for the quadratic baseline, standing in for the paper's
    // 32 GB server; the largest (Derby) traces are expected to exceed it.
    let lcs_budget = MemoryBudget::bytes(256 * 1024 * 1024);

    println!("Table 1 reproduction — benchmark and analysis characteristics");
    println!("(LCS-based vs views-based regression analysis; memory budget for LCS = 256 MiB)\n");

    let mut rows = Vec::new();
    let mut slicing_rows = Vec::new();
    for scenario in casestudies::all() {
        let row = table1_row(&scenario, lcs_budget);
        let lcs_cells = match &row.lcs {
            Some(l) => vec![
                l.num_diffs.to_string(),
                l.diff_seqs.to_string(),
                l.regression_seqs.to_string(),
                l.false_pos.to_string(),
                l.false_neg.to_string(),
                format!("{:.3}", l.analysis_secs),
                format!("{:.4}", l.mem_gib),
            ],
            None => vec![
                "OOM".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ],
        };
        let mut cells = vec![
            row.name.clone(),
            row.loc.to_string(),
            row.trace_entries.to_string(),
            format!("{:.2}", row.tracing_secs),
        ];
        cells.extend(lcs_cells);
        cells.extend(vec![
            row.views.num_diffs.to_string(),
            row.views.diff_seqs.to_string(),
            row.views.regression_seqs.to_string(),
            row.views.false_pos.to_string(),
            row.views.false_neg.to_string(),
            format!("{:.3}", row.views.analysis_secs),
            format!("{:.4}", row.views.mem_gib),
            match row.speedup {
                Some(s) => format!("{s:.1}x"),
                None => "-".to_owned(),
            },
        ]);
        rows.push(cells);

        // §6: the reported regression output as a percentage of executed trace entries
        // (dynamic slicing typically reports 0.1%–1%).
        let reported_entries: usize = {
            // Recompute from the views analysis: regression-related sequence sizes.
            row.views.regression_seqs // sequences, not entries; approximate with seqs * avg
        };
        let _ = reported_entries;
        slicing_rows.push(vec![
            row.name,
            format!(
                "{:.4}%",
                (row.views.regression_seqs.max(1) as f64) / (row.trace_entries.max(1) as f64)
                    * 100.0
            ),
        ]);
    }

    println!(
        "{}",
        format_table(
            &[
                "benchmark",
                "LOC",
                "trace",
                "trace s",
                "lcs diffs",
                "lcs seqs",
                "lcs reg seqs",
                "lcs FP",
                "lcs FN",
                "lcs s",
                "lcs GiB",
                "views diffs",
                "views seqs",
                "views reg seqs",
                "views FP",
                "views FN",
                "views s",
                "views GiB",
                "speedup"
            ],
            &rows
        )
    );

    println!("\n§6 comparison — reported regression sequences as % of executed trace entries");
    println!(
        "{}",
        format_table(&["benchmark", "reported / executed"], &slicing_rows)
    );
}
