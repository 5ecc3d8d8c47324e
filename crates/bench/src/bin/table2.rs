//! Reproduces Table 2 of the paper: the number of views (in the original program version)
//! and the sizes of the regression-cause analysis sets A, B, C and D for each case study.
//!
//! Run with `cargo run -p rprism-bench --bin table2 --release`.

use rprism_bench::{format_table, table2_row};
use rprism_workloads::casestudies;

fn main() {
    println!("Table 2 reproduction — number of views and analysis-set sizes\n");

    let rows: Vec<Vec<String>> = casestudies::all()
        .iter()
        .map(|scenario| {
            let row = table2_row(scenario);
            vec![
                row.name,
                row.total_views.to_string(),
                row.thread_views.to_string(),
                row.method_views.to_string(),
                row.target_object_views.to_string(),
                row.a.to_string(),
                row.b.to_string(),
                row.c.to_string(),
                row.d.to_string(),
            ]
        })
        .collect();

    println!(
        "{}",
        format_table(
            &[
                "benchmark",
                "total views",
                "thread views",
                "method views",
                "target obj views",
                "|A|",
                "|B|",
                "|C|",
                "|D|"
            ],
            &rows
        )
    );
    println!(
        "A = suspected, B = expected, C = regression, D = candidate causes (D = (A − B) ∩ C)."
    );
}
