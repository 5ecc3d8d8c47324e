//! Generates Rhino-like workloads with injected regressions (following the paper's
//! root-cause distribution) and checks how precisely the analysis pins down each cause.
//!
//! The whole dataset is analyzed with one [`rprism::Engine::analyze_many`] call: the
//! regression analyses fan out over a bounded worker pool, results come back in input
//! order, and every scenario's four traces are prepared exactly once.
//!
//! Run with `cargo run --release --example rhino_bug_hunt [-- <bugs>]`.

use rprism::Engine;
use rprism_regress::evaluate;
use rprism_workloads::{dataset, RhinoConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bugs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let template = RhinoConfig {
        seed: 0,
        modules: 5,
        script_length: 30,
        max_injection_attempts: 40,
    };

    let injected = dataset(500, bugs, &template);
    let traced = injected
        .iter()
        .map(|bug| bug.scenario.trace_all())
        .collect::<Result<Vec<_>, _>>()?;
    let inputs: Vec<_> = traced.iter().map(|t| t.traces.clone()).collect();

    // One batch call analyzes every injected bug; each input carries its scenario's
    // analysis mode and its prepared trace handles.
    let engine = Engine::new();
    let reports = engine.analyze_many(&inputs)?;

    for ((bug, traces), report) in injected.iter().zip(&traced).zip(&reports) {
        let quality = evaluate(
            report,
            &traces.traces.old_regressing,
            &traces.traces.new_regressing,
            &bug.scenario.ground_truth,
        );
        println!(
            "{}: injected {} in {}.{} — {} diff sequences, {} regression-related, {} false positives, {} false negatives",
            bug.scenario.name,
            bug.mutation.cause.label(),
            bug.mutation.class,
            bug.mutation.method,
            report.suspected_diff.sequences.len(),
            report.num_regression_sequences(),
            quality.false_positives,
            quality.false_negatives,
        );
    }
    Ok(())
}
