//! Benchmark: cost of the views-based differencer under different exploration parameters
//! (Δ radius, δ window, relaxed correlation) — the performance side of the ablation
//! binary. `harness = false` with a built-in measurement loop (see `diff_scaling.rs` for
//! the measurement conventions).
//!
//! Run with `cargo bench -p rprism-bench --bench views_ablation`. Thread-pair scans and
//! correlation fan out over the host's cores; to time the same configurations on one
//! thread, run the bench under `taskset -c 0`.

use std::time::Instant;

use rprism::PreparedTrace;
use rprism_bench::measure::{sample_env, summarize};
use rprism_diff::{views_diff_sides, ViewsDiffOptions};
use rprism_workloads::{generate_bug, RhinoConfig};

fn scenario_traces() -> (PreparedTrace, PreparedTrace) {
    let bug = generate_bug(&RhinoConfig {
        seed: 7,
        modules: 5,
        script_length: 30,
        max_injection_attempts: 40,
    })
    .expect("seed 7 yields a bug");
    let traces = bug.scenario.trace_all().expect("traces");
    // Prepared handles: keys and webs are built once up front and shared by every
    // configuration. The timed window covers correlation + differencing — correlation
    // stays inside it so a run pinned to one core (`taskset -c 0`) measures the cost
    // of running that fanned-out stage on one thread.
    (traces.traces.old_regressing, traces.traces.new_regressing)
}

fn main() {
    let samples = sample_env(10);
    let (old, new) = scenario_traces();
    println!(
        "views_ablation — {samples} samples per configuration, traces {} / {} entries\n",
        old.len(),
        new.len()
    );

    let configs: Vec<(&str, ViewsDiffOptions)> = vec![
        ("default", ViewsDiffOptions::default()),
        (
            "no_secondary",
            ViewsDiffOptions {
                delta: 0,
                window: 0,
                ..Default::default()
            },
        ),
        (
            "wide",
            ViewsDiffOptions {
                delta: 4,
                window: 16,
                ..Default::default()
            },
        ),
        (
            "strict_correlation",
            ViewsDiffOptions {
                relaxed_correlation: false,
                ..Default::default()
            },
        ),
    ];
    let run = |options: &ViewsDiffOptions| views_diff_sides(&old.side(), &new.side(), options);
    for (label, options) in configs {
        // Warmup (also builds the handles' cached keys/webs on the first config).
        let _ = run(&options);
        let mut times = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            let r = run(&options);
            std::hint::black_box(&r);
            times.push(start.elapsed());
        }
        println!("{}", summarize(label, old.len(), times));
    }
}
