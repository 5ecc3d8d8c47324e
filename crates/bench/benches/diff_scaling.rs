//! Benchmark: scaling of LCS-based vs views-based trace differencing with trace length
//! (the performance half of the paper's §5.1 evaluation — views-based differencing is
//! linear, the LCS baseline quadratic).
//!
//! The workspace is dependency-free, so this is a `harness = false` bench binary with its
//! own measurement loop instead of a Criterion harness: each configuration runs a warmup
//! pass plus `RPRISM_BENCH_SAMPLES` timed samples (default 10) and reports the minimum,
//! median and mean wall time. Sizes can be overridden with `RPRISM_BENCH_SIZES`
//! (comma-separated iteration counts), which is what the CI bench job uses to keep its
//! runtime bounded.
//!
//! Run with `cargo bench -p rprism-bench --bench diff_scaling`.

use std::time::Instant;

use rprism_bench::cold_views_diff;
use rprism_bench::measure::{sample_env, sizes_env, summarize, Sample};
use rprism_diff::{lcs_diff, LcsDiffOptions, ViewsDiffOptions};
use rprism_lang::parser::parse_program;
use rprism_trace::{Trace, TraceMeta};
use rprism_vm::{run_traced, VmConfig};

/// Builds a pair of traces (original / regressing) whose length scales with `iterations`.
fn trace_pair(iterations: usize, min: i64) -> (Trace, Trace) {
    let src = |min: i64| {
        format!(
            r#"
            class Ctr extends Object {{ Int i; }}
            class Range extends Object {{ Int min; Int max; }}
            class App extends Object {{
                Range r;
                Int hits;
                Unit setup() {{ this.r = new Range({min}, 127); }}
                Unit check(Int c) {{
                    if ((c >= this.r.min) && (c <= this.r.max)) {{ this.hits = this.hits + 1; }}
                }}
            }}
            main {{
                let a = new App(null, 0);
                a.setup();
                let c = new Ctr(0);
                while (c.i < {iterations}) {{
                    a.check(c.i % 200);
                    c.i = c.i + 1;
                }}
            }}
            "#
        )
    };
    let run = |source: &str, label: &str| {
        run_traced(
            &parse_program(source).unwrap(),
            TraceMeta::new(label, "", ""),
            VmConfig::default(),
        )
        .unwrap()
        .trace
    };
    (run(&src(32), "old"), run(&src(min), "new"))
}

fn bench<F: FnMut()>(name: &str, trace_len: usize, samples: usize, mut f: F) -> Sample {
    // Warmup.
    f();
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        f();
        times.push(start.elapsed());
    }
    let sample = summarize(name, trace_len, times);
    println!("{sample}");
    sample
}

fn main() {
    let samples = sample_env(10);
    let sizes = sizes_env(&[50, 150, 400]);
    println!("diff_scaling — {samples} samples per configuration, sizes {sizes:?}\n");

    for iterations in sizes {
        let (old, new) = trace_pair(iterations, 1);
        // Only the differencing call is timed; result post-processing (num_differences
        // builds index sets) stays outside the measured closure via black_box on the
        // result itself.
        // Both sides are measured *cold* on purpose — this bench compares the scaling
        // of the two one-shot pipelines end to end, preparation included exactly as the
        // one-shot entry point performs it (the amortized, prepared-handle path is
        // measured by `perf_smoke`).
        bench("views", old.len(), samples, || {
            let r = cold_views_diff(&old, &new, &ViewsDiffOptions::default());
            std::hint::black_box(&r);
        });
        bench("lcs", old.len(), samples, || {
            let r = lcs_diff(&old, &new, &LcsDiffOptions::default()).unwrap();
            std::hint::black_box(&r);
        });
    }
}
