//! Shared-`Engine` concurrency guarantees: N threads hammering one session with
//! interleaved `diff`/`analyze` over the same trace pairs must neither deadlock nor
//! drift, and the pair-correlation cache must serve the repeats — the contract the
//! `rprism-server` worker pool builds on. (`Engine: Send + Sync` itself is pinned at
//! compile time in `rprism::engine`.)

use std::sync::Barrier;

use rprism::{Engine, PreparedTrace, RegressionInput};

const THREADS: usize = 8;
const ITERATIONS: usize = 5;

fn regression_sources(min: i64, probe: i64) -> String {
    format!(
        r#"
        class Range extends Object {{ Int min; Int max; }}
        class App extends Object {{
            Range r;
            Int hits;
            Unit setup() {{ this.r = new Range({min}, 127); }}
            Unit check(Int c) {{
                if ((c >= this.r.min) && (c <= this.r.max)) {{ this.hits = this.hits + 1; }}
            }}
        }}
        main {{ let a = new App(null, 0); a.setup(); a.check({probe}); a.check(64); }}
        "#
    )
}

fn quad(engine: &Engine) -> [PreparedTrace; 4] {
    let t = |min: i64, probe: i64, label: &str| {
        engine
            .trace_source(&regression_sources(min, probe), label)
            .unwrap()
    };
    [
        t(32, 20, "old-regressing"),
        t(1, 20, "new-regressing"),
        t(32, 64, "old-passing"),
        t(1, 64, "new-passing"),
    ]
}

#[test]
fn n_threads_hammering_one_engine_share_every_cached_artifact() {
    let engine = Engine::new();
    let [a, b, c, d] = quad(&engine);
    let input = RegressionInput::new(a.clone(), b.clone(), c.clone(), d.clone());

    // Reference results plus a warm cache: one diff (pair ab, both orientations via
    // the transpose) and one analyze (pairs ab, cd, db).
    let reference_diff = engine.diff(&a, &b).unwrap();
    let reference_reversed = engine.diff(&b, &a).unwrap();
    let reference_report = engine.analyze(&input).unwrap();
    let warm_builds = engine.correlation_builds();
    assert_eq!(
        warm_builds, 3,
        "warm-up builds exactly one correlation per pair"
    );

    // The storm: N threads interleave diffs (both orientations) and full analyses
    // over the same handles. Every request must be answered from the warm caches —
    // N of N, which trivially pins the "≥ N−1 of N from cache" requirement — with
    // results identical to the references (no verdict drift), and the scope join
    // itself proves freedom from deadlock.
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let engine = &engine;
            let (a, b) = (&a, &b);
            let input = &input;
            let barrier = &barrier;
            let reference_diff = &reference_diff;
            let reference_reversed = &reference_reversed;
            let reference_report = &reference_report;
            scope.spawn(move || {
                barrier.wait();
                for iteration in 0..ITERATIONS {
                    // Interleave shapes differently per worker so orientations and
                    // request kinds genuinely overlap across threads.
                    if (worker + iteration) % 2 == 0 {
                        let diff = engine.diff(a, b).unwrap();
                        assert_eq!(
                            diff.matching.normalized_pairs(),
                            reference_diff.matching.normalized_pairs()
                        );
                        assert_eq!(diff.sequences, reference_diff.sequences);
                        assert_eq!(diff.cost.compare_ops, reference_diff.cost.compare_ops);
                        let reversed = engine.diff(b, a).unwrap();
                        assert_eq!(
                            reversed.matching.normalized_pairs(),
                            reference_reversed.matching.normalized_pairs()
                        );
                    } else {
                        let report = engine.analyze(input).unwrap();
                        assert_eq!(report.suspected, reference_report.suspected);
                        assert_eq!(report.expected, reference_report.expected);
                        assert_eq!(report.regression, reference_report.regression);
                        assert_eq!(report.candidates, reference_report.candidates);
                        assert_eq!(report.compare_ops, reference_report.compare_ops);
                        assert_eq!(
                            report.verdicts, reference_report.verdicts,
                            "verdict drift under load"
                        );
                    }
                }
            });
        }
    });

    assert_eq!(
        engine.correlation_builds(),
        warm_builds,
        "every request of the storm must be served from the correlation cache"
    );
    // Per-trace artifacts are the ones every clone the storm went through shares.
    for (handle, clone) in [
        (&a, &input.old_regressing),
        (&b, &input.new_regressing),
        (&c, &input.old_passing),
        (&d, &input.new_passing),
    ] {
        assert!(std::ptr::eq(handle.keyed(), clone.keyed()));
        assert!(std::ptr::eq(handle.web(), clone.web()));
    }
}

#[test]
fn a_cold_concurrent_stampede_builds_each_pair_exactly_once() {
    // Even with NO warm-up, N threads racing the same cold pair must produce one
    // build: the first thread constructs the correlation, the other N−1 are served
    // from the cache slot. This is the strong form of "≥ N−1 of N from cache".
    let engine = Engine::new();
    let [a, b, ..] = quad(&engine);
    let reference = Engine::new().diff(&a, &b).unwrap();

    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let engine = &engine;
            let (a, b) = (&a, &b);
            let barrier = &barrier;
            let reference = &reference;
            scope.spawn(move || {
                barrier.wait();
                let diff = engine.diff(a, b).unwrap();
                assert_eq!(
                    diff.matching.normalized_pairs(),
                    reference.matching.normalized_pairs()
                );
                assert_eq!(diff.cost.compare_ops, reference.cost.compare_ops);
            });
        }
    });
    assert_eq!(
        engine.correlation_builds(),
        1,
        "{} concurrent cold requests must share one correlation build",
        THREADS
    );
    assert_eq!(engine.cached_correlations(), 1);
}
