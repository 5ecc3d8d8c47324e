//! Regression test for the borrowed-handle analysis path, following the counting-harness
//! pattern of `crates/diff/tests/no_alloc_hot_path.rs`: instead of a counting allocator,
//! `Trace`'s `Clone` impl counts every deep copy process-wide, and this test asserts that
//! the entire analysis path — engine diffs, batch diffs and the full regression-cause
//! analysis over `PreparedTrace` handles — performs **zero** trace copies. (The old
//! by-value API forced callers to clone traces to reuse them; the session API exists
//! to make that structurally unnecessary.)
//!
//! This file deliberately contains a single `#[test]`: the counter is process-global,
//! and a sibling test cloning traces concurrently would pollute the measured window.

use rprism::Engine;
use rprism_trace::Trace;
use rprism_workloads::casestudies;

#[test]
fn analysis_path_over_prepared_handles_never_clones_a_trace() {
    let scenario = casestudies::daikon::scenario();
    let traces = scenario.trace_all().unwrap();
    let engine = Engine::new();

    let before = Trace::clone_count();

    // Handle plumbing: RegressionInput and pair construction are Arc clones only.
    let input = traces.traces.clone();
    let pairs = vec![
        (
            traces.traces.old_regressing.clone(),
            traces.traces.new_regressing.clone(),
        ),
        (
            traces.traces.old_passing.clone(),
            traces.traces.new_passing.clone(),
        ),
    ];

    // The full analysis surface: single diff, batch diff, single analysis, batch
    // analysis — none of it may deep-copy a trace.
    let diff = engine
        .diff(&traces.traces.old_regressing, &traces.traces.new_regressing)
        .unwrap();
    let batch = engine.diff_many(&pairs).unwrap();
    let report = engine.analyze(&input).unwrap();
    let reports = engine
        .analyze_many(&[input.clone(), input.clone()])
        .unwrap();

    let after = Trace::clone_count();
    assert_eq!(
        after - before,
        0,
        "the prepared-handle analysis path must not deep-copy traces"
    );

    // Sanity: the analyses actually did their work.
    assert!(diff.num_differences() > 0);
    assert_eq!(batch.len(), 2);
    assert!(!report.suspected.is_empty());
    assert_eq!(reports.len(), 2);
}
