//! Equivalence of the session-oriented `Engine` API with the free-function entry points
//! over freshly built artifacts (`views_diff_sides`, `analyze_prepared`) on the four
//! §5.2 case studies: same matchings, same difference sequences, same analysis sets,
//! same deterministic cost accounting (everything except wall-clock timestamps is
//! identical). Also proves the sharing contract: a `PreparedTrace`'s artifacts are
//! shared by every clone and query, and the batch entry points reproduce the single-call results in input order.

use rprism::{Engine, PreparedTrace, RegressionInput};
use rprism_diff::{views_diff_sides, DiffSide, TraceDiffResult, ViewsDiffOptions};
use rprism_regress::{analyze_prepared, DiffAlgorithm, PreparedInput, RegressionReport};
use rprism_trace::{KeyedTrace, LeanTrace, Trace};
use rprism_views::ViewWeb;
use rprism_workloads::casestudies;

/// Lean context, keys and web of one trace, built from scratch (nothing shared with
/// the engine).
fn fresh(trace: &Trace) -> (LeanTrace, KeyedTrace, ViewWeb) {
    (
        LeanTrace::build(trace),
        KeyedTrace::build(trace),
        ViewWeb::build(trace),
    )
}

fn assert_same_diff(name: &str, a: &TraceDiffResult, b: &TraceDiffResult) {
    assert_eq!(
        a.matching.normalized_pairs(),
        b.matching.normalized_pairs(),
        "{name}: similarity sets diverged"
    );
    assert_eq!(a.sequences, b.sequences, "{name}: sequences diverged");
    assert_eq!(
        a.cost.compare_ops, b.cost.compare_ops,
        "{name}: compare-op accounting diverged"
    );
    assert_eq!(
        a.cost.peak_bytes, b.cost.peak_bytes,
        "{name}: working-set accounting diverged"
    );
    assert_eq!(a.algorithm, b.algorithm);
}

fn assert_same_report(name: &str, a: &RegressionReport, b: &RegressionReport) {
    assert_eq!(a.suspected, b.suspected, "{name}: A diverged");
    assert_eq!(a.expected, b.expected, "{name}: B diverged");
    assert_eq!(a.regression, b.regression, "{name}: C diverged");
    assert_eq!(a.candidates, b.candidates, "{name}: D diverged");
    assert_eq!(a.mode, b.mode, "{name}: mode diverged");
    assert_eq!(a.compare_ops, b.compare_ops, "{name}: compare ops diverged");
    assert_eq!(a.peak_bytes, b.peak_bytes, "{name}: peak bytes diverged");
    assert_same_diff(name, &a.suspected_diff, &b.suspected_diff);
    assert_eq!(a.verdicts, b.verdicts, "{name}: verdicts diverged");
}

#[test]
fn engine_diff_matches_deprecated_views_diff_on_all_case_studies() {
    let engine = Engine::new();
    for scenario in casestudies::all() {
        let traces = scenario
            .trace_all()
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        let old = &traces.traces.old_regressing;
        let new = &traces.traces.new_regressing;

        let ((ol, ok, ow), (nl, nk, nw)) = (fresh(old), fresh(new));
        let free = views_diff_sides(
            &DiffSide::lean(&ol, &ok, &ow),
            &DiffSide::lean(&nl, &nk, &nw),
            &ViewsDiffOptions::default(),
        );
        let session = engine.diff(old, new).expect("views never fails");
        assert_same_diff(&scenario.name, &free, &session);
    }
}

#[test]
fn engine_analysis_matches_deprecated_analyze_on_all_case_studies() {
    let engine = Engine::new();
    for scenario in casestudies::all() {
        let traces = scenario.trace_all().unwrap();
        let four = [
            traces.traces.old_regressing.trace(),
            traces.traces.new_regressing.trace(),
            traces.traces.old_passing.trace(),
            traces.traces.new_passing.trace(),
        ];
        let built: Vec<(LeanTrace, KeyedTrace, ViewWeb)> = four.iter().map(|t| fresh(t)).collect();
        let prepared = |i: usize| DiffSide::lean(&built[i].0, &built[i].1, &built[i].2);
        let input = PreparedInput {
            old_regressing: prepared(0),
            new_regressing: prepared(1),
            old_passing: prepared(2),
            new_passing: prepared(3),
        };
        let algorithm = DiffAlgorithm::Views(ViewsDiffOptions::default());
        let free = analyze_prepared(&input, &algorithm, scenario.analysis_mode()).unwrap();
        // The scenario's prepared input carries its analysis mode.
        let session = engine.analyze(&traces.traces).unwrap();
        assert_same_report(&scenario.name, &free, &session);
    }
}

#[test]
fn batch_apis_match_single_calls_across_case_studies() {
    let engine = Engine::new();
    let all_traces: Vec<_> = casestudies::all()
        .iter()
        .map(|s| s.trace_all().unwrap())
        .collect();

    // diff_many over every suspected comparison vs one-by-one diffs.
    let pairs: Vec<(PreparedTrace, PreparedTrace)> = all_traces
        .iter()
        .map(|t| {
            (
                t.traces.old_regressing.clone(),
                t.traces.new_regressing.clone(),
            )
        })
        .collect();
    let batch = engine.diff_many(&pairs).unwrap();
    assert_eq!(batch.len(), pairs.len());
    for ((left, right), many) in pairs.iter().zip(&batch) {
        let single = engine.diff(left, right).unwrap();
        assert_same_diff(&left.trace().meta.name, &single, many);
    }

    // analyze_many over all four scenarios vs one-by-one analyses (each input carries
    // its scenario's analysis mode).
    let inputs: Vec<RegressionInput> = all_traces.iter().map(|t| t.traces.clone()).collect();
    let reports = engine.analyze_many(&inputs).unwrap();
    assert_eq!(reports.len(), inputs.len());
    for (input, many) in inputs.iter().zip(&reports) {
        let single = engine.analyze(input).unwrap();
        assert_same_report(&input.old_regressing.trace().meta.name, &single, many);
    }
}

#[test]
fn prepared_web_is_built_exactly_once_across_three_diffs() {
    let engine = Engine::new();
    let traces = casestudies::daikon::scenario().trace_all().unwrap();
    let anchor = &traces.traces.old_regressing;

    // Three different diffs share the anchor handle; its web and keys must be derived
    // exactly once (the other sides are built once each too).
    for other in [
        &traces.traces.new_regressing,
        &traces.traces.old_passing,
        &traces.traces.new_passing,
    ] {
        engine.diff(anchor, other).expect("views never fails");
    }
    let copy = anchor.clone();
    assert!(std::ptr::eq(anchor.web(), copy.web()), "web not shared");
    assert!(
        std::ptr::eq(anchor.keyed(), copy.keyed()),
        "keys not shared"
    );
    assert_eq!(engine.correlation_builds(), 3, "one correlation per pair");

    // Further queries — including a full analysis over the same handles — still reuse
    // the same artifacts, and a repeat builds no correlation.
    engine.analyze(&traces.traces).unwrap();
    let builds = engine.correlation_builds();
    engine.analyze(&traces.traces).unwrap();
    engine.diff(&copy, &traces.traces.new_regressing).unwrap();
    assert_eq!(engine.correlation_builds(), builds);
}
