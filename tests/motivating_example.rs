//! End-to-end integration test of the paper's motivating example (§1, §3.4, §4.2):
//! the MyFaces-1130-style character-range regression, traced, differenced and analyzed
//! across crates.

use rprism::Engine;
use rprism_diff::{LcsDiffOptions, ViewsDiffOptions};
use rprism_regress::DiffAlgorithm;
use rprism_views::ViewKind;
use rprism_workloads::myfaces;

#[test]
fn views_diff_localizes_the_bad_range_initialization() {
    let scenario = myfaces::scenario();
    let traces = scenario.trace_all().expect("traces");
    let old = &traces.traces.old_regressing;
    let new = &traces.traces.new_regressing;

    let engine = Engine::new();
    let result = engine.diff(old, new).expect("views never fails");
    assert!(result.num_differences() > 0);

    // The differing entries include the incorrect NumericEntityUtil initialization with
    // dynamic state (the bad lower bound 1), as in Fig. 13.
    let mentions_bad_range = result
        .matching
        .unmatched_right()
        .iter()
        .filter_map(|i| new.entries.get(*i))
        .any(|e| e.render().contains("NumericEntityUtil") && e.render().contains("Int(1)"));
    assert!(
        mentions_bad_range,
        "the bad range init must be reported as a difference"
    );

    // Events unrelated to the regression (the Logger activity) remain correlated.
    let logger_matched = old
        .iter()
        .enumerate()
        .filter(|(i, e)| result.matching.is_matched_left(*i) && e.render().contains("Logger"))
        .count();
    assert!(
        logger_matched >= 4,
        "logger events should stay matched, got {logger_matched}"
    );
}

#[test]
fn views_based_differencing_is_at_least_as_accurate_as_lcs() {
    let scenario = myfaces::scenario();
    let traces = scenario.trace_all().expect("traces");
    let old = &traces.traces.old_regressing;
    let new = &traces.traces.new_regressing;

    // Two engines over the same prepared handles: the event keys derived for the views
    // diff are reused by the LCS baseline.
    let views = Engine::new().diff(old, new).expect("views never fails");
    let lcs = Engine::builder()
        .lcs_baseline(LcsDiffOptions::default())
        .build()
        .diff(old, new)
        .expect("small traces fit in memory");
    assert!(
        views.accuracy_vs(&lcs) >= 0.99,
        "views accuracy {} dropped below the LCS baseline",
        views.accuracy_vs(&lcs)
    );
}

#[test]
fn regression_cause_analysis_reports_the_cause_with_context() {
    let scenario = myfaces::scenario();
    let outcome = scenario
        .analyze_and_evaluate(&DiffAlgorithm::Views(ViewsDiffOptions::default()))
        .expect("analysis succeeds");

    // The candidate set is a strict subset of the suspected differences and the ground
    // truth markers (the bad range / the new filter) are covered.
    assert!(outcome.report.candidates.len() <= outcome.report.suspected.len());
    assert!(outcome.report.num_regression_sequences() >= 1);
    assert_eq!(outcome.quality.false_negatives, 0, "{:?}", outcome.quality);
}

/// The `motivating` binary's target-object view lines, pinned: a view's representative
/// is an identity without printed text, and it renders exactly as the object
/// representation of the view's first target did.
#[test]
fn target_object_view_lines_are_pinned() {
    let scenario = myfaces::scenario();
    let traces = scenario.trace_all().expect("traces");
    let old = &traces.traces.old_regressing;
    let web = old.web();
    let mut lines = Vec::new();
    for view in web.views_of_kind(ViewKind::TargetObject) {
        let rep = view
            .representative
            .expect("object views have a representative");
        let first = old.trace()[view.entries[0]].event.target_object().unwrap();
        assert_eq!(rep.to_string(), first.to_string(), "view {}", view.name);
        if rep.class.as_str() == "NumericEntityUtil" {
            lines.push(format!(
                "  target object view for {rep}: {} entries",
                view.len()
            ));
        }
    }
    assert_eq!(
        lines,
        ["  target object view for NumericEntityUtil-1: 21 entries"]
    );
}
