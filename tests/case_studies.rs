//! Integration tests over the four §5.2 case-study scenarios: every scenario regresses,
//! analyzes cleanly with the views-based algorithm, and reproduces the structural
//! properties the paper highlights for it.

use rprism_regress::DiffAlgorithm;
use rprism_trace::ThreadId;
use rprism_views::ViewWeb;
use rprism_workloads::casestudies;

#[test]
fn every_case_study_analyzes_with_bounded_false_negatives() {
    for scenario in casestudies::all() {
        let outcome = scenario
            .analyze_and_evaluate(&DiffAlgorithm::Views(Default::default()))
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        assert!(
            outcome.report.num_regression_sequences() >= 1,
            "{}: no regression-related sequences",
            scenario.name
        );
        assert!(
            outcome.quality.covered_markers >= 1,
            "{}: analysis missed every ground-truth marker ({:?})",
            scenario.name,
            outcome.quality
        );
        assert!(
            outcome.report.candidates.len() <= outcome.report.suspected.len(),
            "{}: candidate set larger than suspected set",
            scenario.name
        );
    }
}

#[test]
fn derby_traces_are_multithreaded_and_error_in_the_new_version() {
    let scenario = casestudies::derby::scenario();
    let traces = scenario.trace_all().unwrap();
    assert!(traces.new_regressing_errored);
    assert!(traces.traces.old_regressing.thread_ids().len() >= 3);
    // The worker threads correlate across versions, keeping their activity out of the
    // difference sets.
    let web = ViewWeb::build(&traces.traces.old_regressing);
    assert!(web.thread_ancestry(ThreadId::MAIN).is_some());
}

#[test]
fn xalan_1802_rewrite_produces_heavy_churn_but_a_small_candidate_set() {
    let scenario = casestudies::xalan1802::scenario();
    let (_, report) = scenario
        .analyze(&DiffAlgorithm::Views(Default::default()))
        .unwrap();
    assert!(report.suspected.len() > 50, "rewrite churn should be large");
    assert!(
        report.candidates.len() * 2 < report.suspected.len(),
        "analysis should discard most churn: |A| = {}, |D| = {}",
        report.suspected.len(),
        report.candidates.len()
    );
}

#[test]
fn xalan_1725_cause_lies_in_the_code_generator() {
    let scenario = casestudies::xalan1725::scenario();
    let outcome = scenario
        .analyze_and_evaluate(&DiffAlgorithm::Views(Default::default()))
        .unwrap();
    // The reported sequences include the checkAttributesUnique code-generation difference
    // even though the failure only manifests during execution of the generated code.
    let mentions_codegen = outcome
        .report
        .regression_sequences()
        .flat_map(|sequence| sequence.right.iter())
        .filter_map(|i| outcome.traces.traces.new_regressing.entries.get(*i))
        .any(|e| e.render().contains("checkAttributesUnique") || e.render().contains("Instr"));
    assert!(mentions_codegen, "code-generation cause not reported");
}
