//! Equivalence of the keyed, parallel diff pipeline with the frozen seed-style baseline
//! on the four §5.2 case studies: the refactor must not change *what* is computed — the
//! similarity sets and difference sequences of the suspected comparison are identical —
//! while the compare-op count may only shrink (prefix/suffix stripping now happens
//! inside `lcs_dp`). The regression analysis itself must be deterministic run-to-run.

// The keyed-pipeline side is driven through the one-shot `cold_views_diff` on purpose:
// this suite pins the *algorithm* against the frozen seed baseline, independent of the
// session API (whose own equivalence suite lives at the workspace root).

use rprism::Engine;
use rprism_bench::cold_views_diff;
use rprism_bench::seed_baseline::seed_views_diff;
use rprism_diff::{
    lcs_bitparallel, lcs_diff, lcs_dp, CostMeter, LcsDiffOptions, MemoryBudget, ViewsDiffOptions,
};
use rprism_regress::DiffAlgorithm;
use rprism_trace::{KeyRef, KeyedTrace};
use rprism_workloads::casestudies;

/// The interned key sequence of a trace, as the LCS differencer compares it.
fn keys(keyed: &KeyedTrace) -> Vec<KeyRef<'_>> {
    (0..keyed.len()).map(|i| keyed.key(i)).collect()
}

#[test]
fn keyed_pipeline_matches_seed_baseline_on_all_case_studies() {
    for scenario in casestudies::all() {
        let traces = scenario
            .trace_all()
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        let old = &traces.traces.old_regressing;
        let new = &traces.traces.new_regressing;

        let options = ViewsDiffOptions::default();
        let seed = seed_views_diff(old, new, &options);
        // The secondary windows run the bit-parallel kernel, which replays the DP
        // tie-breaks during traceback and meters DP-equivalent compare counts, so the
        // keyed pipeline must reproduce the seed exactly.
        let keyed = cold_views_diff(old, new, &options);

        assert_eq!(
            seed.matching.normalized_pairs(),
            keyed.matching.normalized_pairs(),
            "{}: similarity sets diverged",
            scenario.name
        );
        assert_eq!(
            seed.sequences, keyed.sequences,
            "{}: difference sequences diverged",
            scenario.name
        );
        // The keyed pipeline folds prefix/suffix stripping into the LCS kernel, so
        // it may only ever do *less* comparison work than the seed, never more.
        assert!(
            keyed.cost.compare_ops <= seed.cost.compare_ops,
            "{}: keyed pipeline did more compares ({}) than the seed ({})",
            scenario.name,
            keyed.cost.compare_ops,
            seed.cost.compare_ops
        );
    }
}

#[test]
fn lcs_backends_produce_identical_matchings_on_all_case_studies() {
    // The bit-parallel kernel is matching-identical to the DP kernel — same pairs,
    // same metered compares — on the keyed sequences of every suspected comparison of
    // the four case studies, and the §3.2 baseline's matching is those pairs.
    for scenario in casestudies::all() {
        let traces = scenario.trace_all().unwrap();
        let old = &traces.traces.old_regressing;
        let new = &traces.traces.new_regressing;

        let (old_keyed, new_keyed) = (KeyedTrace::build(old), KeyedTrace::build(new));
        let (old_keys, new_keys) = (keys(&old_keyed), keys(&new_keyed));
        let (mut dp_meter, mut bp_meter) = (CostMeter::new(), CostMeter::new());
        let dp = lcs_dp(
            &old_keys,
            &new_keys,
            &mut dp_meter,
            MemoryBudget::unlimited(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        let bp = lcs_bitparallel(
            &old_keys,
            &new_keys,
            &mut bp_meter,
            MemoryBudget::unlimited(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        assert_eq!(dp, bp, "{}: LCS kernels diverged", scenario.name);
        assert_eq!(
            dp_meter.stats().compare_ops,
            bp_meter.stats().compare_ops,
            "{}",
            scenario.name
        );

        let baseline = lcs_diff(old, new, &LcsDiffOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        assert_eq!(
            baseline.matching.normalized_pairs(),
            dp,
            "{}: baseline",
            scenario.name
        );
    }
}

#[test]
fn anchored_analysis_reaches_the_same_verdicts_as_the_exact_modes() {
    // Verdict-equivalence, as documented in MIGRATION.md: the anchored mode's
    // matchings may legitimately differ from the exact modes (anchors commit early),
    // but the *analysis conclusions* must not — on every case study it covers exactly
    // the ground-truth markers the exact views analysis covers, misses none it finds,
    // and agrees on whether the regression was detected at all.
    for scenario in casestudies::all() {
        let exact = scenario
            .analyze_and_evaluate(&DiffAlgorithm::Views(ViewsDiffOptions::default()))
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        let anchored = scenario
            .analyze_and_evaluate(&DiffAlgorithm::Anchored(Default::default()))
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));

        assert_eq!(exact.report.algorithm, "views");
        assert_eq!(anchored.report.algorithm, "anchored");
        assert_eq!(
            anchored.quality.covered_markers, exact.quality.covered_markers,
            "{}: anchored covered different ground-truth markers",
            scenario.name
        );
        assert_eq!(
            anchored.quality.false_negatives, exact.quality.false_negatives,
            "{}: anchored missed markers the exact analysis found",
            scenario.name
        );
        assert_eq!(
            anchored.quality.reported_sequences > 0,
            exact.quality.reported_sequences > 0,
            "{}: anchored disagreed on whether a regression exists",
            scenario.name
        );
    }
}

#[test]
fn analysis_set_sizes_are_stable_across_runs() {
    // The full regression analysis (parallel preparation, keyed diffs, symbol-keyed
    // difference sets) is deterministic: two runs agree on every set size and verdict.
    for scenario in casestudies::all() {
        let traces = scenario.trace_all().unwrap();
        let engine = Engine::builder()
            .views_options(ViewsDiffOptions::default())
            .analysis_mode(scenario.analysis_mode())
            .build();
        let run = || {
            engine
                .analyze(&traces.traces)
                .expect("views analysis never fails")
        };
        let a = run();
        let b = run();
        assert_eq!(a.suspected.len(), b.suspected.len(), "{}", scenario.name);
        assert_eq!(a.expected.len(), b.expected.len(), "{}", scenario.name);
        assert_eq!(a.regression.len(), b.regression.len(), "{}", scenario.name);
        assert_eq!(a.candidates.len(), b.candidates.len(), "{}", scenario.name);
        assert_eq!(a.compare_ops, b.compare_ops, "{}", scenario.name);
        assert_eq!(a.verdicts, b.verdicts, "{}", scenario.name);
    }
}
