//! The hashed §4.1 set algebra ≡ a `HashSet<DiffSignature>` reference.
//!
//! [`analyze_prepared_with`] runs A, B, C and D on signature hashes and builds
//! signatures only for the four sets it returns. This suite keeps the algebra it
//! replaced as the reference: every unmatched entry's signature built and hashed with
//! std's `HashSet`, `D = (A − B) ∩ C` (or `(A − B) − C`) by `HashSet` operations, and a
//! sequence regression-related when one of its entries' signatures is in D. Each
//! returned set must hold exactly the reference's signatures, once each and in strictly
//! ascending canonical order, and every verdict must agree.
//!
//! Inputs: generated quadruples — for every `GenProfile` at 40 and 300 entries, a base
//! trace and mutated copies of it (dropped, duplicated and swapped entries), or fresh
//! traces of the profile — under each diff family and both analysis modes. Every case
//! runs twice: with the real hash, and with every signature hash forced to one value,
//! so that every two signatures collide and the results rest on the field comparisons
//! alone. The generator is seeded from the clock and the seed is printed;
//! `RPRISM_FUZZ_SEED=<n>` replays a run.

#![cfg(test)]

use std::collections::HashSet;

use rprism_diff::{
    anchored_diff_prepared, lcs_diff_prepared, views_diff_sides, AnchoredDiffOptions, DiffSide,
    LcsDiffOptions, TraceDiffResult, ViewsDiffOptions,
};
use rprism_trace::testgen::{fuzz_seed, mutated, GenProfile, Rng};
use rprism_trace::{KeyedTrace, LeanTrace};
use rprism_views::ViewWeb;

use crate::analysis::{
    analyze_prepared_with, AnalysisMode, DiffAlgorithm, PreparedInput, RegressionReport,
};
use crate::sets::{DiffSet, DiffSignature, CONSTANT_HASH};

/// The reference's signature of entry `index` of `side`; `None` out of range.
fn signature_at(side: &DiffSide<'_>, index: usize) -> Option<DiffSignature> {
    let entry = side.entries().get(index)?;
    Some(DiffSignature::from_key_context(
        side.keyed(),
        index,
        entry.method,
        entry.active.class,
    ))
}

/// The reference difference set of one comparison.
fn unmatched(
    diff: &TraceDiffResult,
    left: DiffSide<'_>,
    right: DiffSide<'_>,
) -> HashSet<DiffSignature> {
    let matching = &diff.matching;
    (matching.unmatched_left().into_iter())
        .filter_map(|i| signature_at(&left, i))
        .chain((matching.unmatched_right().into_iter()).filter_map(|i| signature_at(&right, i)))
        .collect()
}

/// Sets A–D and the verdicts of the reference algebra over the analysis's own diffs.
fn reference(
    input: &PreparedInput<'_>,
    diffs: &[TraceDiffResult],
    mode: AnalysisMode,
) -> ([HashSet<DiffSignature>; 4], Vec<bool>) {
    let a = unmatched(&diffs[0], input.old_regressing, input.new_regressing);
    let b = unmatched(&diffs[1], input.old_passing, input.new_passing);
    let c = unmatched(&diffs[2], input.new_passing, input.new_regressing);
    let a_minus_b: HashSet<DiffSignature> = a.difference(&b).cloned().collect();
    let d: HashSet<DiffSignature> = match mode {
        AnalysisMode::Intersect => a_minus_b.intersection(&c).cloned().collect(),
        AnalysisMode::SubtractRegressionSet => a_minus_b.difference(&c).cloned().collect(),
    };
    let verdicts = (diffs[0].sequences.iter())
        .map(|sequence| {
            (sequence.left.iter())
                .filter_map(|&i| signature_at(&input.old_regressing, i))
                .chain(
                    (sequence.right.iter()).filter_map(|&i| signature_at(&input.new_regressing, i)),
                )
                .any(|signature| d.contains(&signature))
        })
        .collect();
    ([a, b, c, d], verdicts)
}

fn assert_same_set(context: &str, got: &DiffSet, want: &HashSet<DiffSignature>) {
    let got = got.as_slice();
    assert!(
        got.windows(2).all(|pair| pair[0] < pair[1]),
        "{context}: not strictly ascending"
    );
    assert_eq!(got.len(), want.len(), "{context}: size");
    assert!(
        got.iter().all(|signature| want.contains(signature)),
        "{context}: a signature the reference lacks"
    );
}

fn assert_matches_reference(
    context: &str,
    input: &PreparedInput<'_>,
    algorithm: &DiffAlgorithm,
    mode: AnalysisMode,
) -> RegressionReport {
    let mut diffs = Vec::new();
    let report = analyze_prepared_with(input, algorithm, mode, |_, left, right| {
        let diff = match algorithm {
            DiffAlgorithm::Views(options) => Ok(views_diff_sides(&left, &right, options)),
            DiffAlgorithm::Lcs(options) => lcs_diff_prepared(left.keyed(), right.keyed(), options),
            DiffAlgorithm::Anchored(options) => {
                Ok(anchored_diff_prepared(left.keyed(), right.keyed(), options))
            }
        }?;
        diffs.push(diff.clone());
        Ok(diff)
    })
    .unwrap();
    let (sets, verdicts) = reference(input, &diffs, mode);
    for (got, want, name) in [
        (&report.suspected, &sets[0], "A"),
        (&report.expected, &sets[1], "B"),
        (&report.regression, &sets[2], "C"),
        (&report.candidates, &sets[3], "D"),
    ] {
        assert_same_set(&format!("{context}: set {name}"), got, want);
    }
    assert_eq!(report.verdicts, verdicts, "{context}: verdicts");
    report
}

#[test]
fn hashed_algebra_matches_the_hashset_reference() {
    let mut rng = Rng::new(fuzz_seed() ^ 0x5e7a_19eb);
    let algorithms = [
        DiffAlgorithm::Views(ViewsDiffOptions::default()),
        DiffAlgorithm::Lcs(LcsDiffOptions::default()),
        DiffAlgorithm::Anchored(AnchoredDiffOptions::default()),
    ];
    let mut nonempty_candidates = 0;
    for &profile in GenProfile::ALL {
        for entries in [40, 300] {
            for independent in [false, true] {
                let base = profile.generate(&mut rng, entries);
                let other = if independent {
                    profile.generate(&mut rng, entries)
                } else {
                    mutated(&mut rng, &base)
                };
                let traces = [
                    mutated(&mut rng, &base),
                    mutated(&mut rng, &other),
                    base,
                    other,
                ];
                let artifacts: Vec<(LeanTrace, KeyedTrace, ViewWeb)> = (traces.iter())
                    .map(|t| (LeanTrace::build(t), KeyedTrace::build(t), ViewWeb::build(t)))
                    .collect();
                let side = |i: usize| {
                    let (lean, keyed, web) = &artifacts[i];
                    DiffSide::lean(lean, keyed, web)
                };
                let input = PreparedInput {
                    old_regressing: side(0),
                    new_regressing: side(1),
                    old_passing: side(2),
                    new_passing: side(3),
                };
                for algorithm in &algorithms {
                    for mode in [AnalysisMode::Intersect, AnalysisMode::SubtractRegressionSet] {
                        for constant in [false, true] {
                            let context = format!(
                                "{profile}-{entries} {} {} {mode:?}{}",
                                if independent {
                                    "independent"
                                } else {
                                    "mutated"
                                },
                                algorithm.label(),
                                if constant { " (constant hash)" } else { "" },
                            );
                            CONSTANT_HASH.set(constant);
                            let report =
                                assert_matches_reference(&context, &input, algorithm, mode);
                            CONSTANT_HASH.set(false);
                            nonempty_candidates += usize::from(!report.candidates.is_empty());
                        }
                    }
                }
            }
        }
    }
    assert!(
        nonempty_candidates > 0,
        "every generated case had an empty D"
    );
}
