//! Adversarial fuzzing of every differencing backend: each `rprism gen` profile —
//! including the four shapes that each violate one well-formedness rule — is piped
//! through the views scan, the LCS baseline and the anchored mode, and the two exact
//! LCS kernels run on the keyed sequences. Hostile, semantically broken traces must
//! never panic any backend, the DP and bit-parallel kernels must stay
//! matching-identical, and every produced matching must be structurally valid.

use rprism_diff::{
    anchored_diff, lcs_bitparallel, lcs_diff, lcs_dp, views_diff_sides, AnchoredDiffOptions,
    CostMeter, DiffSide, LcsDiffOptions, MemoryBudget, TraceDiffResult, ViewsDiffOptions,
};
use rprism_trace::testgen::{GenProfile, Rng};
use rprism_trace::{KeyRef, KeyedTrace, LeanTrace, Trace};
use rprism_views::ViewWeb;

/// The interned key sequence of a trace, as the LCS differencer compares it.
fn keys(keyed: &KeyedTrace) -> Vec<KeyRef<'_>> {
    (0..keyed.len()).map(|i| keyed.key(i)).collect()
}

/// Structural validity of a *subsequence* matching (LCS, anchored): both sides
/// strictly increasing (monotone, no index reuse), in range, and every pair
/// `=e`-equal under the interned keys.
fn assert_valid_alignment(result: &TraceDiffResult, left: &Trace, right: &Trace, context: &str) {
    let (lk, rk) = (KeyedTrace::build(left), KeyedTrace::build(right));
    let pairs = result.matching.normalized_pairs();
    for window in pairs.windows(2) {
        assert!(
            window[0].0 < window[1].0 && window[0].1 < window[1].1,
            "{context}: matching is not monotone: {:?}",
            window
        );
    }
    for &(l, r) in pairs {
        assert!(
            l < left.len() && r < right.len(),
            "{context}: pair out of range"
        );
        assert!(
            lk.key_eq(l, &rk, r),
            "{context}: matched entries are not =e-equal at ({l}, {r})"
        );
    }
}

/// Views matchings are per-view similarity sets, not one global alignment — their
/// global trace indices interleave across views — so only range validity holds.
fn assert_in_range(result: &TraceDiffResult, left: &Trace, right: &Trace, context: &str) {
    for &(l, r) in result.matching.normalized_pairs() {
        assert!(
            l < left.len() && r < right.len(),
            "{context}: pair out of range"
        );
    }
}

/// Regression for the histogram-fallback split policy: on a large well-formed trace
/// with *no* globally unique keys, splitting at a key's first occurrence peels one
/// tiny chunk per recursion level, exhausts `max_depth`, and hands the quadratic
/// leaf kernel a near-full-size segment. The balanced midpoint split must keep the
/// anchored mode far below quadratic compare cost while recovering essentially the
/// whole exact matching.
#[test]
fn balanced_fallback_splits_stay_subquadratic_without_unique_keys() {
    let entries = 4000;
    let base = GenProfile::WellFormed.generate(&mut Rng::new(41), entries);
    // The BENCH_7 mutation shape: sparse drops and duplications spread uniformly.
    let mut mutated = Trace::new(base.meta.clone());
    for (i, entry) in base.entries.iter().enumerate() {
        if i % 997 == 996 {
            continue;
        }
        mutated.entries.push(entry.clone());
        if i % 1499 == 1498 {
            mutated.entries.push(entry.clone());
        }
    }

    let exact = lcs_diff(
        &base,
        &mutated,
        &LcsDiffOptions {
            linear_space: true,
            ..Default::default()
        },
    )
    .expect("exact baseline failed");
    let anchored = anchored_diff(&base, &mutated, &AnchoredDiffOptions::default());

    let exact_pairs = exact.matching.normalized_pairs().len();
    let anchored_pairs = anchored.matching.normalized_pairs().len();
    assert!(anchored_pairs <= exact_pairs);
    assert!(
        anchored_pairs * 10 >= exact_pairs * 9,
        "anchored recovered only {anchored_pairs} of {exact_pairs} exact pairs"
    );
    // Exact linear-space cost is ~2·m·n compares; the anchored mode must stay at
    // least an order of magnitude below plain m·n even in the unique-key-free case.
    let quadratic = base.len() as u64 * mutated.len() as u64;
    assert!(
        anchored.cost.compare_ops < quadratic / 10,
        "anchored burned {} compares (quadratic would be {quadratic})",
        anchored.cost.compare_ops
    );
    assert_valid_alignment(&anchored, &base, &mutated, "balanced fallback");
}

#[test]
fn hostile_gen_profiles_never_panic_any_backend() {
    let mut rng = Rng::new(0x5eed_f00d);
    // Every profile against itself (different seeds) and against the arbitrary soup,
    // so backends see both homogeneous hostile shapes and mixed-shape comparisons.
    let mut pairings: Vec<(GenProfile, GenProfile)> =
        GenProfile::ALL.iter().map(|&p| (p, p)).collect();
    pairings.extend(GenProfile::ALL.iter().map(|&p| (GenProfile::Arbitrary, p)));

    for (left_profile, right_profile) in pairings {
        let left = left_profile.generate(&mut Rng::new(rng.next_u64()), 240);
        let right = right_profile.generate(&mut Rng::new(rng.next_u64()), 260);
        let context = format!("{left_profile:?} vs {right_profile:?}");

        let (left_web, right_web) = (ViewWeb::build(&left), ViewWeb::build(&right));
        let (left_keyed, right_keyed) = (KeyedTrace::build(&left), KeyedTrace::build(&right));
        let (left_lean, right_lean) = (LeanTrace::build(&left), LeanTrace::build(&right));
        let views = views_diff_sides(
            &DiffSide::lean(&left_lean, &left_keyed, &left_web),
            &DiffSide::lean(&right_lean, &right_keyed, &right_web),
            &ViewsDiffOptions::default(),
        );
        assert_in_range(&views, &left, &right, &format!("{context} (views)"));

        // The exact kernels on the keyed sequences: same pairs, same compare count.
        let (left_keys, right_keys) = (keys(&left_keyed), keys(&right_keyed));
        let (mut dp_meter, mut bp_meter) = (CostMeter::new(), CostMeter::new());
        let dp = lcs_dp(
            &left_keys,
            &right_keys,
            &mut dp_meter,
            MemoryBudget::unlimited(),
        )
        .unwrap_or_else(|e| panic!("{context}: lcs_dp failed: {e}"));
        let bp = lcs_bitparallel(
            &left_keys,
            &right_keys,
            &mut bp_meter,
            MemoryBudget::unlimited(),
        )
        .unwrap_or_else(|e| panic!("{context}: lcs_bitparallel failed: {e}"));
        assert_eq!(dp, bp, "{context}: LCS kernels diverged");
        assert_eq!(
            dp_meter.stats().compare_ops,
            bp_meter.stats().compare_ops,
            "{context}: LCS kernels metered different compares"
        );

        // LCS baseline: the DP kernel's matching, structurally valid.
        let lcs = lcs_diff(&left, &right, &LcsDiffOptions::default())
            .unwrap_or_else(|e| panic!("{context}: lcs failed: {e}"));
        assert_eq!(lcs.matching.normalized_pairs(), dp, "{context}: baseline");
        assert_valid_alignment(&lcs, &left, &right, &format!("{context} (lcs)"));

        // Anchored: valid (not necessarily maximal) matchings, never a panic — with
        // aggressive segmentation to exercise the recursion, not just the leaf path.
        let anchored = anchored_diff(
            &left,
            &right,
            &AnchoredDiffOptions {
                max_segment: 8,
                ..Default::default()
            },
        );
        assert_eq!(anchored.algorithm, "anchored");
        assert_valid_alignment(&anchored, &left, &right, &format!("{context} (anchored)"));
        assert!(
            anchored.matching.normalized_pairs().len() <= lcs.matching.normalized_pairs().len(),
            "{context}: anchored matched more than the exact LCS"
        );
    }
}
