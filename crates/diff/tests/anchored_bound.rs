//! The anchored matching is a common subsequence, never longer than the exact one.
//!
//! `anchored_diff_prepared` trades maximality for near-linear time: it anchors on
//! unique keys, splits ranges and hands small leaves to an exact kernel. Whatever it
//! does, its matching must stay a valid common subsequence of the two key sequences —
//! pairs strictly ascending on both sides, each pair's keys equal — and so can never
//! match more entries than the exact LCS of `lcs_diff_prepared` on the same keyed pair.
//!
//! Inputs: every `GenProfile` at several sizes, each as a base trace against a mutated
//! copy and against a fresh trace, under the default options and under small segment
//! and depth limits that force anchoring on short traces too. The generator is seeded
//! from the clock and the seed is printed; `RPRISM_FUZZ_SEED=<n>` replays a run.

use rprism_diff::{anchored_diff_prepared, lcs_diff_prepared, AnchoredDiffOptions, LcsDiffOptions};
use rprism_trace::testgen::{fuzz_seed, mutated, GenProfile, Rng};
use rprism_trace::KeyedTrace;

fn assert_bounded(
    context: &str,
    left: &KeyedTrace,
    right: &KeyedTrace,
    options: &AnchoredDiffOptions,
) {
    let anchored = anchored_diff_prepared(left, right, options);
    let pairs = anchored.matching.normalized_pairs();
    for pair in pairs.windows(2) {
        let ((l0, r0), (l1, r1)) = (pair[0], pair[1]);
        assert!(
            l0 < l1 && r0 < r1,
            "{context}: pairs {:?} and {:?} do not ascend on both sides",
            pair[0],
            pair[1]
        );
    }
    for &(l, r) in pairs {
        assert!(
            left.key_eq(l, right, r),
            "{context}: pair ({l}, {r}) has unequal keys"
        );
    }
    let exact = lcs_diff_prepared(left, right, &LcsDiffOptions::default()).unwrap();
    assert!(
        pairs.len() <= exact.matching.len(),
        "{context}: anchored matched {} entries, the exact LCS {}",
        pairs.len(),
        exact.matching.len()
    );
}

#[test]
fn anchored_matching_never_beats_the_exact_count() {
    let mut rng = Rng::new(fuzz_seed() ^ 0xa2c4_0b0d);
    for &profile in GenProfile::ALL {
        for entries in [1, 40, 300, 900] {
            for independent in [false, true] {
                let base = profile.generate(&mut rng, entries);
                let other = if independent {
                    profile.generate(&mut rng, entries)
                } else {
                    mutated(&mut rng, &base)
                };
                let (left, right) = (KeyedTrace::build(&base), KeyedTrace::build(&other));
                let forced = AnchoredDiffOptions {
                    max_depth: rng.usize(0, 8),
                    max_segment: rng.usize(1, 32),
                    ..Default::default()
                };
                for options in [AnchoredDiffOptions::default(), forced] {
                    let context = format!(
                        "{profile}-{entries} {} (max_depth {}, max_segment {})",
                        if independent {
                            "independent"
                        } else {
                            "mutated"
                        },
                        options.max_depth,
                        options.max_segment
                    );
                    assert_bounded(&context, &left, &right, &options);
                }
            }
        }
    }
}
