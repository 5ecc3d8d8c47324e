//! `Matching`'s derived views ≡ a naive reference.
//!
//! A matching is normalized once when it is built, and its difference views read dense
//! per-side bitsets. This suite builds matchings from random pair lists and compares
//! every derived view — `normalized_pairs`/`len`, the membership queries,
//! `unmatched_*`, `num_differences` and `difference_sequences` — with a reference that
//! recomputes each from the raw pairs by cloning, sorting and probing `HashSet`s.
//!
//! Inputs: duplicates, crossing pairs, out-of-order pushes, empty sides, full and empty
//! matchings, indices at `len - 1`, lengths around the 64-bit word boundaries, and the
//! occasional pair past a side's length. The generator is seeded from the clock and the
//! seed is printed; `RPRISM_FUZZ_SEED=<n>` replays a run.

use std::collections::HashSet;

use rprism_diff::{DiffSequence, Matching};
use rprism_trace::testgen::{fuzz_seed, Rng};

/// Every view recomputed from the raw pair list on each call.
struct Reference {
    pairs: Vec<(usize, usize)>,
    left_len: usize,
    right_len: usize,
}

impl Reference {
    fn normalized_pairs(&self) -> Vec<(usize, usize)> {
        let mut p = self.pairs.clone();
        p.sort_unstable();
        p.dedup();
        p
    }

    fn matched_left(&self) -> HashSet<usize> {
        self.pairs.iter().map(|(l, _)| *l).collect()
    }

    fn matched_right(&self) -> HashSet<usize> {
        self.pairs.iter().map(|(_, r)| *r).collect()
    }

    fn unmatched_left(&self) -> Vec<usize> {
        let matched = self.matched_left();
        (0..self.left_len)
            .filter(|i| !matched.contains(i))
            .collect()
    }

    fn unmatched_right(&self) -> Vec<usize> {
        let matched = self.matched_right();
        (0..self.right_len)
            .filter(|i| !matched.contains(i))
            .collect()
    }

    fn num_differences(&self) -> usize {
        self.unmatched_left().len() + self.unmatched_right().len()
    }

    fn difference_sequences(&self) -> Vec<DiffSequence> {
        let matched_left = self.matched_left();
        let matched_right = self.matched_right();
        let mut anchors = Vec::new();
        let mut last_r = None;
        for (l, r) in self.normalized_pairs() {
            if last_r.is_none_or(|prev| r > prev) {
                anchors.push((l, r));
                last_r = Some(r);
            }
        }
        anchors.push((self.left_len, self.right_len));
        let mut sequences = Vec::new();
        let (mut prev_l, mut prev_r) = (0usize, 0usize);
        for (al, ar) in anchors {
            let left: Vec<usize> = (prev_l..al.min(self.left_len))
                .filter(|i| !matched_left.contains(i))
                .collect();
            let right: Vec<usize> = (prev_r..ar.min(self.right_len))
                .filter(|i| !matched_right.contains(i))
                .collect();
            if !left.is_empty() || !right.is_empty() {
                sequences.push(DiffSequence { left, right });
            }
            prev_l = al.saturating_add(1).min(self.left_len);
            prev_r = ar.saturating_add(1).min(self.right_len);
        }
        sequences
    }
}

/// Side lengths: empty, tiny, and around the 64-bit word boundaries.
const LENGTHS: &[usize] = &[0, 1, 2, 7, 63, 64, 65, 127, 128, 129, 200, 300];

/// One random raw pair list over sides of the given lengths.
fn random_pairs(rng: &mut Rng, left_len: usize, right_len: usize) -> Vec<(usize, usize)> {
    if left_len == 0 || right_len == 0 {
        return Vec::new();
    }
    let mut pairs: Vec<(usize, usize)> = match rng.usize(0, 5) {
        // Empty matching.
        0 => Vec::new(),
        // Full matching: every index of both sides is matched.
        1 => (0..left_len.max(right_len))
            .map(|i| (i.min(left_len - 1), i.min(right_len - 1)))
            .collect(),
        // Monotone, as the LCS and views scans mostly produce.
        2 => {
            let (mut l, mut r) = (rng.usize(0, 3), rng.usize(0, 3));
            let mut out = Vec::new();
            while l < left_len && r < right_len {
                out.push((l, r));
                l += rng.usize(1, 4);
                r += rng.usize(1, 4);
            }
            out
        }
        // Arbitrary, crossing pairs included.
        _ => {
            let count = rng.usize(0, left_len.max(right_len) + 1);
            (0..count)
                .map(|_| (rng.usize(0, left_len), rng.usize(0, right_len)))
                .collect()
        }
    };
    // The last index of each side.
    if rng.bool() {
        pairs.push((left_len - 1, rng.usize(0, right_len)));
    }
    if rng.bool() {
        pairs.push((rng.usize(0, left_len), right_len - 1));
    }
    // Duplicates.
    for _ in 0..rng.usize(0, 4) {
        if !pairs.is_empty() {
            let dup = *rng.pick(&pairs);
            pairs.push(dup);
        }
    }
    // Rarely, a pair past one side's length.
    if rng.usize(0, 16) == 0 {
        pairs.push((left_len + rng.usize(0, 3), rng.usize(0, right_len)));
    }
    if rng.usize(0, 16) == 0 {
        pairs.push((rng.usize(0, left_len), right_len + rng.usize(0, 3)));
    }
    // Out-of-order pushes: a shuffle, or a reversal, or left as generated.
    match rng.usize(0, 3) {
        0 => {
            for i in (1..pairs.len()).rev() {
                let j = rng.usize(0, i + 1);
                pairs.swap(i, j);
            }
        }
        1 => pairs.reverse(),
        _ => {}
    }
    pairs
}

fn assert_views_agree(context: &str, matching: &Matching, reference: &Reference) {
    let pairs = reference.normalized_pairs();
    assert_eq!(
        matching.normalized_pairs(),
        pairs,
        "{context}: normalized_pairs"
    );
    assert_eq!(matching.len(), pairs.len(), "{context}: len");
    assert_eq!(matching.is_empty(), pairs.is_empty(), "{context}: is_empty");
    assert_eq!(
        matching.left_len(),
        reference.left_len,
        "{context}: left_len"
    );
    assert_eq!(
        matching.right_len(),
        reference.right_len,
        "{context}: right_len"
    );

    let (matched_left, matched_right) = (reference.matched_left(), reference.matched_right());
    for i in 0..reference.left_len {
        assert_eq!(
            matching.is_matched_left(i),
            matched_left.contains(&i),
            "{context}: is_matched_left({i})"
        );
    }
    for i in 0..reference.right_len {
        assert_eq!(
            matching.is_matched_right(i),
            matched_right.contains(&i),
            "{context}: is_matched_right({i})"
        );
    }
    assert!(
        !matching.is_matched_left(reference.left_len),
        "{context}: past the left side"
    );
    assert!(
        !matching.is_matched_right(reference.right_len),
        "{context}: past the right side"
    );

    assert_eq!(
        matching.unmatched_left(),
        reference.unmatched_left(),
        "{context}: unmatched_left"
    );
    assert_eq!(
        matching.unmatched_right(),
        reference.unmatched_right(),
        "{context}: unmatched_right"
    );
    assert_eq!(
        matching.num_differences(),
        reference.num_differences(),
        "{context}: num_differences"
    );
    let sequences = matching.difference_sequences();
    assert_eq!(
        sequences,
        reference.difference_sequences(),
        "{context}: difference_sequences"
    );
    assert_eq!(
        sequences.iter().map(DiffSequence::len).sum::<usize>(),
        matching.num_differences(),
        "{context}: the sequences partition the differences"
    );
}

#[test]
fn derived_views_match_the_naive_reference() {
    let seed = fuzz_seed();
    let mut rng = Rng::new(seed);
    for case in 0..3000 {
        let left_len = *rng.pick(LENGTHS);
        let right_len = *rng.pick(LENGTHS);
        let pairs = random_pairs(&mut rng, left_len, right_len);
        let context = format!(
            "seed {seed} case {case} ({left_len}x{right_len}, {} raw pairs)",
            pairs.len()
        );
        let matching = Matching::from_pairs(left_len, right_len, pairs.clone());
        let reference = Reference {
            pairs,
            left_len,
            right_len,
        };
        assert_views_agree(&context, &matching, &reference);
    }
}

#[test]
fn default_matching_is_empty_over_empty_sides() {
    let matching = Matching::default();
    let reference = Reference {
        pairs: Vec::new(),
        left_len: 0,
        right_len: 0,
    };
    assert_views_agree("default", &matching, &reference);
    assert_eq!(matching, Matching::from_pairs(0, 0, Vec::new()));
}
