//! The bit-parallel kernel over one reused [`LcsScratch`] ≡ the DP reference.
//!
//! The views scan keeps one scratch per thread-pair scan and runs every windowed LCS of
//! its mismatch explorations through it, so a stale buffer would corrupt a later call.
//! This suite reuses one scratch across a random sequence of calls whose widths cross
//! the 64-bit word boundaries, with small alphabets (the carry-heavy case) and alphabets
//! above [`MAX_BITPARALLEL_CLASSES`] classes, whose calls refuse the packed core after
//! class discovery has half-filled the scratch and fall back to the DP table. Every
//! call must equal [`lcs_dp`] on a fresh meter in pairs and compare count, and a fresh
//! [`lcs_bitparallel`] in pairs, compare count and peak bytes; a call that falls back
//! must also meter the DP's peak bytes.
//!
//! The generator is seeded from the clock and the seed is printed;
//! `RPRISM_FUZZ_SEED=<n>` replays a run.

#![cfg(test)]

use rprism_trace::testgen::{fuzz_seed, Rng};

use crate::cost::{CostMeter, MemoryBudget};
use crate::lcs::{
    lcs_bitparallel, lcs_bitparallel_into, lcs_dp, LcsScratch, MAX_BITPARALLEL_CLASSES,
};

/// Side widths: empty, one, and around the word boundaries.
const WIDTHS: &[usize] = &[0, 1, 63, 64, 65, 128];

fn width(rng: &mut Rng) -> usize {
    if rng.bool() {
        *rng.pick(WIDTHS)
    } else {
        rng.usize(0, 130)
    }
}

/// One call's inputs: independent sides, or a right side that is the left with a few
/// symbols replaced (so prefix/suffix stripping leaves a narrow middle).
fn case(rng: &mut Rng) -> (Vec<u16>, Vec<u16>) {
    let alphabet = if rng.bool() {
        rng.range(1, 8)
    } else {
        rng.range(MAX_BITPARALLEL_CLASSES as u64 + 1, 200)
    } as u16;
    let len = width(rng);
    let left = symbols(rng, len, alphabet);
    let right = if rng.usize(0, 3) == 0 {
        let mut right = left.clone();
        for _ in 0..rng.usize(0, 4) {
            if !right.is_empty() {
                let at = rng.usize(0, right.len());
                right[at] = rng.range(0, u64::from(alphabet)) as u16;
            }
        }
        right
    } else {
        let len = width(rng);
        symbols(rng, len, alphabet)
    };
    (left, right)
}

fn symbols(rng: &mut Rng, len: usize, alphabet: u16) -> Vec<u16> {
    (0..len)
        .map(|_| rng.range(0, u64::from(alphabet)) as u16)
        .collect()
}

#[test]
fn reused_scratch_equals_the_dp_reference() {
    let mut rng = Rng::new(fuzz_seed());
    let mut scratch = LcsScratch::default();
    let mut fallbacks = 0usize;
    for call in 0..400 {
        let (left, right) = case(&mut rng);
        let mut meter = CostMeter::new();
        let mut pairs = Vec::new();
        lcs_bitparallel_into(
            &left,
            &right,
            &mut meter,
            MemoryBudget::unlimited(),
            &mut scratch,
            |i, j| {
                pairs.push((i, j));
            },
        )
        .unwrap();

        let mut m_dp = CostMeter::new();
        let dp = lcs_dp(&left, &right, &mut m_dp, MemoryBudget::unlimited()).unwrap();
        let mut m_fresh = CostMeter::new();
        let fresh =
            lcs_bitparallel(&left, &right, &mut m_fresh, MemoryBudget::unlimited()).unwrap();

        let context = format!("call {call}: {left:?} / {right:?}");
        assert_eq!(pairs, dp, "pairs diverged from the DP at {context}");
        assert_eq!(
            pairs, fresh,
            "pairs diverged from a fresh scratch at {context}"
        );
        let (stats, dp_stats, fresh_stats) = (meter.stats(), m_dp.stats(), m_fresh.stats());
        assert_eq!(
            stats.compare_ops, dp_stats.compare_ops,
            "compare_ops at {context}"
        );
        assert_eq!(
            stats.peak_bytes, fresh_stats.peak_bytes,
            "peak_bytes at {context}"
        );

        // The packed core sees the right side's middle, after the common prefix and
        // suffix are stripped.
        let prefix = left.iter().zip(&right).take_while(|(l, r)| l == r).count();
        let suffix = left[prefix..]
            .iter()
            .rev()
            .zip(right[prefix..].iter().rev())
            .take_while(|(l, r)| l == r)
            .count();
        let mut distinct = right[prefix..right.len() - suffix].to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() > MAX_BITPARALLEL_CLASSES {
            fallbacks += 1;
            assert_eq!(
                stats.peak_bytes, dp_stats.peak_bytes,
                "fallback peak_bytes at {context}"
            );
        }
    }
    assert!(fallbacks > 0, "no call exercised the DP fallback");
}
