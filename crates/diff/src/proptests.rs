//! Property-based tests relating the three LCS implementations on randomly generated
//! inputs, plus the keyed-equality equivalence properties of the interned event-key
//! layer. The generators are the deterministic SplitMix64-based ones from
//! [`rprism_trace::testgen`] (the workspace is dependency-free, so no `proptest`).

#![cfg(test)]

use rprism_trace::testgen::{arbitrary_entry, Rng};
use rprism_trace::{event_eq, intern, resolve, EventKey, KeyRef, KeyedTrace, Trace};

use crate::anchored::{anchored_diff_prepared, AnchoredDiffOptions};
use crate::cost::{CostMeter, MemoryBudget};
use crate::lcs::{
    lcs_bitparallel, lcs_bitparallel_table, lcs_dp, lcs_dp_table, lcs_hirschberg, lcs_length,
    LcsScratch,
};

const CASES: usize = 64;

fn sequences(rng: &mut Rng, max_len: usize) -> (Vec<u8>, Vec<u8>) {
    // Small alphabets create many repeated symbols — the hard case for correlation.
    let left = (0..rng.usize(0, max_len))
        .map(|_| rng.range(0, 6) as u8)
        .collect();
    let right = (0..rng.usize(0, max_len))
        .map(|_| rng.range(0, 6) as u8)
        .collect();
    (left, right)
}

/// All three LCS implementations agree on the subsequence length.
#[test]
fn lcs_variants_agree_on_length() {
    let mut rng = Rng::new(101);
    for _ in 0..CASES {
        let (left, right) = sequences(&mut rng, 60);
        let mut m = CostMeter::new();
        let dp = lcs_dp(&left, &right, &mut m, MemoryBudget::unlimited()).unwrap();
        let bp = lcs_bitparallel(&left, &right, &mut m, MemoryBudget::unlimited()).unwrap();
        let hir = lcs_hirschberg(&left, &right, &mut m);
        let len = lcs_length(&left, &right, &mut m);
        assert_eq!(dp.len(), len, "dp vs length on {left:?} / {right:?}");
        assert_eq!(
            bp.len(),
            len,
            "bitparallel vs length on {left:?} / {right:?}"
        );
        assert_eq!(
            hir.len(),
            len,
            "hirschberg vs length on {left:?} / {right:?}"
        );
    }
}

/// Every matching produced is a valid common subsequence: strictly increasing on both
/// sides and element-wise equal.
#[test]
fn lcs_matchings_are_valid_common_subsequences() {
    let mut rng = Rng::new(202);
    for _ in 0..CASES {
        let (left, right) = sequences(&mut rng, 60);
        let mut m = CostMeter::new();
        for pairs in [
            lcs_dp(&left, &right, &mut m, MemoryBudget::unlimited()).unwrap(),
            lcs_bitparallel(&left, &right, &mut m, MemoryBudget::unlimited()).unwrap(),
            lcs_hirschberg(&left, &right, &mut m),
        ] {
            for w in pairs.windows(2) {
                assert!(w[0].0 < w[1].0);
                assert!(w[0].1 < w[1].1);
            }
            for (i, j) in pairs {
                assert_eq!(left[i], right[j]);
            }
        }
    }
}

/// LCS length bounds: no longer than either input, and equal to the input length when
/// diffing a sequence against itself.
#[test]
fn lcs_length_bounds() {
    let mut rng = Rng::new(303);
    for _ in 0..CASES {
        let (left, right) = sequences(&mut rng, 60);
        let mut m = CostMeter::new();
        let len = lcs_length(&left, &right, &mut m);
        assert!(len <= left.len() && len <= right.len());
        assert_eq!(lcs_length(&left, &left, &mut m), left.len());
    }
}

/// The prefix/suffix strip inside [`lcs_dp`] never changes the result length relative to
/// the raw (unstripped) quadratic table, and never performs more comparisons than the
/// unstripped run plus the linear strip scans.
#[test]
fn optimization_is_sound_and_never_slower() {
    let mut rng = Rng::new(404);
    for _ in 0..CASES {
        let shared: Vec<u8> = (0..rng.usize(0, 20))
            .map(|_| rng.range(0, 6) as u8)
            .collect();
        let mid_l: Vec<u8> = (0..rng.usize(0, 20))
            .map(|_| rng.range(0, 6) as u8)
            .collect();
        let mid_r: Vec<u8> = (0..rng.usize(0, 20))
            .map(|_| rng.range(0, 6) as u8)
            .collect();
        // Construct inputs with a guaranteed common prefix and suffix.
        let left: Vec<u8> = shared
            .iter()
            .copied()
            .chain(mid_l)
            .chain(shared.iter().copied())
            .collect();
        let right: Vec<u8> = shared
            .iter()
            .copied()
            .chain(mid_r)
            .chain(shared.iter().copied())
            .collect();
        let mut m_raw = CostMeter::new();
        let mut m_stripped = CostMeter::new();
        // The raw table core vs the stripped public entry point.
        let raw = lcs_dp_table(&left, &right, &mut m_raw, MemoryBudget::unlimited()).unwrap();
        let stripped = lcs_dp(&left, &right, &mut m_stripped, MemoryBudget::unlimited()).unwrap();
        assert_eq!(raw.len(), stripped.len());
        assert!(
            m_stripped.stats().compare_ops
                <= m_raw.stats().compare_ops + 2 * (left.len() as u64 + right.len() as u64)
        );
        // Stripped pairs are still a valid common subsequence.
        for (i, j) in &stripped {
            assert_eq!(left[*i], right[*j]);
        }
    }
}

/// The bit-parallel kernel is byte-identical to the DP on random sequences — not just
/// the LCS length but the exact matched pair list and the compare accounting, over both
/// small alphabets (many repeats: the carry-heavy case) and wide ones.
#[test]
fn bitparallel_equals_dp_on_random_sequences() {
    let mut rng = Rng::new(808);
    for _ in 0..CASES {
        let (left, right) = sequences(&mut rng, 80);
        let mut m_dp = CostMeter::new();
        let mut m_bp = CostMeter::new();
        let dp = lcs_dp(&left, &right, &mut m_dp, MemoryBudget::unlimited()).unwrap();
        let bp = lcs_bitparallel(&left, &right, &mut m_bp, MemoryBudget::unlimited()).unwrap();
        assert_eq!(dp, bp, "pairs diverged on {left:?} / {right:?}");
        assert_eq!(dp.len(), lcs_length(&left, &right, &mut CostMeter::new()));
        assert_eq!(
            m_dp.stats().compare_ops,
            m_bp.stats().compare_ops,
            "compare accounting diverged on {left:?} / {right:?}"
        );
    }
}

/// Same equivalence over >64-distinct-symbol inputs, which force the packed core to
/// refuse and the entry point to fall back to the DP — the fallback must be seamless.
#[test]
fn bitparallel_equals_dp_beyond_the_packing_limit() {
    let mut rng = Rng::new(909);
    for _ in 0..CASES {
        // The right side starts with 100 guaranteed-distinct symbols (then random
        // draws), so its alphabet always exceeds the 64-class packing limit and every
        // case exercises the refusal.
        let left: Vec<u16> = (0..rng.usize(80, 160))
            .map(|_| rng.range(0, 200) as u16)
            .collect();
        let mut right: Vec<u16> = (0..100u16).collect();
        right.extend((0..rng.usize(0, 60)).map(|_| rng.range(0, 200) as u16));
        let refused = !lcs_bitparallel_table(
            &left,
            &right,
            &mut CostMeter::new(),
            MemoryBudget::unlimited(),
            &mut LcsScratch::default(),
        )
        .unwrap();
        assert!(refused, "100 distinct symbols must exceed 64 classes");
        let mut m_dp = CostMeter::new();
        let mut m_bp = CostMeter::new();
        let dp = lcs_dp(&left, &right, &mut m_dp, MemoryBudget::unlimited()).unwrap();
        let bp = lcs_bitparallel(&left, &right, &mut m_bp, MemoryBudget::unlimited()).unwrap();
        assert_eq!(dp, bp);
        assert_eq!(m_dp.stats().compare_ops, m_bp.stats().compare_ops);
    }
}

/// Bit-parallel ≡ DP on random *interned* key sequences (the production element type:
/// `KeyRef` equality is hash-check-then-operands, exercising the equality-class mask
/// construction rather than plain scalar equality).
#[test]
fn bitparallel_equals_dp_on_interned_keys() {
    let mut rng = Rng::new(1010);
    for _ in 0..8 {
        let mut left = Trace::named("prop-bp-left");
        let mut right = Trace::named("prop-bp-right");
        for _ in 0..rng.usize(0, 90) {
            left.push(arbitrary_entry(&mut rng));
        }
        for _ in 0..rng.usize(0, 90) {
            right.push(arbitrary_entry(&mut rng));
        }
        let lk = KeyedTrace::build(&left);
        let rk = KeyedTrace::build(&right);
        let lkeys: Vec<KeyRef<'_>> = (0..lk.len()).map(|i| lk.key(i)).collect();
        let rkeys: Vec<KeyRef<'_>> = (0..rk.len()).map(|i| rk.key(i)).collect();
        let mut m_dp = CostMeter::new();
        let mut m_bp = CostMeter::new();
        let dp = lcs_dp(&lkeys, &rkeys, &mut m_dp, MemoryBudget::unlimited()).unwrap();
        let bp = lcs_bitparallel(&lkeys, &rkeys, &mut m_bp, MemoryBudget::unlimited()).unwrap();
        assert_eq!(dp, bp);
        assert_eq!(m_dp.stats().compare_ops, m_bp.stats().compare_ops);
    }
}

/// Anchored matchings are always *valid* (monotone, `=e`-equal pairs) and never larger
/// than the exact LCS; on identical inputs they are complete.
#[test]
fn anchored_matchings_are_valid_and_bounded_by_exact_lcs() {
    let mut rng = Rng::new(1111);
    for _ in 0..8 {
        let mut left = Trace::named("prop-anch-left");
        let mut right = Trace::named("prop-anch-right");
        for _ in 0..rng.usize(0, 80) {
            left.push(arbitrary_entry(&mut rng));
        }
        for _ in 0..rng.usize(0, 80) {
            right.push(arbitrary_entry(&mut rng));
        }
        let lk = KeyedTrace::build(&left);
        let rk = KeyedTrace::build(&right);
        // max_segment 1 forces real anchoring even at these sizes.
        let options = AnchoredDiffOptions {
            max_segment: 1,
            ..Default::default()
        };
        let anchored = anchored_diff_prepared(&lk, &rk, &options);
        let pairs = anchored.matching.normalized_pairs();
        for w in pairs.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1);
        }
        for (i, j) in pairs {
            assert!(lk.key_eq(*i, &rk, *j));
        }
        let lkeys: Vec<KeyRef<'_>> = (0..lk.len()).map(|i| lk.key(i)).collect();
        let rkeys: Vec<KeyRef<'_>> = (0..rk.len()).map(|i| rk.key(i)).collect();
        let exact = lcs_dp(
            &lkeys,
            &rkeys,
            &mut CostMeter::new(),
            MemoryBudget::unlimited(),
        )
        .unwrap();
        assert!(
            pairs.len() <= exact.len(),
            "anchored matched more than the LCS"
        );
        let identical = anchored_diff_prepared(&lk, &lk, &options);
        assert_eq!(identical.num_similar(), lk.len());
    }
}

/// The tentpole equivalence: `CompactEventKey` equality ≡ `EventKey` equality ≡
/// `event_eq`, over arbitrary generated events (the keyed hot path may never disagree
/// with the structural fallback or the owned canonical key).
#[test]
fn compact_key_equality_equals_eventkey_equality_equals_event_eq() {
    let mut rng = Rng::new(505);
    let mut left = Trace::named("prop-left");
    let mut right = Trace::named("prop-right");
    for _ in 0..120 {
        left.push(arbitrary_entry(&mut rng));
        right.push(arbitrary_entry(&mut rng));
    }
    let lk = KeyedTrace::build(&left);
    let rk = KeyedTrace::build(&right);

    for i in 0..left.len() {
        for j in 0..right.len() {
            let by_compact = lk.key_eq(i, &rk, j);
            let by_keyref = lk.key(i) == rk.key(j);
            let by_eventkey = EventKey::of(&left[i]) == EventKey::of(&right[j]);
            let by_structural = event_eq(&left[i], &right[j]);
            assert_eq!(by_compact, by_eventkey, "compact vs EventKey at ({i},{j})");
            assert_eq!(by_keyref, by_eventkey, "KeyRef vs EventKey at ({i},{j})");
            assert_eq!(
                by_structural, by_eventkey,
                "event_eq vs EventKey at ({i},{j})"
            );
        }
    }
}

/// Equal keys hash equally (hash-consistency of the precomputed 64-bit content hash).
#[test]
fn equal_compact_keys_share_their_precomputed_hash() {
    let mut rng = Rng::new(606);
    let mut trace = Trace::named("prop-hash");
    for _ in 0..200 {
        trace.push(arbitrary_entry(&mut rng));
    }
    let keyed = KeyedTrace::build(&trace);
    for i in 0..trace.len() {
        for j in 0..trace.len() {
            if keyed.key_eq(i, &keyed, j) {
                assert_eq!(keyed.compact(i).hash, keyed.compact(j).hash);
            }
        }
    }
}

/// Interning round-trips arbitrary generated names, and equal strings always produce
/// equal symbols.
#[test]
fn interning_round_trips_names() {
    let mut rng = Rng::new(707);
    for _ in 0..CASES {
        let name = format!("name_{}_{}", rng.range(0, 12), rng.range(0, 12));
        let sym = intern(&name);
        assert_eq!(resolve(sym), name);
        assert_eq!(intern(&name), sym);
    }
}
