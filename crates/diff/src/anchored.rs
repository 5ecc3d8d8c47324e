//! Anchor-based (patience/histogram) trace differencing.
//!
//! The exact differencers are quadratic in the differing middle; on 100k+-entry traces
//! that is the dominant cost even with prefix/suffix stripping. This module trades the
//! *identity* of the matching for near-linear behaviour on real traces: interned
//! [`CompactEventKey`](rprism_trace::CompactEventKey) hashes that occur exactly once in
//! both ranges are patience anchors — a longest increasing subsequence of them splits
//! the problem into independent segments, recursively, with a histogram fallback
//! (a balanced split at the common key nearest the range midpoint) when no unique
//! key exists. Leaf segments small
//! enough for the exact kernels are diffed exactly (bit-parallel with DP fallback, and
//! Hirschberg when the per-segment memory budget is exceeded) and fan out over
//! [`rprism_trace::par`].
//!
//! The result is a *valid* matching — every pair is `=e`-equal and monotone — but not
//! necessarily the maximal one the exact modes compute: an anchor choice can shadow a
//! slightly longer crossing alignment. Regression verdicts are equivalence-tested
//! against the exact modes on the paper's case studies; matchings may legitimately
//! differ (see MIGRATION.md, "Choosing a diff algorithm").
//!
//! Like the LCS baseline, anchoring consumes only the two [`KeyedTrace`]s — no view
//! webs — so it composes with streaming ingestion's lean handles.

use std::time::Instant;

use rprism_trace::{par, IntHashState, IntMap, KeyRef, KeyedTrace, Trace};

use crate::cost::{CostMeter, DiffError, MemoryBudget};
use crate::lcs::{lcs_bitparallel, lcs_hirschberg};
use crate::matching::Matching;
use crate::result::TraceDiffResult;

/// Configuration of the anchor-based differencer.
///
/// Plain data: set the fields that differ from the defaults and take the rest from
/// [`AnchoredDiffOptions::default`].
///
/// ```
/// use rprism_diff::AnchoredDiffOptions;
/// let options = AnchoredDiffOptions { max_segment: 256, ..Default::default() };
/// assert_eq!(options.max_depth, 32);
/// ```
#[derive(Clone, Debug)]
pub struct AnchoredDiffOptions {
    /// Recursion depth of the anchor discovery. Each level either strips, anchors, or
    /// splits at a common key near the range midpoint (so the recursion halves the
    /// problem even without unique keys); when exhausted the remaining range becomes
    /// a leaf segment.
    pub max_depth: usize,
    /// Ranges whose cell product is at most `max_segment²` skip further anchoring and
    /// go straight to the exact kernel (the quadratic cost is negligible below this).
    pub max_segment: usize,
    /// Working-set cap for each leaf's exact kernel; a segment that would exceed it is
    /// diffed with Hirschberg's linear-space algorithm instead of failing.
    pub segment_budget: MemoryBudget,
}

impl Default for AnchoredDiffOptions {
    fn default() -> Self {
        AnchoredDiffOptions {
            max_depth: 32,
            max_segment: 512,
            segment_budget: MemoryBudget::bytes(256 << 20),
        }
    }
}

/// Differences two traces with the anchor-based mode.
pub fn anchored_diff(
    left: &Trace,
    right: &Trace,
    options: &AnchoredDiffOptions,
) -> TraceDiffResult {
    let left_keyed = KeyedTrace::build(left);
    let right_keyed = KeyedTrace::build(right);
    anchored_diff_prepared(&left_keyed, &right_keyed, options)
}

/// The prepared-artifact entry point of the anchored mode: consumes only the two
/// [`KeyedTrace`]s (like the LCS baseline, and unlike the views differencer it needs no
/// view webs), so streaming-prepared lean handles run it without materializing traces.
///
/// Never fails: a leaf segment whose exact kernel would exceed
/// [`AnchoredDiffOptions::segment_budget`] silently degrades to Hirschberg's
/// linear-space algorithm.
pub fn anchored_diff_prepared(
    left_keyed: &KeyedTrace,
    right_keyed: &KeyedTrace,
    options: &AnchoredDiffOptions,
) -> TraceDiffResult {
    let start = Instant::now();
    let mut meter = CostMeter::new();

    let lkeys: Vec<KeyRef<'_>> = (0..left_keyed.len()).map(|i| left_keyed.key(i)).collect();
    let rkeys: Vec<KeyRef<'_>> = (0..right_keyed.len()).map(|i| right_keyed.key(i)).collect();
    let key_bytes = left_keyed.estimated_bytes()
        + right_keyed.estimated_bytes()
        + ((lkeys.len() + rkeys.len()) * std::mem::size_of::<KeyRef<'_>>()) as u64;
    meter.allocate(key_bytes);

    let mut anchoring = Anchoring {
        lkeys: &lkeys,
        rkeys: &rkeys,
        options,
        pairs: Vec::new(),
        segments: Vec::new(),
    };
    anchoring.recurse(
        0,
        lkeys.len(),
        0,
        rkeys.len(),
        options.max_depth,
        &mut meter,
    );
    let Anchoring {
        mut pairs,
        segments,
        ..
    } = anchoring;

    // Leaf segments are independent sub-problems: fan them out, then merge their pairs
    // and meters in segment order.
    let leaves = par::map_ordered(&segments, |seg| {
        let mut leaf_meter = CostMeter::new();
        (
            diff_segment(&lkeys, &rkeys, seg, options, &mut leaf_meter),
            leaf_meter,
        )
    });
    for (leaf_pairs, leaf_meter) in leaves {
        pairs.extend(leaf_pairs);
        meter.merge(&leaf_meter);
    }

    meter.release(key_bytes);
    let matching = Matching::from_pairs(left_keyed.len(), right_keyed.len(), pairs);
    let sequences = matching.difference_sequences();
    TraceDiffResult {
        matching,
        sequences,
        cost: meter.stats(),
        elapsed: start.elapsed(),
        algorithm: "anchored",
    }
}

/// A leaf range still to be diffed exactly: `left[l0..l1]` against `right[r0..r1]`.
struct Segment {
    l0: usize,
    l1: usize,
    r0: usize,
    r1: usize,
}

/// Diffs one leaf segment with the bit-parallel kernel, degrading to Hirschberg when
/// the segment budget is exceeded, and returns its globally-indexed pairs.
fn diff_segment(
    lkeys: &[KeyRef<'_>],
    rkeys: &[KeyRef<'_>],
    seg: &Segment,
    options: &AnchoredDiffOptions,
    meter: &mut CostMeter,
) -> Vec<(usize, usize)> {
    let l = &lkeys[seg.l0..seg.l1];
    let r = &rkeys[seg.r0..seg.r1];
    let mut pairs = match lcs_bitparallel(l, r, meter, options.segment_budget) {
        Ok(local) => local,
        Err(DiffError::OutOfMemory { .. }) => lcs_hirschberg(l, r, meter),
    };
    for (i, j) in &mut pairs {
        *i += seg.l0;
        *j += seg.r0;
    }
    pairs
}

/// The recursive anchor discovery over index ranges of the two key sequences.
struct Anchoring<'k, 'a> {
    lkeys: &'k [KeyRef<'a>],
    rkeys: &'k [KeyRef<'a>],
    options: &'k AnchoredDiffOptions,
    /// Directly matched pairs (stripped runs and verified anchors), global indices.
    pairs: Vec<(usize, usize)>,
    /// Leaf ranges left for the exact kernels.
    segments: Vec<Segment>,
}

impl Anchoring<'_, '_> {
    fn recurse(
        &mut self,
        mut l0: usize,
        mut l1: usize,
        mut r0: usize,
        mut r1: usize,
        depth: usize,
        meter: &mut CostMeter,
    ) {
        // Strip the range's common prefix and suffix first: on real trace pairs the
        // overwhelming majority of entries match here, in linear time.
        while l0 < l1 && r0 < r1 {
            meter.count_compares(1);
            if self.lkeys[l0] == self.rkeys[r0] {
                self.pairs.push((l0, r0));
                l0 += 1;
                r0 += 1;
            } else {
                break;
            }
        }
        while l1 > l0 && r1 > r0 {
            meter.count_compares(1);
            if self.lkeys[l1 - 1] == self.rkeys[r1 - 1] {
                self.pairs.push((l1 - 1, r1 - 1));
                l1 -= 1;
                r1 -= 1;
            } else {
                break;
            }
        }
        if l0 == l1 || r0 == r1 {
            // One side exhausted: the rest of the other side is unmatched by definition.
            return;
        }
        let cells = (l1 - l0) as u64 * (r1 - r0) as u64;
        let leaf_cells = self.options.max_segment as u64 * self.options.max_segment as u64;
        if cells <= leaf_cells || depth == 0 {
            self.segments.push(Segment { l0, l1, r0, r1 });
            return;
        }

        // Left-range occurrence histogram and right-range sorted position lists over
        // the interned key hashes: the former drives patience uniqueness checks, the
        // latter both uniqueness checks and nearest-occurrence lookups for splits.
        let lhist = histogram(&self.lkeys[l0..l1]);
        let rpos = positions_by_hash(&self.rkeys[r0..r1]);

        // Patience anchors: keys unique in both ranges (verified by full key equality,
        // so interned-hash collisions cannot fabricate an anchor), chained by a longest
        // increasing subsequence of their right positions.
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for (li, key) in self.lkeys[l0..l1].iter().enumerate() {
            let hash = key.compact().hash;
            if lhist.get(&hash).is_some_and(|e| e.count == 1) {
                if let Some(ps) = rpos.get(&hash) {
                    if ps.len() == 1 {
                        meter.count_compares(1);
                        if self.rkeys[r0 + ps[0]] == *key {
                            candidates.push((l0 + li, r0 + ps[0]));
                        }
                    }
                }
            }
        }
        let chain = longest_increasing_chain(&candidates);
        if !chain.is_empty() {
            let (mut prev_l, mut prev_r) = (l0, r0);
            for &(al, ar) in &chain {
                self.recurse(prev_l, al, prev_r, ar, depth - 1, meter);
                self.pairs.push((al, ar));
                prev_l = al + 1;
                prev_r = ar + 1;
            }
            self.recurse(prev_l, l1, prev_r, r1, depth - 1, meter);
            return;
        }

        // Histogram fallback: no unique common key in the ranges. Split near the *left
        // midpoint* at an entry whose key also occurs on the right (verified by full
        // key equality, so hash collisions cannot fabricate a split), pairing it with
        // the verified right occurrence closest to the proportionally aligned
        // position. The midpoint choice keeps the recursion balanced — splitting at a
        // key's first occurrence can peel one tiny chunk per level, exhaust
        // `max_depth`, and hand the quadratic leaf kernel a near-full-size segment.
        // Probing continues past the first common key until one lands within
        // `GOOD_SPLIT` of the proportional target (a key that is rare on the right can
        // force a far-off pairing, which would shear the true alignment across
        // segment boundaries and shrink the recovered matching); the closest split
        // seen wins if no probe is that good.
        const PROBE_LIMIT: usize = 64;
        const GOOD_SPLIT: usize = 32;
        let mid = l0 + (l1 - l0) / 2;
        let mut best: Option<(usize, usize, usize)> = None; // (distance, left, right)
        let mut probed = 0usize;
        'probe: for offset in 0..(l1 - l0) {
            let below = mid.checked_sub(offset).filter(|&li| li >= l0);
            let above = if offset == 0 {
                None
            } else {
                Some(mid + offset).filter(|&li| li < l1)
            };
            if below.is_none() && above.is_none() {
                break;
            }
            for li in [below, above].into_iter().flatten() {
                let key = &self.lkeys[li];
                let Some(ps) = rpos.get(&key.compact().hash) else {
                    continue;
                };
                probed += 1;
                let target =
                    r0 + ((li - l0) as u128 * (r1 - r0) as u128 / (l1 - l0) as u128) as usize;
                if let Some(ar) = nearest_verified(self.rkeys, r0, ps, target, key, meter) {
                    let distance = ar.abs_diff(target);
                    if best.is_none_or(|(b, _, _)| distance < b) {
                        best = Some((distance, li, ar));
                    }
                    if distance <= GOOD_SPLIT {
                        break 'probe;
                    }
                }
                if probed >= PROBE_LIMIT {
                    break 'probe;
                }
            }
        }
        // `best` still being `None` means no key is common to both ranges: nothing
        // in them can match, so the whole range is a difference.
        if let Some((_, al, ar)) = best {
            self.pairs.push((al, ar));
            self.recurse(l0, al, r0, ar, depth - 1, meter);
            self.recurse(al + 1, l1, ar + 1, r1, depth - 1, meter);
        }
    }
}

/// Walks a hash's sorted range-relative occurrence list outward from the position
/// nearest `target` (a global right index) and returns the first occurrence whose key
/// actually equals `key` — filtering out cross-side hash collisions — as a global
/// index.
fn nearest_verified(
    rkeys: &[KeyRef<'_>],
    r0: usize,
    positions: &[usize],
    target: usize,
    key: &KeyRef<'_>,
    meter: &mut CostMeter,
) -> Option<usize> {
    let rel_target = target - r0;
    let idx = positions.partition_point(|&p| p < rel_target);
    let mut below = idx.checked_sub(1);
    let mut above = (idx < positions.len()).then_some(idx);
    while below.is_some() || above.is_some() {
        let pick_below = match (below, above) {
            (Some(b), Some(a)) => rel_target - positions[b] <= positions[a] - rel_target,
            (Some(_), None) => true,
            _ => false,
        };
        let k = if pick_below {
            let b = below.expect("pick_below implies a below candidate");
            below = b.checked_sub(1);
            b
        } else {
            let a = above.expect("!pick_below implies an above candidate");
            above = (a + 1 < positions.len()).then_some(a + 1);
            a
        };
        meter.count_compares(1);
        if rkeys[r0 + positions[k]] == *key {
            return Some(r0 + positions[k]);
        }
    }
    None
}

/// Occurrence summary of one hash within a range.
#[derive(Clone, Copy)]
struct HistEntry {
    /// Occurrence count, saturating at `u32::MAX` (only "1" vs "more" matters).
    count: u32,
}

fn histogram(keys: &[KeyRef<'_>]) -> IntMap<u64, HistEntry> {
    let mut hist: IntMap<u64, HistEntry> =
        IntMap::with_capacity_and_hasher(keys.len(), IntHashState::new());
    for key in keys {
        hist.entry(key.compact().hash)
            .and_modify(|e| e.count = e.count.saturating_add(1))
            .or_insert(HistEntry { count: 1 });
    }
    hist
}

/// Range-relative occurrence positions of every hash, in ascending order (a
/// by-product of the forward scan), for nearest-occurrence split lookups.
fn positions_by_hash(keys: &[KeyRef<'_>]) -> IntMap<u64, Vec<usize>> {
    let mut map: IntMap<u64, Vec<usize>> =
        IntMap::with_capacity_and_hasher(keys.len(), IntHashState::new());
    for (i, key) in keys.iter().enumerate() {
        map.entry(key.compact().hash).or_default().push(i);
    }
    map
}

/// Longest strictly-increasing (in the right index) subsequence of candidate anchors,
/// computed with patience sorting. Candidates arrive sorted by left index, so the chain
/// is monotone on both sides.
fn longest_increasing_chain(candidates: &[(usize, usize)]) -> Vec<(usize, usize)> {
    if candidates.is_empty() {
        return Vec::new();
    }
    // tails[k] = index (into candidates) of the smallest right-end of an increasing
    // chain of length k+1; parent links reconstruct the chain.
    let mut tails: Vec<usize> = Vec::new();
    let mut parent: Vec<Option<usize>> = vec![None; candidates.len()];
    for (idx, &(_, r)) in candidates.iter().enumerate() {
        let pos = tails.partition_point(|&t| candidates[t].1 < r);
        parent[idx] = if pos > 0 { Some(tails[pos - 1]) } else { None };
        if pos == tails.len() {
            tails.push(idx);
        } else {
            tails[pos] = idx;
        }
    }
    let mut chain = Vec::with_capacity(tails.len());
    let mut cursor = tails.last().copied();
    while let Some(idx) = cursor {
        chain.push(candidates[idx]);
        cursor = parent[idx];
    }
    chain.reverse();
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_lang::parser::parse_program;
    use rprism_trace::TraceMeta;
    use rprism_vm::{run_traced, VmConfig};

    fn trace_of(src: &str, name: &str) -> Trace {
        let program = parse_program(src).unwrap();
        run_traced(
            &program,
            TraceMeta::new(name, "v", "c"),
            VmConfig::default(),
        )
        .unwrap()
        .trace
    }

    const BASE: &str = r#"
        class Range extends Object { Int min; Int max; }
        class SP extends Object {
            Range r;
            Unit config(Int lo) { this.r = new Range(lo, 127); }
            Int probe() { return this.r.min; }
        }
        main {
            let sp = new SP(null);
            sp.config(32);
            sp.probe();
            sp.probe();
        }
    "#;

    #[test]
    fn identical_traces_match_completely() {
        let a = trace_of(BASE, "a");
        let b = trace_of(BASE, "b");
        let result = anchored_diff(&a, &b, &AnchoredDiffOptions::default());
        assert_eq!(result.num_differences(), 0);
        assert_eq!(result.num_similar(), a.len());
        assert_eq!(result.algorithm, "anchored");
    }

    #[test]
    fn changed_constant_is_detected() {
        let a = trace_of(BASE, "old");
        let b = trace_of(&BASE.replace("sp.config(32)", "sp.config(1)"), "new");
        let result = anchored_diff(&a, &b, &AnchoredDiffOptions::default());
        assert!(result.num_differences() > 0);
        assert!(result.num_sequences() >= 1);
    }

    #[test]
    fn matching_is_valid_and_monotone() {
        let a = trace_of(BASE, "old");
        let b = trace_of(&BASE.replace("sp.config(32)", "sp.config(1)"), "new");
        let ka = KeyedTrace::build(&a);
        let kb = KeyedTrace::build(&b);
        // Force the anchoring machinery (not just prefix/suffix stripping) even on
        // these tiny traces.
        let options = AnchoredDiffOptions {
            max_segment: 1,
            ..Default::default()
        };
        let result = anchored_diff_prepared(&ka, &kb, &options);
        let pairs = result.matching.normalized_pairs();
        for w in pairs.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1, "matching not monotone");
        }
        for &(i, j) in pairs {
            assert!(
                ka.key_eq(i, &kb, j),
                "matched pair ({i},{j}) is not =e-equal"
            );
        }
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let a = trace_of(BASE, "old");
        let b = trace_of(&BASE.replace("sp.config(32)", "sp.config(1)"), "new");
        let ka = KeyedTrace::build(&a);
        let kb = KeyedTrace::build(&b);
        let options = AnchoredDiffOptions {
            max_segment: 1,
            ..Default::default()
        };
        let rp = par::with_workers(4, || anchored_diff_prepared(&ka, &kb, &options));
        let rs = par::inline(|| anchored_diff_prepared(&ka, &kb, &options));
        assert_eq!(
            rp.matching.normalized_pairs(),
            rs.matching.normalized_pairs()
        );
        assert_eq!(rp.sequences, rs.sequences);
        assert_eq!(rp.cost.compare_ops, rs.cost.compare_ops);
    }

    #[test]
    fn tiny_segment_budget_degrades_to_hirschberg_without_failing() {
        let a = trace_of(BASE, "old");
        let b = trace_of(&BASE.replace("sp.config(32)", "sp.config(1)"), "new");
        let ka = KeyedTrace::build(&a);
        let kb = KeyedTrace::build(&b);
        let options = AnchoredDiffOptions {
            segment_budget: MemoryBudget::bytes(1),
            ..Default::default()
        };
        let result = anchored_diff_prepared(&ka, &kb, &options);
        assert!(result.num_similar() > 0);
    }

    #[test]
    fn lis_chain_is_increasing_on_both_sides() {
        let candidates = vec![(0, 5), (2, 1), (3, 2), (4, 9), (6, 4), (8, 7)];
        let chain = longest_increasing_chain(&candidates);
        assert_eq!(chain, vec![(2, 1), (3, 2), (6, 4), (8, 7)]);
    }
}
