//! Anchor-based (patience/histogram) trace differencing.
//!
//! The exact differencers are quadratic in the differing middle; on 100k+-entry traces
//! that is the dominant cost even with prefix/suffix stripping. This module trades the
//! *identity* of the matching for near-linear behaviour on real traces: interned key
//! ids (the right side's translated into the left side's, see
//! [`KeyedTrace::translate_into`]) that occur exactly once in both ranges are patience
//! anchors — a longest increasing subsequence of them splits the problem into
//! independent segments, recursively, with a histogram fallback (a balanced split at
//! the common key nearest the range midpoint) when no unique key exists. Leaf segments
//! small enough for the exact kernels are diffed exactly (bit-parallel with DP fallback, and
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

use rprism_trace::{par, IntHashState, IntMap, KeyedTrace, Trace};

use crate::cost::{CostMeter, DiffError, MemoryBudget};
use crate::lcs::{lcs_bitparallel, lcs_hirschberg};
use crate::lcs_diff::translated_ids;
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

    let lkeys = left_keyed.ids();
    let rkeys = translated_ids(left_keyed, right_keyed);
    let key_bytes = left_keyed.estimated_bytes()
        + right_keyed.estimated_bytes()
        + (rkeys.len() * std::mem::size_of::<u32>()) as u64;
    meter.allocate(key_bytes);

    let mut anchoring = Anchoring {
        lkeys,
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
            diff_segment(lkeys, &rkeys, seg, options, &mut leaf_meter),
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
    lkeys: &[u32],
    rkeys: &[u32],
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

/// The recursive anchor discovery over index ranges of the two key id sequences.
struct Anchoring<'k> {
    lkeys: &'k [u32],
    rkeys: &'k [u32],
    options: &'k AnchoredDiffOptions,
    /// Directly matched pairs (stripped runs and verified anchors), global indices.
    pairs: Vec<(usize, usize)>,
    /// Leaf ranges left for the exact kernels.
    segments: Vec<Segment>,
}

impl Anchoring<'_> {
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
        // the key ids: the former drives patience uniqueness checks, the latter both
        // uniqueness checks and nearest-occurrence lookups for splits. Ids are equal
        // exactly when keys are, so every position found is a true occurrence.
        let lhist = histogram(&self.lkeys[l0..l1]);
        let rpos = positions_by_id(&self.rkeys[r0..r1]);

        // Patience anchors: keys unique in both ranges (one compare counted per anchor,
        // as checking its key), chained by a longest increasing subsequence of their
        // right positions.
        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for (li, id) in self.lkeys[l0..l1].iter().enumerate() {
            if lhist.get(id).is_some_and(|e| e.count == 1) {
                if let Some(&[p]) = rpos.get(id).map(Vec::as_slice) {
                    meter.count_compares(1);
                    candidates.push((l0 + li, r0 + p));
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
        // midpoint* at an entry whose key also occurs on the right, pairing it with
        // the right occurrence closest to the proportionally aligned position. The
        // midpoint choice keeps the recursion balanced — splitting at a key's first
        // occurrence can peel one tiny chunk per level, exhaust
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
                let Some(ps) = rpos.get(&self.lkeys[li]) else {
                    continue;
                };
                probed += 1;
                let target =
                    r0 + ((li - l0) as u128 * (r1 - r0) as u128 / (l1 - l0) as u128) as usize;
                // One compare counted, as checking the occurrence's key.
                meter.count_compares(1);
                let ar = r0 + nearest(ps, target - r0);
                let distance = ar.abs_diff(target);
                if best.is_none_or(|(b, _, _)| distance < b) {
                    best = Some((distance, li, ar));
                }
                if distance <= GOOD_SPLIT {
                    break 'probe;
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

/// The occurrence in a sorted, non-empty position list nearest `target`, the lower
/// one on a tie.
fn nearest(positions: &[usize], target: usize) -> usize {
    let idx = positions.partition_point(|&p| p < target);
    match (idx.checked_sub(1), positions.get(idx)) {
        (Some(b), Some(&a)) if a - target < target - positions[b] => a,
        (Some(b), _) => positions[b],
        (None, _) => positions[idx],
    }
}

/// Occurrence summary of one key id within a range.
#[derive(Clone, Copy)]
struct HistEntry {
    /// Occurrence count, saturating at `u32::MAX` (only "1" vs "more" matters).
    count: u32,
}

fn histogram(ids: &[u32]) -> IntMap<u32, HistEntry> {
    let mut hist: IntMap<u32, HistEntry> =
        IntMap::with_capacity_and_hasher(ids.len(), IntHashState::new());
    for &id in ids {
        hist.entry(id)
            .and_modify(|e| e.count = e.count.saturating_add(1))
            .or_insert(HistEntry { count: 1 });
    }
    hist
}

/// Range-relative occurrence positions of every key id, in ascending order (a
/// by-product of the forward scan), for nearest-occurrence split lookups.
fn positions_by_id(ids: &[u32]) -> IntMap<u32, Vec<usize>> {
    let mut map: IntMap<u32, Vec<usize>> =
        IntMap::with_capacity_and_hasher(ids.len(), IntHashState::new());
    for (i, &id) in ids.iter().enumerate() {
        map.entry(id).or_default().push(i);
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
