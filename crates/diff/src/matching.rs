//! Matchings between two traces and their decomposition into difference sequences.
//!
//! Both differencing semantics (LCS-based and views-based) produce the same kind of
//! result: a set Π of entry pairs considered *similar* across the two traces. Everything
//! the regression analysis needs — the differences on each side, and the grouping of
//! contiguous differences into "difference sequences" (§5.1) — is derived from Π here.

use std::iter;
use std::ops::Range;

/// A set Π of similar-entry pairs `(left index, right index)` between two traces,
/// together with the trace lengths it refers to.
///
/// A matching is **normalized once, when it is built**: its pairs are sorted by left
/// index then right index and deduplicated, and each side's matched indices are held
/// as a dense bitset over `0..len`. A finished matching never changes, so every derived
/// view reads that invariant: [`normalized_pairs`](Self::normalized_pairs) and
/// [`len`](Self::len) are a borrow and a length, and the difference views
/// ([`unmatched_left`](Self::unmatched_left), [`num_differences`](Self::num_differences),
/// [`difference_sequences`](Self::difference_sequences)) are linear passes over the
/// bitsets, with no clone, sort or hashing per call. Differs that discover pairs
/// piecemeal collect them in a plain `Vec` and build the matching with
/// [`from_pairs`](Self::from_pairs) at the end.
///
/// A pair whose index lies outside its side's length is kept in the pair list but
/// matches no index of that side.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Matching {
    pairs: Vec<(usize, usize)>,
    matched_left: IndexBits,
    matched_right: IndexBits,
    left_len: usize,
    right_len: usize,
}

impl Matching {
    /// Creates a matching over traces of the given lengths from a pair list in any
    /// order, duplicates allowed.
    ///
    /// Normalizing is a counting sort, with no comparison sort of the whole list: one
    /// pass counts the pairs per left index, one places each pair in its left index's
    /// bucket, and each bucket's short list of right indices is sorted on its own.
    /// Pairs whose left index is past `left_len` sort after all the others.
    pub fn from_pairs(left_len: usize, right_len: usize, pairs: Vec<(usize, usize)>) -> Self {
        let pairs = sorted_dedup(left_len, pairs);
        Matching {
            matched_left: IndexBits::of(left_len, pairs.iter().map(|&(l, _)| l)),
            matched_right: IndexBits::of(right_len, pairs.iter().map(|&(_, r)| r)),
            pairs,
            left_len,
            right_len,
        }
    }

    /// The pairs, sorted by left index then right index, deduplicated.
    pub fn normalized_pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Number of (deduplicated) similar pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Returns `true` when the matching has no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The left-trace length this matching refers to.
    pub fn left_len(&self) -> usize {
        self.left_len
    }

    /// The right-trace length this matching refers to.
    pub fn right_len(&self) -> usize {
        self.right_len
    }

    /// Whether left-trace entry `index` is matched by some pair.
    pub fn is_matched_left(&self, index: usize) -> bool {
        self.matched_left.contains(index)
    }

    /// Whether right-trace entry `index` is matched by some pair.
    pub fn is_matched_right(&self, index: usize) -> bool {
        self.matched_right.contains(index)
    }

    /// Left-trace indices *not* matched by any pair — the left differences, ascending.
    pub fn unmatched_left(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.matched_left.push_absent(0..self.left_len, &mut out);
        out
    }

    /// Right-trace indices *not* matched by any pair — the right differences, ascending.
    pub fn unmatched_right(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.matched_right.push_absent(0..self.right_len, &mut out);
        out
    }

    /// Total number of differences across both sides.
    pub fn num_differences(&self) -> usize {
        (self.left_len - self.matched_left.count()) + (self.right_len - self.matched_right.count())
    }

    /// Groups the differences into contiguous *difference sequences*: maximal regions of
    /// unmatched entries delimited by matched anchor pairs, walked in left-trace order.
    /// Each sequence carries the unmatched indices from both sides that fall between the
    /// same pair of anchors — the unit the paper reports as "Diff. Seqs." and the unit on
    /// which the regression-cause analysis operates.
    pub fn difference_sequences(&self) -> Vec<DiffSequence> {
        // Crossing pairs would make interval boundaries ambiguous; keep a monotone subset
        // (pairs are normally monotone already for both algorithms).
        let mut last_r = None;
        let anchors = self.pairs.iter().copied().filter(move |&(_, r)| {
            let keep = last_r.is_none_or(|prev| r > prev);
            if keep {
                last_r = Some(r);
            }
            keep
        });

        let mut sequences = Vec::new();
        let mut prev_l = 0usize;
        let mut prev_r = 0usize;
        for (al, ar) in anchors.chain(iter::once((self.left_len, self.right_len))) {
            let (end_l, end_r) = (al.min(self.left_len), ar.min(self.right_len));
            // Most anchors directly follow the previous one: nothing lies between them.
            if prev_l < end_l || prev_r < end_r {
                let mut left = Vec::new();
                self.matched_left.push_absent(prev_l..end_l, &mut left);
                let mut right = Vec::new();
                self.matched_right.push_absent(prev_r..end_r, &mut right);
                if !left.is_empty() || !right.is_empty() {
                    sequences.push(DiffSequence { left, right });
                }
            }
            prev_l = al.saturating_add(1).min(self.left_len);
            prev_r = ar.saturating_add(1).min(self.right_len);
        }
        sequences
    }
}

/// `pairs` sorted by left index then right index and deduplicated, bucketed by left
/// index over `0..left_len` (see [`Matching::from_pairs`]).
fn sorted_dedup(left_len: usize, pairs: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    // `ends[l + 1]` first counts bucket `l`; the prefix sum makes `ends[l]` where
    // bucket `l` starts, and placing advances it to where the bucket ends.
    let mut ends = vec![0usize; left_len + 1];
    for &(l, _) in &pairs {
        if l < left_len {
            ends[l + 1] += 1;
        }
    }
    for l in 1..=left_len {
        ends[l] += ends[l - 1];
    }
    let mut sorted = vec![(0, 0); ends[left_len]];
    let mut past = Vec::new();
    for pair in pairs {
        if pair.0 < left_len {
            sorted[ends[pair.0]] = pair;
            ends[pair.0] += 1;
        } else {
            past.push(pair);
        }
    }
    let mut start = 0;
    for &end in &ends[..left_len] {
        if end - start > 1 {
            sorted[start..end].sort_unstable();
        }
        start = end;
    }
    past.sort_unstable();
    sorted.append(&mut past);
    sorted.dedup();
    sorted
}

/// A dense set of indices below a fixed length, one bit per index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct IndexBits {
    words: Vec<u64>,
}

impl IndexBits {
    /// The set of `indices` below `len`; indices at or past `len` are ignored.
    fn of(len: usize, indices: impl Iterator<Item = usize>) -> Self {
        let mut words = vec![0u64; len.div_ceil(64)];
        for i in indices.filter(|&i| i < len) {
            words[i / 64] |= 1u64 << (i % 64);
        }
        IndexBits { words }
    }

    fn contains(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|w| w & (1u64 << (index % 64)) != 0)
    }

    fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Appends the indices of `range` absent from the set, ascending. `range.end` must
    /// not exceed the length the set was built over.
    fn push_absent(&self, range: Range<usize>, out: &mut Vec<usize>) {
        let Range { start, end } = range;
        if start >= end {
            return;
        }
        for w in start / 64..end.div_ceil(64) {
            let base = w * 64;
            let mut absent = !self.words[w];
            if base < start {
                absent &= u64::MAX << (start - base);
            }
            if end - base < 64 {
                absent &= (1u64 << (end - base)) - 1;
            }
            while absent != 0 {
                out.push(base + absent.trailing_zeros() as usize);
                absent &= absent - 1;
            }
        }
    }
}

/// One contiguous difference sequence: the unmatched entries on each side between two
/// consecutive anchor (similar) pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiffSequence {
    /// Unmatched left-trace indices in this region, ascending.
    pub left: Vec<usize>,
    /// Unmatched right-trace indices in this region, ascending.
    pub right: Vec<usize>,
}

impl DiffSequence {
    /// Total number of differing entries in the sequence.
    pub fn len(&self) -> usize {
        self.left.len() + self.right.len()
    }

    /// Returns `true` when the sequence contains no differences (not produced in
    /// practice; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.left.is_empty() && self.right.is_empty()
    }

    /// The classification of the sequence: entries only on the left (deletion), only on
    /// the right (insertion), or both (modification).
    pub fn kind(&self) -> DiffKind {
        match (self.left.is_empty(), self.right.is_empty()) {
            (false, true) => DiffKind::Deletion,
            (true, false) => DiffKind::Insertion,
            _ => DiffKind::Modification,
        }
    }
}

/// The classification of a difference sequence, mirroring how LCS-based diffs present
/// contiguous runs of differences (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DiffKind {
    /// Entries present only in the left (old) trace.
    Deletion,
    /// Entries present only in the right (new) trace.
    Insertion,
    /// Entries present on both sides but different.
    Modification,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmatched_indices_are_complement_of_pairs() {
        let m = Matching::from_pairs(5, 4, vec![(0, 0), (2, 1), (4, 3)]);
        assert_eq!(m.unmatched_left(), vec![1, 3]);
        assert_eq!(m.unmatched_right(), vec![2]);
        assert_eq!(m.num_differences(), 3);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn duplicate_pairs_are_collapsed() {
        let m = Matching::from_pairs(3, 3, vec![(1, 1), (1, 1), (0, 0)]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.normalized_pairs(), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn difference_sequences_group_between_anchors() {
        // left:  A x x B y C      (indices 0..6: A=0, x=1, x=2, B=3, y=4, C=5)
        // right: A B z z C        (indices 0..5: A=0, B=1, z=2, z=3, C=4)
        let m = Matching::from_pairs(6, 5, vec![(0, 0), (3, 1), (5, 4)]);
        let seqs = m.difference_sequences();
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[0].left, vec![1, 2]);
        assert!(seqs[0].right.is_empty());
        assert_eq!(seqs[0].kind(), DiffKind::Deletion);
        assert_eq!(seqs[1].left, vec![4]);
        assert_eq!(seqs[1].right, vec![2, 3]);
        assert_eq!(seqs[1].kind(), DiffKind::Modification);
    }

    #[test]
    fn leading_and_trailing_differences_form_sequences() {
        let m = Matching::from_pairs(4, 4, vec![(1, 1), (2, 2)]);
        let seqs = m.difference_sequences();
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[0].left, vec![0]);
        assert_eq!(seqs[0].right, vec![0]);
        assert_eq!(seqs[1].left, vec![3]);
        assert_eq!(seqs[1].right, vec![3]);
    }

    #[test]
    fn identical_traces_have_no_sequences() {
        let m = Matching::from_pairs(3, 3, vec![(0, 0), (1, 1), (2, 2)]);
        assert!(m.difference_sequences().is_empty());
        assert_eq!(m.num_differences(), 0);
    }

    #[test]
    fn insertion_only_sequence() {
        let m = Matching::from_pairs(2, 4, vec![(0, 0), (1, 3)]);
        let seqs = m.difference_sequences();
        assert_eq!(seqs.len(), 1);
        assert_eq!(seqs[0].kind(), DiffKind::Insertion);
        assert_eq!(seqs[0].right, vec![1, 2]);
    }

    #[test]
    fn crossing_pairs_do_not_break_sequencing() {
        // A non-monotone pair (3,0) is ignored for interval construction but still counts
        // as matched for difference computation.
        let m = Matching::from_pairs(4, 4, vec![(1, 2), (3, 0)]);
        let seqs = m.difference_sequences();
        assert!(!seqs.is_empty());
        let total: usize = seqs.iter().map(DiffSequence::len).sum();
        assert_eq!(total, m.num_differences());
    }

    #[test]
    fn extend_merges_matchings() {
        // Per-thread scans are merged by concatenating their pair lists.
        let a = Matching::from_pairs(4, 4, vec![(0, 0)]);
        let b = Matching::from_pairs(4, 4, vec![(1, 1), (0, 0)]);
        let a = Matching::from_pairs(4, 4, [a.normalized_pairs(), b.normalized_pairs()].concat());
        assert_eq!(a.len(), 2);
    }
}
