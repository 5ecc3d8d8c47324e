//! Longest-common-subsequence algorithms.
//!
//! These are the baselines the paper compares against (§3.2): differencing tools in the
//! `diff` family are founded on LCS, but the standard dynamic-programming algorithm is
//! Θ(n·m) in time *and* — when the subsequence itself (not just its length) must be
//! reconstructed — in space, which is what makes it intractable on long execution traces.
//!
//! Four variants are provided, all generic over the element type and all metering their
//! compare operations and working-set bytes through [`CostMeter`]:
//!
//! * [`lcs_dp`] — the textbook full-table algorithm with traceback (quadratic space;
//!   subject to the [`MemoryBudget`]), run after stripping the common prefix and suffix:
//!   the "optimized version of the LCS algorithm (common-prefix/suffix optimizations)"
//!   used as the baseline in §5.1, and the kernel of the §3.2 LCS differencer,
//! * [`lcs_bitparallel`] — a bit-parallel (Myers/Hyyrö-style, u64-word) formulation that
//!   packs one DP row into `⌈n/64⌉` machine words and advances a whole row per left
//!   element with a handful of word operations, falling back to [`lcs_dp`] when the
//!   alphabet exceeds the word-packing scheme. Produces *byte-identical* matchings to
//!   [`lcs_dp`] (same traceback tie-breaks); the views differencer's secondary windows
//!   and the anchored differencer's leaf segments run it,
//! * [`lcs_hirschberg`] — Hirschberg's linear-space divide-and-conquer algorithm
//!   (cited as \[9\] in the paper: same result, roughly twice the computation).

use crate::cost::{CostMeter, DiffError, MemoryBudget};

/// Computes the length of the LCS using two rolling rows (linear space). Useful on its own
/// and as the building block of [`lcs_hirschberg`].
pub fn lcs_length<T: PartialEq>(left: &[T], right: &[T], meter: &mut CostMeter) -> usize {
    *lcs_length_row(left, right, meter).last().unwrap_or(&0)
}

/// The final DP row of LCS lengths: `row[j]` = LCS length of `left` and `right[..j]`.
fn lcs_length_row<T: PartialEq>(left: &[T], right: &[T], meter: &mut CostMeter) -> Vec<usize> {
    let cols = right.len() + 1;
    let mut prev = vec![0usize; cols];
    let mut curr = vec![0usize; cols];
    meter.allocate((cols * 2 * std::mem::size_of::<usize>()) as u64);
    for l in left {
        for (j, r) in right.iter().enumerate() {
            meter.count_compares(1);
            curr[j + 1] = if l == r {
                prev[j] + 1
            } else {
                prev[j + 1].max(curr[j])
            };
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    meter.release((cols * 2 * std::mem::size_of::<usize>()) as u64);
    prev
}

/// Full dynamic-programming LCS with traceback.
///
/// Identical leading and trailing entries are matched directly *before* the table is
/// sized: the quadratic table only ever covers the differing middle, so both the memory
/// budget check and the compare count shrink with the common prefix/suffix. This matters
/// for the windowed secondary-view LCS calls of the views differencer, whose windows are
/// frequently near-identical.
///
/// Returns the matched index pairs `(left, right)` in ascending order.
///
/// # Errors
///
/// Returns [`DiffError::OutOfMemory`] when the middle-section table exceeds the memory
/// budget — the same failure mode the paper reports for traces beyond ~100K entries.
pub fn lcs_dp<T: PartialEq>(
    left: &[T],
    right: &[T],
    meter: &mut CostMeter,
    budget: MemoryBudget,
) -> Result<Vec<(usize, usize)>, DiffError> {
    let (prefix, suffix) = strip_common(left, right, meter);
    let mut pairs: Vec<(usize, usize)> = (0..prefix).map(|i| (i, i)).collect();
    let mid = lcs_dp_table(
        &left[prefix..left.len() - suffix],
        &right[prefix..right.len() - suffix],
        meter,
        budget,
    )?;
    pairs.extend(mid.into_iter().map(|(i, j)| (i + prefix, j + prefix)));
    pairs.extend(
        (0..suffix)
            .rev()
            .map(|k| (left.len() - 1 - k, right.len() - 1 - k)),
    );
    Ok(pairs)
}

/// Lengths of the common prefix and the (non-overlapping) common suffix, metered one
/// compare per examined element pair — shared by every stripped entry point so their
/// compare accounting is identical.
///
/// The loop conditions guarantee `prefix + suffix <= min(left.len(), right.len())`, so
/// the `len - suffix` slice arithmetic at every call site is subtraction-safe even for
/// empty, one-sided-empty, and all-equal inputs (the degenerate shapes the regression
/// tests below pin).
fn strip_common<T: PartialEq>(left: &[T], right: &[T], meter: &mut CostMeter) -> (usize, usize) {
    let mut prefix = 0usize;
    while prefix < left.len() && prefix < right.len() {
        meter.count_compares(1);
        if left[prefix] == right[prefix] {
            prefix += 1;
        } else {
            break;
        }
    }
    let mut suffix = 0usize;
    while suffix < left.len() - prefix && suffix < right.len() - prefix {
        meter.count_compares(1);
        if left[left.len() - 1 - suffix] == right[right.len() - 1 - suffix] {
            suffix += 1;
        } else {
            break;
        }
    }
    (prefix, suffix)
}

/// The unstripped table core of [`lcs_dp`] (crate-visible so the property tests can
/// compare the stripped entry point against it).
pub(crate) fn lcs_dp_table<T: PartialEq>(
    left: &[T],
    right: &[T],
    meter: &mut CostMeter,
    budget: MemoryBudget,
) -> Result<Vec<(usize, usize)>, DiffError> {
    if left.is_empty() || right.is_empty() {
        return Ok(Vec::new());
    }
    let rows = left.len() + 1;
    let cols = right.len() + 1;
    // Invariant: cells store u32 LCS lengths, so sides beyond u32::MAX entries would
    // silently truncate. Unreachable in practice — such a table is ~2^64 cells and the
    // budget check below rejects it long before — but pinned here for the audit trail.
    debug_assert!(
        left.len() <= u32::MAX as usize && right.len() <= u32::MAX as usize,
        "LCS table cells are u32; inputs beyond u32::MAX entries are unsupported"
    );
    // Each cell stores a u32 LCS length.
    let table_bytes = (rows as u64) * (cols as u64) * std::mem::size_of::<u32>() as u64;
    budget.check(table_bytes)?;
    meter.allocate(table_bytes);

    let mut table = vec![0u32; rows * cols];
    let idx = |i: usize, j: usize| i * cols + j;
    for i in 1..rows {
        for j in 1..cols {
            meter.count_compares(1);
            table[idx(i, j)] = if left[i - 1] == right[j - 1] {
                table[idx(i - 1, j - 1)] + 1
            } else {
                table[idx(i - 1, j)].max(table[idx(i, j - 1)])
            };
        }
    }

    // Traceback from the bottom-right corner.
    let mut pairs = Vec::with_capacity(table[idx(rows - 1, cols - 1)] as usize);
    let (mut i, mut j) = (rows - 1, cols - 1);
    while i > 0 && j > 0 {
        meter.count_compares(1);
        if left[i - 1] == right[j - 1] {
            pairs.push((i - 1, j - 1));
            i -= 1;
            j -= 1;
        } else if table[idx(i - 1, j)] >= table[idx(i, j - 1)] {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    pairs.reverse();
    meter.release(table_bytes);
    Ok(pairs)
}

/// Maximum number of distinct equality classes the bit-parallel word-packing scheme
/// handles; sub-problems with larger alphabets fall back to the DP kernel.
pub const MAX_BITPARALLEL_CLASSES: usize = 64;

/// Bit-parallel LCS (Myers/Hyyrö-style) with the same prefix/suffix stripping, matching,
/// and compare accounting as [`lcs_dp`].
///
/// One DP row is packed into `⌈n/64⌉` words; per left element the whole row advances with
/// the carry recurrence `V' = (V + (V & M)) | (V & !M)`, where bit `j` of `V_i` records
/// whether `table[i][j+1] == table[i][j]` and `M` is the match mask of the element's
/// equality class over `right`. Every row's bit-vector is retained (32× smaller than the
/// u32 table), so the traceback can reconstruct any `table[i][j]` as the count of zero
/// bits in `V_i`'s first `j` positions and replay [`lcs_dp`]'s exact tie-break rule — the
/// returned pair list is byte-identical to the DP's, which is what lets the exact diff
/// modes adopt this kernel without perturbing the seed-equivalence oracle.
///
/// Match masks are built from true equality classes (full `PartialEq`, not hashes), so
/// interned-key hash collisions cannot corrupt the matching. Sub-problems whose `right`
/// side has more than [`MAX_BITPARALLEL_CLASSES`] distinct classes fall back to
/// the plain DP table automatically. Compare operations are metered at the DP-equivalent
/// count (`m·n` for the fill plus one per traceback step) so cost accounting — and every
/// invariant the equivalence suites pin on it — is unchanged; the win is wall-clock only.
///
/// This entry point allocates a fresh `LcsScratch` per call; the views scan, which solves many
/// small sub-problems, keeps one scratch and calls the crate-private `lcs_bitparallel_into`.
///
/// # Errors
///
/// Returns [`DiffError::OutOfMemory`] when the retained row bit-vectors (or the DP table,
/// on fallback) exceed the memory budget.
pub fn lcs_bitparallel<T: PartialEq>(
    left: &[T],
    right: &[T],
    meter: &mut CostMeter,
    budget: MemoryBudget,
) -> Result<Vec<(usize, usize)>, DiffError> {
    let mut pairs = Vec::new();
    let mut scratch = LcsScratch::default();
    lcs_bitparallel_into(left, right, meter, budget, &mut scratch, |i, j| {
        pairs.push((i, j))
    })?;
    Ok(pairs)
}

/// The working buffers of the bit-parallel kernel: the equality-class representatives,
/// their match masks, the retained row bit-vectors and the traceback pairs. Every call
/// clears what it reads, so one scratch serves any sequence of calls; once its buffers
/// have grown to the largest sub-problem seen, a call allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct LcsScratch {
    reps: Vec<usize>,
    masks: Vec<u64>,
    rows: Vec<u64>,
    pairs: Vec<(usize, usize)>,
}

/// [`lcs_bitparallel`] over a caller-kept scratch: the matched pairs are handed to `emit`
/// in ascending order instead of being collected. The middle section is solved before
/// anything is emitted, so a budget refusal leaves `emit` uncalled.
///
/// # Errors
///
/// As [`lcs_bitparallel`].
pub(crate) fn lcs_bitparallel_into<T: PartialEq>(
    left: &[T],
    right: &[T],
    meter: &mut CostMeter,
    budget: MemoryBudget,
    scratch: &mut LcsScratch,
    mut emit: impl FnMut(usize, usize),
) -> Result<(), DiffError> {
    let (prefix, suffix) = strip_common(left, right, meter);
    let mid_left = &left[prefix..left.len() - suffix];
    let mid_right = &right[prefix..right.len() - suffix];
    let fallback;
    let mid = if lcs_bitparallel_table(mid_left, mid_right, meter, budget, scratch)? {
        &scratch.pairs
    } else {
        fallback = lcs_dp_table(mid_left, mid_right, meter, budget)?;
        &fallback
    };
    for i in 0..prefix {
        emit(i, i);
    }
    for &(i, j) in mid {
        emit(i + prefix, j + prefix);
    }
    for k in (0..suffix).rev() {
        emit(left.len() - 1 - k, right.len() - 1 - k);
    }
    Ok(())
}

/// The word-packed core of [`lcs_bitparallel`]: leaves the matched pairs of `left` and
/// `right`, ascending, in `scratch.pairs` and returns `Ok(true)`. Returns `Ok(false)` when
/// the alphabet of `right` exceeds [`MAX_BITPARALLEL_CLASSES`] equality classes (the
/// caller falls back to the DP core); crate-visible so the property tests can hit the
/// packed path directly.
pub(crate) fn lcs_bitparallel_table<T: PartialEq>(
    left: &[T],
    right: &[T],
    meter: &mut CostMeter,
    budget: MemoryBudget,
    scratch: &mut LcsScratch,
) -> Result<bool, DiffError> {
    let LcsScratch {
        reps,
        masks,
        rows,
        pairs,
    } = scratch;
    pairs.clear();
    if left.is_empty() || right.is_empty() {
        return Ok(true);
    }
    let (m, n) = (left.len(), right.len());
    let words = n.div_ceil(64);

    // Partition `right` into equality classes by full element equality (linear scan over
    // representatives: the class count is capped at 64, so this is O(n·64) worst case).
    // Class discovery is deliberately not metered: on fallback the DP core meters from
    // zero, keeping the total identical to a pure-DP run.
    reps.clear();
    masks.clear(); // reps.len() stripes of `words` words each
    for (j, r) in right.iter().enumerate() {
        let class = match reps.iter().position(|&rep| right[rep] == *r) {
            Some(c) => c,
            None => {
                if reps.len() == MAX_BITPARALLEL_CLASSES {
                    return Ok(false);
                }
                reps.push(j);
                masks.resize(masks.len() + words, 0);
                reps.len() - 1
            }
        };
        masks[class * words + j / 64] |= 1u64 << (j % 64);
    }

    // Row i's bit-vector: bit j set ⇔ table[i][j+1] == table[i][j], so
    // table[i][j] = number of zero bits among V_i's first j positions. Row 0 is all-ones
    // (the zero row). Slack bits above n in the top word stay all-ones by construction
    // (the `v & !mask` term), so carries out of the valid region are absorbed harmlessly.
    let row_bytes = (m as u64 + 1) * words as u64 * 8;
    let mask_bytes = masks.len() as u64 * 8;
    budget.check(row_bytes + mask_bytes)?;
    meter.allocate(row_bytes + mask_bytes);
    rows.clear();
    rows.resize((m + 1) * words, u64::MAX);
    for i in 1..=m {
        let class = reps.iter().position(|&rep| right[rep] == left[i - 1]);
        let (prev_rows, cur_rows) = rows.split_at_mut(i * words);
        let prev = &prev_rows[(i - 1) * words..];
        let cur = &mut cur_rows[..words];
        match class {
            // No occurrence in `right`: M = 0 and the recurrence degenerates to V' = V.
            None => cur.copy_from_slice(prev),
            Some(c) => {
                let mask = &masks[c * words..(c + 1) * words];
                let mut carry = 0u64;
                for w in 0..words {
                    let v = prev[w];
                    let u = v & mask[w];
                    let (sum, c1) = v.overflowing_add(u);
                    let (sum, c2) = sum.overflowing_add(carry);
                    carry = u64::from(c1 | c2);
                    cur[w] = sum | (v & !mask[w]);
                }
            }
        }
    }
    // DP-equivalent fill accounting (see the entry point's docs).
    meter.count_compares(m as u64 * n as u64);

    // table[i][j], reconstructed as the zero-bit count of V_i's first j positions.
    let cell = |i: usize, j: usize| -> u32 {
        let row = &rows[i * words..(i + 1) * words];
        let mut zeros = 0u32;
        for word in row.iter().take(j / 64) {
            zeros += word.count_zeros();
        }
        let rem = j % 64;
        if rem > 0 {
            zeros += (!row[j / 64] & ((1u64 << rem) - 1)).count_ones();
        }
        zeros
    };

    // Traceback replaying lcs_dp_table's exact rule: diagonal on equality, else prefer
    // moving up on ties — identical decisions, identical pair list.
    let (mut i, mut j) = (m, n);
    while i > 0 && j > 0 {
        meter.count_compares(1);
        if left[i - 1] == right[j - 1] {
            pairs.push((i - 1, j - 1));
            i -= 1;
            j -= 1;
        } else if cell(i - 1, j) >= cell(i, j - 1) {
            i -= 1;
        } else {
            j -= 1;
        }
    }
    pairs.reverse();
    meter.release(row_bytes + mask_bytes);
    Ok(true)
}

/// Hirschberg's linear-space LCS.
///
/// Produces the same kind of matched pair list as [`lcs_dp`] while never materializing the
/// quadratic table, at the price of roughly doubling the number of compare operations.
pub fn lcs_hirschberg<T: PartialEq + Clone>(
    left: &[T],
    right: &[T],
    meter: &mut CostMeter,
) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    hirschberg_rec(left, right, 0, 0, meter, &mut pairs);
    pairs.sort_unstable();
    pairs
}

fn hirschberg_rec<T: PartialEq + Clone>(
    left: &[T],
    right: &[T],
    left_off: usize,
    right_off: usize,
    meter: &mut CostMeter,
    pairs: &mut Vec<(usize, usize)>,
) {
    if left.is_empty() || right.is_empty() {
        return;
    }
    if left.len() == 1 {
        for (j, r) in right.iter().enumerate() {
            meter.count_compares(1);
            if left[0] == *r {
                pairs.push((left_off, right_off + j));
                return;
            }
        }
        return;
    }

    let mid = left.len() / 2;
    let score_l = lcs_length_row(&left[..mid], right, meter);
    let rev_left: Vec<T> = left[mid..].iter().rev().cloned().collect();
    let rev_right: Vec<T> = right.iter().rev().cloned().collect();
    let score_r = lcs_length_row(&rev_left, &rev_right, meter);

    // Find the split point of `right` maximizing the combined score.
    let mut best_j = 0usize;
    let mut best = 0usize;
    for j in 0..=right.len() {
        let total = score_l[j] + score_r[right.len() - j];
        if total > best {
            best = total;
            best_j = j;
        }
    }

    hirschberg_rec(
        &left[..mid],
        &right[..best_j],
        left_off,
        right_off,
        meter,
        pairs,
    );
    hirschberg_rec(
        &left[mid..],
        &right[best_j..],
        left_off + mid,
        right_off + best_j,
        meter,
        pairs,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chars(s: &str) -> Vec<char> {
        s.chars().collect()
    }

    fn pairs_to_string(pairs: &[(usize, usize)], left: &[char]) -> String {
        pairs.iter().map(|(i, _)| left[*i]).collect()
    }

    #[test]
    fn dp_finds_classic_lcs() {
        let left = chars("ABCBDAB");
        let right = chars("BDCABA");
        let mut meter = CostMeter::new();
        let pairs = lcs_dp(&left, &right, &mut meter, MemoryBudget::unlimited()).unwrap();
        assert_eq!(pairs.len(), 4);
        let s = pairs_to_string(&pairs, &left);
        assert!(["BDAB", "BCAB", "BCBA"].contains(&s.as_str()), "got {s}");
        assert!(meter.stats().compare_ops >= (left.len() * right.len()) as u64);
    }

    #[test]
    fn dp_pairs_are_strictly_increasing_on_both_sides() {
        let left = chars("XMJYAUZ");
        let right = chars("MZJAWXU");
        let mut meter = CostMeter::new();
        let pairs = lcs_dp(&left, &right, &mut meter, MemoryBudget::unlimited()).unwrap();
        for w in pairs.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        for (i, j) in &pairs {
            assert_eq!(left[*i], right[*j]);
        }
    }

    #[test]
    fn identical_sequences_match_completely() {
        let xs = chars("HELLO");
        let mut meter = CostMeter::new();
        let pairs = lcs_dp(&xs, &xs, &mut meter, MemoryBudget::unlimited()).unwrap();
        assert_eq!(pairs, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
        // Prefix optimization should avoid the quadratic cost entirely.
        assert!(meter.stats().compare_ops <= 2 * xs.len() as u64);
    }

    #[test]
    fn empty_inputs_are_handled() {
        let empty: Vec<char> = vec![];
        let mut meter = CostMeter::new();
        assert!(
            lcs_dp(&empty, &empty, &mut meter, MemoryBudget::unlimited())
                .unwrap()
                .is_empty()
        );
        assert!(lcs_hirschberg(&empty, &chars("AB"), &mut meter).is_empty());
        assert_eq!(lcs_length(&chars("AB"), &empty, &mut meter), 0);
    }

    #[test]
    fn optimized_matches_dp_result_length() {
        // `lcs_dp` (prefix/suffix-stripped) against its unstripped table core.
        let left = chars("THEQUICKBROWNFOX");
        let right = chars("THELAZYBROWNDOG");
        let mut m1 = CostMeter::new();
        let mut m2 = CostMeter::new();
        let dp = lcs_dp_table(&left, &right, &mut m1, MemoryBudget::unlimited()).unwrap();
        let opt = lcs_dp(&left, &right, &mut m2, MemoryBudget::unlimited()).unwrap();
        assert_eq!(dp.len(), opt.len());
        for (i, j) in &opt {
            assert_eq!(left[*i], right[*j]);
        }
        // The shared prefix "THE" lets the optimized variant do less work.
        assert!(m2.stats().compare_ops <= m1.stats().compare_ops);
    }

    #[test]
    fn hirschberg_matches_dp_length() {
        let left = chars("ABCBDABXYZPQRS");
        let right = chars("BDCABAXYZQRST");
        let mut m1 = CostMeter::new();
        let mut m2 = CostMeter::new();
        let dp = lcs_dp(&left, &right, &mut m1, MemoryBudget::unlimited()).unwrap();
        let h = lcs_hirschberg(&left, &right, &mut m2);
        assert_eq!(dp.len(), h.len());
        for (i, j) in &h {
            assert_eq!(left[*i], right[*j]);
        }
        for w in h.windows(2) {
            assert!(w[0].0 < w[1].0 && w[0].1 < w[1].1);
        }
    }

    #[test]
    fn hirschberg_never_allocates_quadratic_memory() {
        let left: Vec<u32> = (0..500).map(|i| i % 17).collect();
        let right: Vec<u32> = (0..480).map(|i| (i * 3) % 17).collect();
        let mut meter = CostMeter::new();
        let _ = lcs_hirschberg(&left, &right, &mut meter);
        // Peak is a handful of rows, nowhere near 500*480*4 bytes.
        assert!(meter.stats().peak_bytes < 200_000);
    }

    #[test]
    fn dp_respects_memory_budget() {
        // No common prefix or suffix, so the full quadratic table is required.
        let left: Vec<u32> = (0..2000).collect();
        let right: Vec<u32> = (0..2000).rev().collect();
        let mut meter = CostMeter::new();
        let result = lcs_dp(&left, &right, &mut meter, MemoryBudget::bytes(1024));
        assert!(matches!(result, Err(DiffError::OutOfMemory { .. })));
    }

    #[test]
    fn dp_strips_prefix_and_suffix_before_sizing_the_table() {
        // Identical sequences never touch the table, so even a tiny budget succeeds.
        let xs: Vec<u32> = (0..5000).collect();
        let mut meter = CostMeter::new();
        let pairs = lcs_dp(&xs, &xs, &mut meter, MemoryBudget::bytes(64)).unwrap();
        assert_eq!(pairs.len(), xs.len());
        assert!(meter.stats().peak_bytes < 64);

        // A single mid-sequence difference shrinks the table to the differing middle.
        let mut ys = xs.clone();
        ys[2500] = 999_999;
        let mut meter2 = CostMeter::new();
        let pairs2 = lcs_dp(&xs, &ys, &mut meter2, MemoryBudget::bytes(4096)).unwrap();
        assert_eq!(pairs2.len(), xs.len() - 1);
        assert!(meter2.stats().peak_bytes <= 4096);
    }

    #[test]
    fn bitparallel_matches_dp_pairs_exactly() {
        let cases = [
            ("ABCBDAB", "BDCABA"),
            ("XMJYAUZ", "MZJAWXU"),
            ("THEQUICKBROWNFOX", "THELAZYBROWNDOG"),
            ("AAAA", "AA"),
            ("ABAB", "BABA"),
            ("", "ABC"),
            ("ABC", ""),
            ("SAME", "SAME"),
        ];
        for (l, r) in cases {
            let (left, right) = (chars(l), chars(r));
            let mut m_dp = CostMeter::new();
            let mut m_bp = CostMeter::new();
            let dp = lcs_dp(&left, &right, &mut m_dp, MemoryBudget::unlimited()).unwrap();
            let bp = lcs_bitparallel(&left, &right, &mut m_bp, MemoryBudget::unlimited()).unwrap();
            assert_eq!(dp, bp, "pair lists diverged on ({l:?}, {r:?})");
            assert_eq!(
                m_dp.stats().compare_ops,
                m_bp.stats().compare_ops,
                "compare accounting diverged on ({l:?}, {r:?})"
            );
        }
    }

    #[test]
    fn bitparallel_handles_multi_word_rows() {
        // 150 columns spans three u64 words, exercising carry propagation across words.
        let left: Vec<u32> = (0..140).map(|i| i % 7).collect();
        let right: Vec<u32> = (0..150).map(|i| (i * 5 + 2) % 7).collect();
        let mut m_dp = CostMeter::new();
        let mut m_bp = CostMeter::new();
        let dp = lcs_dp(&left, &right, &mut m_dp, MemoryBudget::unlimited()).unwrap();
        let bp = lcs_bitparallel(&left, &right, &mut m_bp, MemoryBudget::unlimited()).unwrap();
        assert_eq!(dp, bp);
        assert_eq!(m_dp.stats().compare_ops, m_bp.stats().compare_ops);
    }

    #[test]
    fn bitparallel_falls_back_beyond_64_classes() {
        // 80 distinct symbols on the right: the packed core refuses and the entry point
        // silently routes through the DP, still producing identical pairs.
        let left: Vec<u32> = (0..80).rev().collect();
        let right: Vec<u32> = (0..80).collect();
        let mut meter = CostMeter::new();
        let mut scratch = LcsScratch::default();
        let packed = lcs_bitparallel_table(
            &left,
            &right,
            &mut meter,
            MemoryBudget::unlimited(),
            &mut scratch,
        )
        .unwrap();
        assert!(!packed, "packed core must refuse >64 classes");
        let mut m_dp = CostMeter::new();
        let mut m_bp = CostMeter::new();
        let dp = lcs_dp(&left, &right, &mut m_dp, MemoryBudget::unlimited()).unwrap();
        let bp = lcs_bitparallel(&left, &right, &mut m_bp, MemoryBudget::unlimited()).unwrap();
        assert_eq!(dp, bp);
        assert_eq!(m_dp.stats().compare_ops, m_bp.stats().compare_ops);
    }

    #[test]
    fn bitparallel_respects_memory_budget() {
        let left: Vec<u32> = (0..2000).map(|i| i % 50).collect();
        let right: Vec<u32> = (0..2000).map(|i| (i * 7 + 1) % 50).collect();
        let mut meter = CostMeter::new();
        let result = lcs_bitparallel(&left, &right, &mut meter, MemoryBudget::bytes(1024));
        assert!(matches!(result, Err(DiffError::OutOfMemory { .. })));
    }

    // Degenerate-shape regressions for the stripped length arithmetic: each pins the
    // exact matching (not just its length) so any future change to the prefix/suffix
    // bookkeeping that shifts an index trips immediately. Both exact kernels strip.

    type Kernel =
        fn(&[u32], &[u32], &mut CostMeter, MemoryBudget) -> Result<Vec<(usize, usize)>, DiffError>;

    const KERNELS: [(&str, Kernel); 2] = [("dp", lcs_dp), ("bitparallel", lcs_bitparallel)];

    #[test]
    fn degenerate_all_equal_strips_to_empty_table() {
        // All-equal traces: everything is prefix, the middle is empty-after-strip.
        for (kernel, lcs) in KERNELS {
            let xs: Vec<u32> = vec![7; 100];
            let mut meter = CostMeter::new();
            let pairs = lcs(&xs, &xs, &mut meter, MemoryBudget::bytes(64)).unwrap();
            let expected: Vec<(usize, usize)> = (0..100).map(|i| (i, i)).collect();
            assert_eq!(pairs, expected, "{kernel}");
        }
    }

    #[test]
    fn degenerate_one_sided_empty_matches_nothing() {
        for (kernel, lcs) in KERNELS {
            let xs: Vec<u32> = (0..10).collect();
            let empty: Vec<u32> = Vec::new();
            let mut meter = CostMeter::new();
            assert!(
                lcs(&xs, &empty, &mut meter, MemoryBudget::unlimited())
                    .unwrap()
                    .is_empty(),
                "{kernel}: left-nonempty/right-empty"
            );
            assert!(
                lcs(&empty, &xs, &mut meter, MemoryBudget::unlimited())
                    .unwrap()
                    .is_empty(),
                "{kernel}: left-empty/right-nonempty"
            );
        }
    }

    #[test]
    fn degenerate_prefix_swallows_shorter_side() {
        // One side is a strict prefix of the other: after stripping, one side is empty
        // while the other still has entries — `len - suffix` must stay subtraction-safe
        // and the matching must cover exactly the shorter side.
        for (kernel, lcs) in KERNELS {
            let long: Vec<u32> = (0..50).collect();
            let short: Vec<u32> = (0..30).collect();
            let mut meter = CostMeter::new();
            let pairs = lcs(&long, &short, &mut meter, MemoryBudget::bytes(64)).unwrap();
            let expected: Vec<(usize, usize)> = (0..30).map(|i| (i, i)).collect();
            assert_eq!(pairs, expected, "{kernel}");
        }
    }

    #[test]
    fn degenerate_shared_prefix_and_suffix_overlap_safely() {
        // left = right with one element removed: prefix+suffix stripping covers the
        // whole shorter side; the suffix loop must not re-claim prefix elements.
        for (kernel, lcs) in KERNELS {
            let long: Vec<u32> = (0..21).collect();
            let short: Vec<u32> = (0..21).filter(|&x| x != 10).collect();
            let mut meter = CostMeter::new();
            let pairs = lcs(&long, &short, &mut meter, MemoryBudget::unlimited()).unwrap();
            assert_eq!(pairs.len(), 20, "{kernel}");
            for (i, j) in &pairs {
                assert_eq!(long[*i], short[*j], "{kernel}");
            }
        }
    }

    #[test]
    fn length_agrees_with_dp() {
        let left = chars("AGGTAB");
        let right = chars("GXTXAYB");
        let mut meter = CostMeter::new();
        let len = lcs_length(&left, &right, &mut meter);
        let pairs = lcs_dp(&left, &right, &mut meter, MemoryBudget::unlimited()).unwrap();
        assert_eq!(len, 4);
        assert_eq!(pairs.len(), 4);
    }
}
