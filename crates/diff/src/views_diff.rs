//! Views-based trace differencing (the paper's §3.3, Fig. 12).
//!
//! Instead of running LCS over the raw traces, the differencer walks each pair of
//! *correlated thread views* in lock-step:
//!
//! * **STEP-VIEW-MATCH** — when the heads are `=e`-equal they are added to the similarity
//!   set Π and both heads advance.
//! * **STEP-VIEW-NOMATCH** — when the heads differ, the *secondary views* linked to
//!   entries near the two heads are explored: for every pair of nearby entries whose
//!   thread/method/target-object/active-object views correlate (`X_τ`, Fig. 9), an LCS
//!   over fixed-size windows of the two correlated views contributes additional similar
//!   pairs (`LinkedSimilarEntries` / SIMILAR-FROM-LINKED-VIEWS). The scan then skips to the
//!   next point of correspondence in the thread views.
//!
//! Because every per-mismatch exploration is bounded by constants (the `delta`
//! neighbourhood, the `window` size and the `max_scan_ahead` bound), the whole algorithm
//! is linear in the trace length in both time and space — the property that lets it scale
//! to the multi-million-entry traces where the quadratic baseline exhausts memory.
//!
//! ## The keyed hot path
//!
//! Every `=e` comparison of the scan is one integer compare. Each side's [`KeyedTrace`]
//! interns its keys when it is built: one `u32` key id per entry and a table of distinct
//! keys. A diff first translates the right side's distinct keys into the left side's
//! ids, once ([`KeyedTrace::translate_into`], O(distinct keys); a key the left side
//! lacks gets an id of its own past the left side's table), and a
//! [`DiffSession`](crate::DiffSession) extends that translation as pushes add keys.
//! Then the head compare (`Differ::entries_eq`) and the windowed secondary LCS both
//! compare the left entry's id with the right entry's translated id: the windows are
//! `u32` slices in the left side's id space, so the bit-parallel kernel's class
//! discovery and traceback compare integers too. No
//! `EventKey` is built and no string traversed, and there is **zero heap allocation per
//! comparison**. The mismatch step allocates nothing either once a thread-pair scan has
//! warmed up: each scan keeps one `Scratch` whose buffers — the windows' key ids, the
//! bit-parallel kernel's class masks, row bit-vectors and traceback pairs, and the
//! first-seen list of explored view pairs — are cleared and reused by every
//! exploration, and the windowed LCS emits its pairs straight into the scan's match
//! list. A watched pair's scan keeps its scratch across pushes. Both properties are
//! enforced by counting-allocator tests
//! (`tests/no_alloc_hot_path.rs`). The kernel's DP fallback, taken by windows of more
//! than 64 key classes, still allocates its table per call. Thread-view pairs are
//! independent, so they fan out over [`rprism_trace::par`]; each pair keeps its own
//! [`CostMeter`], and the meters are merged in pair order at the end.

use std::time::{Duration, Instant};

use rprism_trace::{EntryBatch, KeyedTrace, LeanEntry, LeanTrace, TraceMeta};
use rprism_views::correlate::relaxed::same_distance_from_anchor;
use rprism_views::{Correlation, ViewId, ViewKind, ViewWeb};

use crate::cost::{CostMeter, MemoryBudget};
use crate::lcs::{lcs_bitparallel_into, LcsScratch};
use crate::result::TraceDiffResult;

/// Configuration of the views-based differencer.
///
/// Plain data: set the fields that differ from the defaults and take the rest from
/// [`ViewsDiffOptions::default`].
///
/// ```
/// use rprism_diff::ViewsDiffOptions;
/// let options = ViewsDiffOptions { delta: 0, window: 0, ..Default::default() };
/// assert!(options.relaxed_correlation);
/// ```
#[derive(Clone, Debug)]
pub struct ViewsDiffOptions {
    /// Δ — how many positions around the current mismatch (in thread-view coordinates) are
    /// examined when looking for correlated secondary views (the exploration radius of
    /// the paper's `LinkedSimilarEntries`, §3.3).
    pub delta: usize,
    /// δ — the half-width of the fixed-size windows over which secondary views are
    /// compared with LCS (the windowed-LCS bound that keeps each mismatch exploration
    /// O(1), §3.3).
    pub window: usize,
    /// Bound on the forward scan that locates the next point of correspondence in the
    /// thread views after a mismatch.
    pub max_scan_ahead: usize,
    /// Enable the context-sensitive correlation relaxation of §5 (tolerates method/class
    /// renames by correlating views at equal distances from the mismatch anchor).
    pub relaxed_correlation: bool,
}

impl Default for ViewsDiffOptions {
    fn default() -> Self {
        ViewsDiffOptions {
            delta: 2,
            window: 8,
            max_scan_ahead: 96,
            relaxed_correlation: true,
        }
    }
}

/// One side of a prepared differencing run: the precomputed artifacts (keys and web)
/// plus the trace's [`LeanTrace`] per-entry context — the thread ids and object
/// correlation identities the mismatch exploration reads.
#[derive(Clone, Copy, Debug)]
pub struct DiffSide<'a> {
    pub(crate) keyed: &'a KeyedTrace,
    pub(crate) web: &'a ViewWeb,
    entries: &'a [LeanEntry],
}

impl<'a> DiffSide<'a> {
    /// Bundles one trace's lean context, keys and view web into a side.
    pub fn lean(lean: &'a LeanTrace, keyed: &'a KeyedTrace, web: &'a ViewWeb) -> Self {
        DiffSide {
            keyed,
            web,
            entries: lean.entries(),
        }
    }

    /// Number of entries on this side.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when this side has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The side's view web (exposed so callers can build/flip correlations).
    pub fn web(&self) -> &'a ViewWeb {
        self.web
    }

    /// The side's precomputed keys.
    pub fn keyed(&self) -> &'a KeyedTrace {
        self.keyed
    }

    /// The side's lean per-entry context, in entry order.
    pub fn entries(&self) -> &'a [LeanEntry] {
        self.entries
    }
}

/// The owned artifacts of one side — lean context, keys and view web — built by one
/// fold over [`EntryRef`](rprism_trace::EntryRef)s in entry order. Streamed loads,
/// in-memory handles and the watched side of a [`DiffSession`](crate::DiffSession)
/// all build through [`SideArtifacts::push_batch`], so the three are identical for the
/// same entries.
#[derive(Debug)]
pub struct SideArtifacts {
    lean: LeanTrace,
    keyed: KeyedTrace,
    web: ViewWeb,
}

/// Wall time one [`SideArtifacts::push_batch`] spent on each artifact: timing is per
/// batch, so always collecting it costs four clock reads per batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct PushTimes {
    /// Keys and lean context.
    pub key: Duration,
    /// View web.
    pub web: Duration,
}

impl SideArtifacts {
    /// Empty artifacts of the trace identified by `meta`.
    pub fn new(meta: TraceMeta) -> Self {
        SideArtifacts {
            lean: LeanTrace::new(meta),
            keyed: KeyedTrace::default(),
            web: ViewWeb::empty(),
        }
    }

    /// Appends a batch of entries, which must continue the trace in entry order.
    pub fn push_batch(&mut self, batch: &EntryBatch) -> PushTimes {
        let base = self.lean.len();
        let key_start = Instant::now();
        for entry in batch.iter() {
            self.lean.push(entry);
            self.keyed.push(entry);
        }
        let web_start = Instant::now();
        for (offset, entry) in batch.iter().enumerate() {
            self.web.extend(base + offset, entry);
        }
        PushTimes {
            key: web_start - key_start,
            web: web_start.elapsed(),
        }
    }

    /// The artifacts as a [`DiffSide`].
    pub fn side(&self) -> DiffSide<'_> {
        DiffSide::lean(&self.lean, &self.keyed, &self.web)
    }

    /// The lean per-entry context; it carries the trace's metadata.
    pub fn lean(&self) -> &LeanTrace {
        &self.lean
    }
}

/// Views-differences two prepared sides; the pair's view [`Correlation`] is built
/// here.
pub fn views_diff_sides(
    left: &DiffSide<'_>,
    right: &DiffSide<'_>,
    options: &ViewsDiffOptions,
) -> TraceDiffResult {
    // The clock starts before the correlation build: this entry point's `elapsed` covers
    // everything it derives, keeping its timings comparable with the seed baseline's.
    let start = Instant::now();
    let correlation = Correlation::build(left.web, right.web);
    fresh_diff(start, left, right, &correlation, options)
}

/// [`views_diff_sides`] with the pair's view [`Correlation`] supplied by the caller.
/// This is the backend of `rprism::Engine::diff`, whose session cache holds one
/// correlation per trace pair so that repeated diffs of the same pair skip straight to
/// the lock-step scan.
pub fn views_diff_sides_correlated(
    left: &DiffSide<'_>,
    right: &DiffSide<'_>,
    correlation: &Correlation,
    options: &ViewsDiffOptions,
) -> TraceDiffResult {
    fresh_diff(Instant::now(), left, right, correlation, options)
}

/// The batch differ: translates the right side's keys, then runs one fresh scan per
/// correlated thread pair.
fn fresh_diff(
    start: Instant,
    left: &DiffSide<'_>,
    right: &DiffSide<'_>,
    correlation: &Correlation,
    options: &ViewsDiffOptions,
) -> TraceDiffResult {
    let mut translation = Vec::new();
    left.keyed.translate_into(right.keyed, &mut translation);
    let scans = crate::session::fresh_scans(left, right, correlation);
    views_diff_sides_from(
        start,
        left,
        right,
        &translation,
        correlation,
        options,
        scans,
    )
}

/// Shared body of [`views_diff_sides`] / [`views_diff_sides_correlated`] and
/// [`DiffSession::finish`](crate::DiffSession::finish): runs every correlated thread
/// pair's scan — fresh, or resumed from where a session suspended it — to completion.
/// `start` anchors the result's `elapsed` so each public entry point times exactly the
/// work it performs. `translation` maps the right side's key ids to the left side's
/// and covers every right key. The lock-step scan itself lives in
/// [`crate::session::complete_scans`] — the single implementation shared with the
/// incremental [`crate::DiffSession`].
pub(crate) fn views_diff_sides_from(
    start: Instant,
    left: &DiffSide<'_>,
    right: &DiffSide<'_>,
    translation: &[u32],
    correlation: &Correlation,
    options: &ViewsDiffOptions,
    scans: Vec<crate::session::PairTask<'_>>,
) -> TraceDiffResult {
    let mut meter = CostMeter::new();

    meter.allocate(keyed_bytes(left.keyed) + keyed_bytes(right.keyed));

    let differ = Differ {
        left: *left,
        right: *right,
        translation,
        correlation,
        options,
    };
    let matching = crate::session::complete_scans(&differ, scans, &mut meter);

    let sequences = matching.difference_sequences();
    TraceDiffResult {
        matching,
        sequences,
        cost: meter.stats(),
        elapsed: start.elapsed(),
        algorithm: "views",
    }
}

fn keyed_bytes(keyed: &KeyedTrace) -> u64 {
    keyed.estimated_bytes()
}

/// Reusable buffers of one thread-pair scan, so the mismatch exploration allocates
/// nothing after warm-up.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The correlated view pairs one exploration compares, in first-seen order. At
    /// most `4·(2Δ+1)²` entries (one per view kind and neighbourhood pair), so a linear
    /// probe beats hashing at the default Δ.
    explored: Vec<Linked>,
    /// The two windows' key ids, both in the left side's id space.
    lkeys: Vec<u32>,
    rkeys: Vec<u32>,
    lcs: LcsScratch,
}

impl Scratch {
    /// The view pairs the latest mismatch step explored.
    pub(crate) fn explored(&self) -> &[Linked] {
        &self.explored
    }
}

/// One correlated secondary view pair a mismatch step compares, with the base entries
/// its two `±window` windows are centred on (the entries it was first seen at).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Linked {
    views: (ViewId, ViewId),
    at: (usize, usize),
}

/// The per-comparison machinery of one differencing run: both sides, the right side's
/// key ids translated into the left side's, their view correlation, and the
/// exploration options. The lock-step drive loop lives in
/// [`crate::session::PairScan`]; this type supplies the three primitives it composes
/// (`=e` head comparison, secondary-view exploration, post-mismatch scan-ahead).
pub(crate) struct Differ<'a> {
    pub(crate) left: DiffSide<'a>,
    pub(crate) right: DiffSide<'a>,
    /// Right key id → left key id ([`KeyedTrace::translate_into`]).
    pub(crate) translation: &'a [u32],
    pub(crate) correlation: &'a Correlation,
    pub(crate) options: &'a ViewsDiffOptions,
}

impl<'a> Differ<'a> {
    /// `=e` between base-trace entries: one compare of the left entry's key id with
    /// the right entry's translated id.
    #[inline]
    pub(crate) fn entries_eq(&self, left_idx: usize, right_idx: usize) -> bool {
        self.left.keyed.id(left_idx) == self.right_id(right_idx)
    }

    /// The key id of a right entry in the left side's id space.
    #[inline]
    fn right_id(&self, right_idx: usize) -> u32 {
        self.translation[self.right.keyed.id(right_idx) as usize]
    }

    /// The per-entry correlation function `X_τ(γ_L, γ_R)` of Fig. 9 over lean contexts:
    /// the pair of correlated view ids of type `kind` the two entries belong to, or
    /// `None` when their views of that type do not correlate. It reads thread ids, and
    /// object correlation identities for the uncorrelated-view fallback.
    fn correlate_at(
        &self,
        kind: ViewKind,
        left_idx: usize,
        right_idx: usize,
    ) -> Option<(ViewId, ViewId)> {
        let l = self.left.web.entry_view(left_idx, kind)?;
        let r = self.right.web.entry_view(right_idx, kind)?;
        let (le, re) = (&self.left.entries[left_idx], &self.right.entries[right_idx]);
        let correlated = match kind {
            ViewKind::Thread => self.correlation.threads.get(&le.tid) == Some(&re.tid),
            ViewKind::Method => {
                // Signatures are interned: equal fully qualified names ⇔ equal view keys.
                self.left.web.view_by_id(l).key == self.right.web.view_by_id(r).key
            }
            ViewKind::TargetObject => {
                let (lt, rt) = (le.target?, re.target?);
                self.correlation
                    .object_verdict(l, r)
                    .unwrap_or_else(|| lt.correlates_with(&rt))
            }
            ViewKind::ActiveObject => self
                .correlation
                .object_verdict(l, r)
                .unwrap_or_else(|| le.active.correlates_with(&re.active)),
        };
        correlated.then_some((l, r))
    }

    /// `LinkedSimilarEntries`: for entries within Δ of the two mismatch positions whose
    /// views of some type correlate, run LCS over fixed-size windows of the correlated
    /// views and add every matched pair to Π (appended to `matched`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn explore_secondary_views(
        &self,
        lv: &[usize],
        rv: &[usize],
        i: usize,
        j: usize,
        matched: &mut Vec<(usize, usize)>,
        meter: &mut CostMeter,
        scratch: &mut Scratch,
    ) {
        self.linked_views(lv, rv, i, j, meter, &mut scratch.explored);
        for k in 0..scratch.explored.len() {
            let Linked {
                views: (lid, rid),
                at: (left_idx, right_idx),
            } = scratch.explored[k];
            self.windowed_secondary_lcs(lid, rid, left_idx, right_idx, matched, meter, scratch);
        }
    }

    /// The secondary view pairs the mismatch step at `(i, j)` explores: every pair of
    /// correlated views (`X_τ`, Fig. 9) of entries within Δ of the two positions, once,
    /// in first-seen order, with the entries it was first seen at. One compare is
    /// counted per neighbourhood pair and view kind. This is the only part of a
    /// mismatch step that reads the [`Correlation`].
    pub(crate) fn linked_views(
        &self,
        lv: &[usize],
        rv: &[usize],
        i: usize,
        j: usize,
        meter: &mut CostMeter,
        linked: &mut Vec<Linked>,
    ) {
        let delta = self.options.delta as i64;
        linked.clear();

        for da in -delta..=delta {
            let li = i as i64 + da;
            if li < 0 || li as usize >= lv.len() {
                continue;
            }
            for db in -delta..=delta {
                let rj = j as i64 + db;
                if rj < 0 || rj as usize >= rv.len() {
                    continue;
                }
                let left_idx = lv[li as usize];
                let right_idx = rv[rj as usize];

                for kind in ViewKind::ALL {
                    meter.count_compares(1);
                    let pair = self.correlate_at(kind, left_idx, right_idx);
                    let pair = match pair {
                        Some(p) => Some(p),
                        // §5 relaxation: method views at the same distance from the
                        // mismatch anchor are treated as correlated even when their
                        // signatures differ (tolerating renames).
                        None if self.options.relaxed_correlation && kind == ViewKind::Method => {
                            if same_distance_from_anchor(i, j, li as usize, rj as usize, 0) {
                                let l = self.left.web.entry_view(left_idx, ViewKind::Method);
                                let r = self.right.web.entry_view(right_idx, ViewKind::Method);
                                l.zip(r)
                            } else {
                                None
                            }
                        }
                        None => None,
                    };
                    let Some(views) = pair else {
                        continue;
                    };
                    if linked.iter().any(|seen| seen.views == views) {
                        continue;
                    }
                    linked.push(Linked {
                        views,
                        at: (left_idx, right_idx),
                    });
                }
            }
        }
    }

    /// LCS over `±window` neighbourhoods of the two correlated secondary views, centred on
    /// the member positions of the given base entries.
    #[allow(clippy::too_many_arguments)]
    fn windowed_secondary_lcs(
        &self,
        left_view: ViewId,
        right_view: ViewId,
        left_idx: usize,
        right_idx: usize,
        matched: &mut Vec<(usize, usize)>,
        meter: &mut CostMeter,
        scratch: &mut Scratch,
    ) {
        let lsec = self.left.web.view_by_id(left_view);
        let rsec = self.right.web.view_by_id(right_view);
        let (Some(lpos), Some(rpos)) = (lsec.position_of(left_idx), rsec.position_of(right_idx))
        else {
            return;
        };
        let lwin = lsec.window(lpos, self.options.window);
        let rwin = rsec.window(rpos, self.options.window);
        scratch.lkeys.clear();
        scratch.rkeys.clear();
        scratch
            .lkeys
            .extend(lwin.iter().map(|&x| self.left.keyed.id(x)));
        scratch.rkeys.extend(rwin.iter().map(|&x| self.right_id(x)));
        // Windows are constant-sized, so the quadratic LCS here is O(1) per call. The
        // bit-parallel kernel returns the DP's pairs with the DP's compare accounting
        // (and falls back to the DP beyond 64 key classes), so the matching and every
        // cost invariant are the DP's.
        lcs_bitparallel_into(
            &scratch.lkeys,
            &scratch.rkeys,
            meter,
            MemoryBudget::unlimited(),
            &mut scratch.lcs,
            |wi, wj| matched.push((lwin[wi], rwin[wj])),
        )
        .expect("an unlimited budget refuses nothing");
    }

    /// Finds the closest `(a, b)` offsets such that the thread-view heads at `i + a` /
    /// `j + b` are `=e`-equal, minimizing the number of skipped entries `a + b`.
    pub(crate) fn next_correspondence(
        &self,
        lv: &[usize],
        rv: &[usize],
        i: usize,
        j: usize,
        meter: &mut CostMeter,
    ) -> Option<(usize, usize)> {
        for total in 1..=self.options.max_scan_ahead {
            for a in 0..=total {
                let b = total - a;
                let (li, rj) = (i + a, j + b);
                if li >= lv.len() || rj >= rv.len() {
                    continue;
                }
                meter.count_compares(1);
                if self.entries_eq(lv[li], rv[rj]) {
                    return Some((a, b));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lcs_diff::{lcs_diff, LcsDiffOptions};
    use rprism_lang::parser::parse_program;
    use rprism_trace::{Trace, TraceMeta};
    use rprism_vm::{run_traced, VmConfig};

    /// The one-shot views diff: fresh lean contexts, keys and webs for both traces, then
    /// [`views_diff_sides`].
    fn fresh_views_diff(
        left: &Trace,
        right: &Trace,
        options: &ViewsDiffOptions,
    ) -> TraceDiffResult {
        let prepare = |t: &Trace| (LeanTrace::build(t), KeyedTrace::build(t), ViewWeb::build(t));
        let (ll, lk, lw) = prepare(left);
        let (rl, rk, rw) = prepare(right);
        views_diff_sides(
            &DiffSide::lean(&ll, &lk, &lw),
            &DiffSide::lean(&rl, &rk, &rw),
            options,
        )
    }

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

    const ORIGINAL: &str = r#"
        class Log extends Object {
            Int n;
            Unit addMsg(Str m) { this.n = this.n + 1; }
        }
        class Num extends Object {
            Int min; Int max;
            Bool inRange(Int c) { return (c >= this.min) && (c <= this.max); }
        }
        class SP extends Object {
            Log log; Num conv;
            Unit setRequestType(Str ty) {
                this.log.addMsg("Handling");
                if (ty == "text/html") {
                    this.conv = new Num(32, 127);
                }
                this.log.addMsg("Set req type");
            }
            Int process(Int c) {
                if (this.conv.inRange(c)) { return c; }
                return 0 - c;
            }
        }
        main {
            let log = new Log(0);
            let sp = new SP(log, null);
            sp.setRequestType("text/html");
            sp.process(20);
            sp.process(64);
        }
    "#;

    fn regressing() -> String {
        // The BinaryCharFilter-style regression: the range becomes [1, 127].
        ORIGINAL.replace("new Num(32, 127)", "new Num(1, 127)")
    }

    #[test]
    fn identical_traces_are_fully_similar() {
        let a = trace_of(ORIGINAL, "a");
        let b = trace_of(ORIGINAL, "b");
        let result = fresh_views_diff(&a, &b, &ViewsDiffOptions::default());
        assert_eq!(result.num_differences(), 0);
        assert_eq!(result.num_similar(), a.len());
    }

    #[test]
    fn regression_produces_localized_differences() {
        let a = trace_of(ORIGINAL, "old");
        let b = trace_of(&regressing(), "new");
        let result = fresh_views_diff(&a, &b, &ViewsDiffOptions::default());
        assert!(result.num_differences() > 0);
        // The differences mention the changed range initialization or the downstream
        // comparison difference, not the unrelated logging.
        let mut touches_num = false;
        for seq in &result.sequences {
            for idx in &seq.left {
                if a[*idx].render().contains("Num") {
                    touches_num = true;
                }
            }
            for idx in &seq.right {
                if b[*idx].render().contains("Num") {
                    touches_num = true;
                }
            }
        }
        assert!(touches_num, "differences should involve the Num object");
        // Events unrelated to the changed range — the Log.addMsg activity — still match.
        let matched_log_events = a
            .iter()
            .enumerate()
            .filter(|(idx, e)| result.matching.is_matched_left(*idx) && e.render().contains("Log"))
            .count();
        assert!(
            matched_log_events >= 4,
            "expected the logging activity to stay matched, got {matched_log_events}"
        );
    }

    #[test]
    fn views_diff_is_at_least_as_accurate_as_lcs_on_reordered_code() {
        // Reorder two independent statements in the "new" version: LCS must drop one of
        // them, views-based differencing can recover both via object views.
        let old_src = r#"
            class A extends Object { Int x; Unit setA(Int v) { this.x = v; } }
            class B extends Object { Int y; Unit setB(Int v) { this.y = v; } }
            main {
                let a = new A(0);
                let b = new B(0);
                a.setA(10);
                a.setA(11);
                a.setA(12);
                b.setB(20);
                b.setB(21);
                b.setB(22);
            }
        "#;
        let new_src = r#"
            class A extends Object { Int x; Unit setA(Int v) { this.x = v; } }
            class B extends Object { Int y; Unit setB(Int v) { this.y = v; } }
            main {
                let a = new A(0);
                let b = new B(0);
                b.setB(20);
                b.setB(21);
                b.setB(22);
                a.setA(10);
                a.setA(11);
                a.setA(12);
            }
        "#;
        let old = trace_of(old_src, "old");
        let new = trace_of(new_src, "new");
        let views = fresh_views_diff(&old, &new, &ViewsDiffOptions::default());
        let lcs = lcs_diff(&old, &new, &LcsDiffOptions::default()).unwrap();
        assert!(
            views.num_differences() <= lcs.num_differences(),
            "views diffs {} should not exceed lcs diffs {}",
            views.num_differences(),
            lcs.num_differences()
        );
        assert!(views.accuracy_vs(&lcs) >= 1.0);
    }

    #[test]
    fn compare_operations_scale_roughly_linearly() {
        // Build two program pairs, one ~3x the size of the other, and check that the
        // views-based compare-op count grows far slower than quadratically.
        fn sized_src(reps: usize, value: i64) -> String {
            let mut body = String::new();
            body.push_str("let c = new C(0);\n");
            for i in 0..reps {
                body.push_str(&format!("c.work({});\n", i as i64 + value));
            }
            format!(
                "class C extends Object {{ Int t; Unit work(Int v) {{ this.t = this.t + v; }} }}\nmain {{ {body} }}"
            )
        }
        let small_old = trace_of(&sized_src(30, 0), "so");
        let small_new = trace_of(&sized_src(30, 1), "sn");
        let large_old = trace_of(&sized_src(90, 0), "lo");
        let large_new = trace_of(&sized_src(90, 1), "ln");

        let small = fresh_views_diff(&small_old, &small_new, &ViewsDiffOptions::default());
        let large = fresh_views_diff(&large_old, &large_new, &ViewsDiffOptions::default());
        let ratio = large.cost.compare_ops as f64 / small.cost.compare_ops.max(1) as f64;
        // Trace length ratio is ~3; a quadratic algorithm would be ~9.
        assert!(
            ratio < 6.0,
            "compare-op growth ratio {ratio} suggests super-linear behaviour"
        );
    }

    #[test]
    fn multithreaded_traces_diff_per_correlated_thread() {
        let src = |v: i64| {
            format!(
                r#"
            class W extends Object {{
                Int total;
                Unit work(Int v) {{ this.total = this.total + v; }}
            }}
            main {{
                let w1 = new W(0);
                let w2 = new W(0);
                spawn {{ w1.work({v}); w1.work(2); }}
                spawn {{ w2.work(3); w2.work(4); }}
                w1.work(5);
            }}
        "#
            )
        };
        let old = trace_of(&src(1), "old");
        let new = trace_of(&src(99), "new");
        let result = fresh_views_diff(&old, &new, &ViewsDiffOptions::default());
        assert!(result.num_differences() > 0);
        // Only the first worker's changed call should differ; the second worker's thread
        // and the main thread still match almost entirely.
        let diff_ratio = result.num_differences() as f64 / (old.len() + new.len()) as f64;
        assert!(diff_ratio < 0.5, "diff ratio {diff_ratio} too large");
    }

    #[test]
    fn parallel_and_sequential_runs_agree() {
        let src = |v: i64| {
            format!(
                r#"
            class W extends Object {{
                Int total;
                Unit work(Int v) {{ this.total = this.total + v; }}
            }}
            main {{
                let w1 = new W(0);
                let w2 = new W(0);
                spawn {{ w1.work({v}); w1.work(2); }}
                spawn {{ w2.work(3); w2.work(4); }}
                w1.work(5);
            }}
        "#
            )
        };
        let old = trace_of(&src(1), "old");
        let new = trace_of(&src(99), "new");
        let options = ViewsDiffOptions::default();
        let par = rprism_trace::par::with_workers(4, || fresh_views_diff(&old, &new, &options));
        let seq = rprism_trace::par::inline(|| fresh_views_diff(&old, &new, &options));
        assert_eq!(
            par.matching.normalized_pairs(),
            seq.matching.normalized_pairs()
        );
        assert_eq!(par.sequences, seq.sequences);
        assert_eq!(par.cost.compare_ops, seq.cost.compare_ops);
    }

    #[test]
    fn options_control_exploration_extent() {
        let a = trace_of(ORIGINAL, "old");
        let b = trace_of(&regressing(), "new");
        let narrow = fresh_views_diff(
            &a,
            &b,
            &ViewsDiffOptions {
                delta: 0,
                window: 1,
                max_scan_ahead: 4,
                relaxed_correlation: false,
            },
        );
        let wide = fresh_views_diff(&a, &b, &ViewsDiffOptions::default());
        assert!(wide.cost.compare_ops >= narrow.cost.compare_ops);
        assert!(wide.num_differences() <= narrow.num_differences() + a.len());
    }
}
