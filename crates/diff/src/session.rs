//! Resumable diff sessions: the views differencer as a suspendable state machine.
//!
//! The batch entry points of [`views_diff`](mod@crate::views_diff) assume two complete
//! traces. A monitoring service wants the opposite shape: the *old* trace is prepared
//! up front, the *new* trace arrives as a growing suffix, and a verdict should take
//! form while entries stream in. [`DiffSession`] provides that shape without forking
//! the algorithm:
//!
//! * the lock-step scan of one correlated thread-view pair (paper §3.3, Fig. 12) is an
//!   explicit cursor pair (`PairScan`) that can stop at any step and resume when the
//!   right side has grown;
//! * [`DiffSession::push_batch`] appends a batch of new-trace entries (incrementally
//!   extending the right side's [`SideArtifacts`] — the same fold streaming ingestion
//!   runs), advances every pair as far as the data allows, and
//!   returns the [`ProvisionalEvent`]s that advance produced;
//! * [`DiffSession::finish`] runs the scan to completion against the final view
//!   correlation and returns a [`TraceDiffResult`] **identical** (matching, sequences,
//!   compare counts) to the batch differ over the same two traces, however the chunks
//!   were sliced.
//!
//! The batch differ itself is re-expressed over the same machine: `views_diff_sides*`
//! call `scan_sides`, which drives one `PairScan` per correlated thread pair to
//! completion. There is exactly one scan implementation.
//!
//! # Provisional events and the monotonic invalidation rule
//!
//! While the right side is incomplete, three things make mid-stream verdicts tentative:
//! the view correlation is a global heuristic over both complete webs (a thread pairing
//! can be revised when a better-matching right thread appears), the post-mismatch scan
//! ahead is bounded lookahead (entries that have not arrived yet may supply a closer
//! correspondence), and windowed secondary LCS needs the window after the mismatch to
//! be populated. The session therefore:
//!
//! * advances a pair through **head matches** eagerly (a `=e`-equal head pair depends
//!   only on the two entries themselves) and emits [`ProvisionalEvent::Match`];
//! * takes a **mismatch** step only once the right side extends far enough that the
//!   step's exploration (scan-ahead bound, Δ neighbourhood, secondary windows) cannot
//!   change shape with further growth; otherwise the pair suspends until the next push
//!   or [`DiffSession::finish`];
//! * when the correlation revises a thread pairing, retracts that pair's provisional
//!   matches with [`ProvisionalEvent::Invalidate`] and records them in a tombstone set.
//!
//! The tombstone set is the **monotonic invalidation rule**: once a `(left, right)`
//! pair has been invalidated it is never emitted as a match again — not by a later
//! push, and not by the reconciliation events of `finish`. The event stream is
//! advisory; the `finish` result is authoritative and may contain a tombstoned pair
//! (it then simply appears without a fresh `Match` event). Equivalence and
//! monotonicity are pinned by the workspace `watch_equivalence` suite.

use std::collections::{HashMap, HashSet};

use rprism_trace::{par, EntryBatch, ThreadId, TraceMeta};
use rprism_views::{Correlation, ViewKind};

use crate::cost::CostMeter;
use crate::matching::Matching;
use crate::result::TraceDiffResult;
use crate::views_diff::{
    views_diff_sides_correlated, DiffSide, Differ, Scratch, SideArtifacts, ViewsDiffOptions,
};

/// Observer of skipped (divergent-looking) regions during a scan step — the raw
/// material of [`ProvisionalEvent::Difference`].
type SkipObserver<'a> = &'a mut dyn FnMut(&[usize], &[usize]);

/// One tentative observation emitted while a new trace streams in.
///
/// Indices are base-trace entry indices (left = old trace, right = new trace so far).
/// Events are advisory: the authoritative verdict is the [`TraceDiffResult`] returned
/// by [`DiffSession::finish`]. The stream obeys the monotonic invalidation rule: after
/// an `Invalidate { left, right }`, no later event re-emits `Match { left, right }`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProvisionalEvent {
    /// The pair entered the provisional similarity set.
    Match {
        /// Old-trace entry index.
        left: usize,
        /// New-trace entry index.
        right: usize,
    },
    /// A previously emitted pair was retracted (e.g. a thread pairing was revised).
    Invalidate {
        /// Old-trace entry index.
        left: usize,
        /// New-trace entry index.
        right: usize,
    },
    /// A provisionally divergent region: entries skipped at a mismatch while locating
    /// the next point of correspondence. Either side may be empty, never both.
    Difference {
        /// Skipped old-trace entry indices.
        left: Vec<usize>,
        /// Skipped new-trace entry indices.
        right: Vec<usize>,
    },
}

/// The suspendable lock-step scan over one pair of correlated thread views: the
/// `(i, j)` cursor pair of the paper's Fig. 12 rules, made explicit so a scan can stop
/// mid-pair and resume after the right view has grown.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PairScan {
    i: usize,
    j: usize,
}

impl PairScan {
    /// Advances the scan as far as the data allows. With `complete` set the right side
    /// is final and the pair runs to exhaustion — this is the batch differ's inner
    /// loop. Without it, a mismatch step is only taken when its exploration is fully
    /// covered by the entries seen so far (see [`mismatch_is_stable`]); otherwise the
    /// pair suspends with its cursors intact.
    ///
    /// `on_skip` observes the regions skipped while locating the next correspondence
    /// (the raw material of [`ProvisionalEvent::Difference`]); matched pairs are
    /// appended to `matched` in discovery order, duplicates included.
    #[allow(clippy::too_many_arguments)]
    fn run<'a>(
        &mut self,
        differ: &Differ<'a>,
        lv: &[usize],
        rv: &[usize],
        complete: bool,
        matched: &mut Vec<(usize, usize)>,
        meter: &mut CostMeter,
        scratch: &mut Scratch<'a>,
        mut on_skip: Option<SkipObserver<'_>>,
    ) {
        while self.i < lv.len() && self.j < rv.len() {
            meter.count_compares(1);
            if differ.entries_eq(lv[self.i], rv[self.j]) {
                // STEP-VIEW-MATCH
                matched.push((lv[self.i], rv[self.j]));
                self.i += 1;
                self.j += 1;
                continue;
            }
            if !complete && !mismatch_is_stable(differ, rv, self.j) {
                // The mismatch exploration could still change shape as the right side
                // grows; suspend with the cursors parked on this step.
                return;
            }
            // STEP-VIEW-NOMATCH: explore linked secondary views near the mismatch …
            differ.explore_secondary_views(lv, rv, self.i, self.j, matched, meter, scratch);
            // … then skip to the next point of correspondence in the thread views.
            match differ.next_correspondence(lv, rv, self.i, self.j, meter) {
                Some((a, b)) => {
                    if let Some(skip) = on_skip.as_deref_mut() {
                        skip(&lv[self.i..self.i + a], &rv[self.j..self.j + b]);
                    }
                    self.i += a;
                    self.j += b;
                }
                None => {
                    if let Some(skip) = on_skip.as_deref_mut() {
                        skip(&lv[self.i..=self.i], &rv[self.j..=self.j]);
                    }
                    self.i += 1;
                    self.j += 1;
                }
            }
        }
    }
}

/// Whether the mismatch step at right cursor `j` can no longer change shape as the
/// right side grows: the forward scan bound and the Δ neighbourhood are in range, and
/// every secondary view touched from the neighbourhood already has its full `+window`
/// extent after the touched position (view member lists only ever append, so once
/// satisfied this stays satisfied).
fn mismatch_is_stable(differ: &Differ<'_>, rv: &[usize], j: usize) -> bool {
    let options = differ.options;
    let lookahead = options.max_scan_ahead.max(options.delta);
    if rv.len() <= j + lookahead {
        return false;
    }
    let delta = options.delta as i64;
    for db in -delta..=delta {
        let rj = j as i64 + db;
        if rj < 0 {
            continue;
        }
        let right_idx = rv[rj as usize];
        for kind in ViewKind::ALL {
            let Some(id) = differ.right.web.entry_view(right_idx, kind) else {
                continue;
            };
            let view = differ.right.web.view_by_id(id);
            let Some(pos) = view.position_of(right_idx) else {
                continue;
            };
            if view.entries.len() <= pos + options.window {
                return false;
            }
        }
    }
    true
}

/// The complete scan over every correlated thread-view pair — the single lock-step
/// scan implementation behind both the batch `views_diff_sides*` entry points and
/// [`DiffSession::finish`]. Thread pairs are independent, so they fan out over
/// [`par::map_ordered`]; each pair's pairs and cost meter are merged in pair order,
/// so the result is the same whether or not the pairs ran concurrently.
pub(crate) fn scan_sides(
    left: &DiffSide<'_>,
    right: &DiffSide<'_>,
    correlation: &Correlation,
    options: &ViewsDiffOptions,
    meter: &mut CostMeter,
) -> Matching {
    let differ = Differ {
        left: *left,
        right: *right,
        correlation,
        options,
    };

    // Collect the correlated thread-view pairs up front; each pair is independent.
    let pairs: Vec<(&[usize], &[usize])> = correlation
        .thread_pairs()
        .into_iter()
        .filter_map(|(lt, rt)| {
            let lv = left.web.thread_view_entries(lt)?;
            let rv = right.web.thread_view_entries(rt)?;
            Some((lv, rv))
        })
        .collect();

    let scans = par::map_ordered(&pairs, |&(lv, rv)| {
        let mut pair_matched = Vec::new();
        let mut pair_meter = CostMeter::new();
        PairScan::default().run(
            &differ,
            lv,
            rv,
            true,
            &mut pair_matched,
            &mut pair_meter,
            &mut Scratch::default(),
            None,
        );
        (pair_matched, pair_meter)
    });
    let mut matched = Vec::new();
    for (pair_matched, pair_meter) in scans {
        matched.extend(pair_matched);
        meter.merge(&pair_meter);
    }
    Matching::from_pairs(left.len(), right.len(), matched)
}

/// Per-pair incremental state: which right thread the left thread is currently paired
/// with, the suspended scan cursors, and the provisional pairs this pairing has
/// emitted (retracted wholesale if the pairing is revised).
#[derive(Debug)]
struct PairState {
    right: ThreadId,
    scan: PairScan,
    contributed: Vec<(usize, usize)>,
}

/// Everything [`DiffSession::finish`] produces: the authoritative verdict, the final
/// reconciliation events, and the accumulated right-side artifacts.
#[derive(Debug)]
pub struct SessionFinish {
    /// The authoritative diff — byte-identical (matching, sequences, compare counts)
    /// to the batch differ over the same two sides.
    pub result: TraceDiffResult,
    /// Reconciliation events: `Match` for authoritative pairs never emitted (and not
    /// tombstoned), then `Invalidate` for provisional pairs absent from the verdict.
    /// Both groups are sorted for determinism.
    pub events: Vec<ProvisionalEvent>,
    /// The streamed side's artifacts: exactly what a streamed load of the same entries
    /// builds, so the watched trace becomes a prepared handle without a second pass.
    pub artifacts: SideArtifacts,
}

/// An incremental views diff of one fixed, prepared *old* side against a *new* side
/// that arrives in chunks. See the module docs for the lifecycle and the provisional
/// event semantics.
///
/// The old side is passed to every call (rather than borrowed at construction) so the
/// session itself is `'static` and can be stored — in a server connection, an engine
/// watch, or a suspended batch diff. Callers must pass the same side every time; the
/// session only reads it.
#[derive(Debug)]
pub struct DiffSession {
    options: ViewsDiffOptions,
    artifacts: SideArtifacts,
    pairs: HashMap<ThreadId, PairState>,
    /// Pairs currently believed matched (drives `Match` dedup and finish reconciliation).
    emitted: HashSet<(usize, usize)>,
    /// Pairs retracted once and never to be re-emitted (the monotonic invalidation rule).
    tombstones: HashSet<(usize, usize)>,
    /// Difference regions already reported, keyed by their boundary.
    seen_differences: HashSet<(usize, usize, usize, usize)>,
}

impl DiffSession {
    /// Starts a session for a new trace identified by `meta`, diffed under `options`.
    pub fn new(meta: TraceMeta, options: ViewsDiffOptions) -> Self {
        DiffSession {
            options,
            artifacts: SideArtifacts::new(meta),
            pairs: HashMap::new(),
            emitted: HashSet::new(),
            tombstones: HashSet::new(),
            seen_differences: HashSet::new(),
        }
    }

    /// Number of new-trace entries consumed so far.
    pub fn right_len(&self) -> usize {
        self.artifacts.lean().len()
    }

    /// Appends a batch of new-trace entries (in trace order, any batch boundaries) and
    /// advances the incremental scan, returning the provisional events the batch
    /// produced. `left` is the prepared old side and must be the same on every call.
    pub fn push_batch(&mut self, left: &DiffSide<'_>, batch: &EntryBatch) -> Vec<ProvisionalEvent> {
        self.artifacts.push_batch(batch);
        self.provisional_scan(left)
    }

    /// One incremental pass: re-derive the (provisional) correlation over the webs as
    /// they stand, retract pairs whose thread pairing was revised, and advance every
    /// pair's suspended scan as far as the data allows.
    fn provisional_scan(&mut self, left: &DiffSide<'_>) -> Vec<ProvisionalEvent> {
        // Re-correlation runs on every push: too frequent to be worth a thread.
        let right = self.artifacts.side();
        let correlation = par::inline(|| Correlation::build(left.web(), right.web()));
        let mut events = Vec::new();

        // Retract state for revised or vanished thread pairings.
        let current = correlation.thread_pairs();
        let assigned: HashMap<ThreadId, ThreadId> = current.iter().copied().collect();
        let stale: Vec<ThreadId> = self
            .pairs
            .iter()
            .filter(|(lt, state)| assigned.get(lt) != Some(&state.right))
            .map(|(lt, _)| *lt)
            .collect();
        for lt in stale {
            let state = self.pairs.remove(&lt).expect("stale pair state present");
            for (l, r) in state.contributed {
                if self.tombstones.insert((l, r)) {
                    self.emitted.remove(&(l, r));
                    events.push(ProvisionalEvent::Invalidate { left: l, right: r });
                }
            }
        }

        // Advance every correlated pair; the provisional meter is scratch (the
        // authoritative cost accounting is recomputed wholesale by `finish`).
        for (lt, rt) in current {
            let Some(lv) = left.web().thread_view_entries(lt) else {
                continue;
            };
            let Some(rv) = right.web().thread_view_entries(rt) else {
                continue;
            };
            let state = self.pairs.entry(lt).or_insert_with(|| PairState {
                right: rt,
                scan: PairScan::default(),
                contributed: Vec::new(),
            });
            let differ = Differ {
                left: *left,
                right,
                correlation: &correlation,
                options: &self.options,
            };
            let mut matched = Vec::new();
            let mut meter = CostMeter::new();
            let mut scratch = Scratch::default();
            let mut skips: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
            state.scan.run(
                &differ,
                lv,
                rv,
                false,
                &mut matched,
                &mut meter,
                &mut scratch,
                Some(&mut |l: &[usize], r: &[usize]| skips.push((l.to_vec(), r.to_vec()))),
            );
            for &(l, r) in &matched {
                if self.tombstones.contains(&(l, r)) || !self.emitted.insert((l, r)) {
                    continue;
                }
                state.contributed.push((l, r));
                events.push(ProvisionalEvent::Match { left: l, right: r });
            }
            for (lvec, rvec) in skips {
                let key = (
                    lvec.first().copied().unwrap_or(usize::MAX),
                    lvec.len(),
                    rvec.first().copied().unwrap_or(usize::MAX),
                    rvec.len(),
                );
                if self.seen_differences.insert(key) {
                    events.push(ProvisionalEvent::Difference {
                        left: lvec,
                        right: rvec,
                    });
                }
            }
        }
        events
    }

    /// Declares the new trace complete: builds the final correlation over both full
    /// webs and runs the scan to completion. The result is identical to the batch
    /// differ over the same sides; the events reconcile the provisional stream with it
    /// (respecting the tombstone set — see the module docs).
    pub fn finish(self, left: &DiffSide<'_>) -> SessionFinish {
        let right = self.artifacts.side();
        let correlation = Correlation::build(left.web(), right.web());
        let result = views_diff_sides_correlated(left, &right, &correlation, &self.options);

        // The matching's pairs are sorted: the `Match` group comes out in order, and a
        // provisional pair is looked up in the verdict by binary search.
        let final_pairs = result.matching.normalized_pairs();
        let mut events: Vec<ProvisionalEvent> = final_pairs
            .iter()
            .filter(|pair| !self.emitted.contains(pair) && !self.tombstones.contains(pair))
            .map(|&(left, right)| ProvisionalEvent::Match { left, right })
            .collect();
        let mut stale: Vec<(usize, usize)> = self
            .emitted
            .iter()
            .copied()
            .filter(|p| final_pairs.binary_search(p).is_err())
            .collect();
        stale.sort_unstable();
        for (l, r) in stale {
            events.push(ProvisionalEvent::Invalidate { left: l, right: r });
        }

        SessionFinish {
            result,
            events,
            artifacts: self.artifacts,
        }
    }
}

/// Suspends and resumes a *batch* diff: drives the same machine as
/// [`scan_sides`] but with an explicit entry budget per call — the "very large batch
/// diff" form of resumability, exercised by the session unit tests below.
#[cfg(test)]
mod tests {
    use super::*;
    use rprism_lang::parser::parse_program;
    use rprism_trace::{KeyedTrace, LeanTrace, Trace};
    use rprism_views::ViewWeb;
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

    const OLD: &str = r#"
        class Log extends Object {
            Int n;
            Unit addMsg(Str m) { this.n = this.n + 1; }
        }
        class SP extends Object {
            Log log;
            Unit handle(Int c) {
                this.log.addMsg("handling");
                this.log.addMsg("done");
            }
        }
        main {
            let log = new Log(0);
            let sp = new SP(log);
            sp.handle(20);
            sp.handle(64);
            spawn { sp.handle(7); }
        }
    "#;

    fn new_src() -> String {
        OLD.replace("sp.handle(64)", "sp.handle(65)")
    }

    fn prepared(trace: &Trace) -> (LeanTrace, KeyedTrace, ViewWeb) {
        (
            LeanTrace::build(trace),
            KeyedTrace::build(trace),
            ViewWeb::build(trace),
        )
    }

    fn session_result(
        old: &Trace,
        new: &Trace,
        chunk: usize,
        options: &ViewsDiffOptions,
    ) -> (TraceDiffResult, Vec<ProvisionalEvent>) {
        let (lean, keyed, web) = prepared(old);
        let left = DiffSide::lean(&lean, &keyed, &web);
        let mut session = DiffSession::new(new.meta.clone(), options.clone());
        let mut events = Vec::new();
        for chunk in new.entries.chunks(chunk.max(1)) {
            events.extend(session.push_batch(&left, &EntryBatch::of(chunk)));
        }
        let finish = session.finish(&left);
        events.extend(finish.events.iter().cloned());
        (finish.result, events)
    }

    #[test]
    fn chunked_session_matches_batch_at_every_boundary() {
        let old = trace_of(OLD, "old");
        let new = trace_of(&new_src(), "new");
        let options = ViewsDiffOptions::default();
        let (olean, okeyed, oweb) = prepared(&old);
        let (nlean, nkeyed, nweb) = prepared(&new);
        let batch = views_diff_sides_correlated(
            &DiffSide::lean(&olean, &okeyed, &oweb),
            &DiffSide::lean(&nlean, &nkeyed, &nweb),
            &Correlation::build(&oweb, &nweb),
            &options,
        );
        for chunk in [1, 7, new.len().max(1)] {
            let (result, _) = session_result(&old, &new, chunk, &options);
            assert_eq!(
                result.matching.normalized_pairs(),
                batch.matching.normalized_pairs(),
                "chunk {chunk}: matchings diverged"
            );
            assert_eq!(result.sequences, batch.sequences, "chunk {chunk}");
            assert_eq!(
                result.cost.compare_ops, batch.cost.compare_ops,
                "chunk {chunk}: compare counts diverged"
            );
        }
    }

    #[test]
    fn provisional_stream_is_monotone() {
        let old = trace_of(OLD, "old");
        let new = trace_of(&new_src(), "new");
        for chunk in [1, 3, 7] {
            let (_, events) = session_result(&old, &new, chunk, &ViewsDiffOptions::default());
            let mut dead: HashSet<(usize, usize)> = HashSet::new();
            for event in &events {
                match event {
                    ProvisionalEvent::Match { left, right } => {
                        assert!(
                            !dead.contains(&(*left, *right)),
                            "pair ({left},{right}) re-matched after invalidation (chunk {chunk})"
                        );
                    }
                    ProvisionalEvent::Invalidate { left, right } => {
                        dead.insert((*left, *right));
                    }
                    ProvisionalEvent::Difference { left, right } => {
                        assert!(!left.is_empty() || !right.is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn matches_stream_before_finish() {
        let old = trace_of(OLD, "old");
        let new = trace_of(&new_src(), "new");
        let (lean, keyed, web) = prepared(&old);
        let left = DiffSide::lean(&lean, &keyed, &web);
        let mut session = DiffSession::new(new.meta.clone(), ViewsDiffOptions::default());
        let mut pre_finish = 0usize;
        for chunk in new.entries.chunks(4) {
            pre_finish += session
                .push_batch(&left, &EntryBatch::of(chunk))
                .iter()
                .filter(|e| matches!(e, ProvisionalEvent::Match { .. }))
                .count();
        }
        assert!(pre_finish > 0, "no provisional matches before finish");
    }

    #[test]
    fn empty_new_trace_diffs_like_batch() {
        let old = trace_of(OLD, "old");
        let empty = Trace::new(TraceMeta::new("empty", "v", "c"));
        let (result, _) = session_result(&old, &empty, 1, &ViewsDiffOptions::default());
        assert_eq!(result.matching.len(), 0);
        assert_eq!(result.matching.left_len(), old.len());
        assert_eq!(result.matching.right_len(), 0);
    }
}
