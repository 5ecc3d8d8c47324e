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
//!   right side has grown; it carries its matched pairs, its cost meter and its
//!   scratch buffers with it;
//! * [`DiffSession::push_batch`] appends a batch of new-trace entries (incrementally
//!   extending the right side's [`SideArtifacts`] — the same fold streaming ingestion
//!   runs), advances every pair as far as the data allows, and
//!   returns the [`ProvisionalEvent`]s that advance produced;
//! * [`DiffSession::finish`] resumes every confirmed pair from its suspended cursors
//!   and runs it to completion against the final view correlation, re-scanning from
//!   the start only the pairs it cannot confirm. It returns a [`TraceDiffResult`]
//!   **identical** (matching, sequences, compare counts) to the batch differ over the
//!   same two traces, however the chunks were sliced.
//!
//! The batch differ itself is re-expressed over the same machine: `views_diff_sides*`
//! run one fresh `PairScan` per correlated thread pair to completion through
//! `complete_scans`, the same call that completes a session's suspended scans. There is
//! exactly one scan implementation.
//!
//! # Where `=e` is evaluated
//!
//! Keys are interned per trace (one `u32` id per entry; see [`rprism_trace::keyed`]).
//! Each push translates the distinct keys its batch added into the old side's ids
//! ([`KeyedTrace::translate_into`](rprism_trace::KeyedTrace::translate_into) extends the
//! session's translation: one index lookup per new key). Every head compare and every
//! window compare of the scan then compares the old entry's id with the new entry's
//! translated id, and `finish` hands the same translation to the scans it completes.
//!
//! # Confirmation, and compare accounting
//!
//! A head match depends only on the two entries, and a mismatch step is taken only once
//! its exploration can no longer change shape as the right side grows (see below). The
//! one input a taken step reads that can still change is the view correlation. It is a
//! pure function of the old web (fixed) and of the new web's thread and object views and
//! spawn ancestries, so a push re-derives it only when its batch created such a view or
//! recorded an ancestry ([`ViewWeb::correlation_generation`] moved), and otherwise keeps
//! the previous push's correlation, whose verdicts then cannot have changed. The step's
//! secondary-view exploration reads its thread pairing and its object-view verdicts
//! (`Correlation::object_verdict`) for every entry pair in the Δ-neighbourhood. A pair
//! is therefore **confirmed** when its thread pairing survived and every mismatch step
//! it took explores the same secondary view pairs, centred on the same entries, under
//! the final correlation. Each pair logs its taken steps (cursor and explored list);
//! whenever a push's correlation gives any verdict differently from the previous
//! push's, the log is recomputed under the new correlation without running the
//! windowed LCS, and a pair whose list differs is marked unconfirmed for good. The last
//! push's correlation is the final one (`finish` adds no entries), so `finish` reuses
//! it: a confirmed pair resumes, an unconfirmed one scans again from cursor 0, and the
//! pairs merge in `thread_pairs()` order exactly as the batch differ merges them.
//!
//! Compare operations are counted once: each pair keeps its own meter across pushes,
//! and a scan that suspends at a mismatch remembers that its heads were already
//! compared, so resuming takes the step without comparing (and counting) them again.
//! A resumed pair's meter therefore equals a batch run's over the same pair; a
//! re-scanned pair starts a fresh one.
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
//!   matches with [`ProvisionalEvent::Invalidate`] and tombstones them.
//!
//! Tombstoning is the **monotonic invalidation rule**: once a `(left, right)` pair has
//! been invalidated it is never emitted as a match again — not by a later push, and not
//! by the reconciliation events of `finish`. The event stream is advisory; the `finish`
//! result is authoritative and may contain a tombstoned pair (it then simply appears
//! without a fresh `Match` event). Every reported pair is kept per left entry (a
//! `Ledger`), so deduplication and reconciliation hash nothing. Equivalence and
//! monotonicity are pinned by the workspace `watch_equivalence` suite.

use std::collections::BTreeSet;
use std::sync::Mutex;
use std::time::Instant;

use rprism_trace::{par, EntryBatch, ThreadId, TraceMeta};
use rprism_views::{Correlation, ViewId, ViewKind, ViewWeb};

use crate::cost::CostMeter;
use crate::matching::Matching;
use crate::result::TraceDiffResult;
use crate::views_diff::{
    views_diff_sides_from, DiffSide, Differ, Linked, Scratch, SideArtifacts, ViewsDiffOptions,
};

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
/// mid-pair and resume after the right view has grown, together with everything the
/// scan has accumulated so far.
#[derive(Debug, Default)]
pub(crate) struct PairScan {
    i: usize,
    j: usize,
    /// The heads at `(i, j)` were compared, and differ, before the scan suspended.
    head_differs: bool,
    /// Matched pairs in discovery order, duplicates included.
    matched: Vec<(usize, usize)>,
    meter: CostMeter,
    scratch: Scratch,
}

/// One correlated thread-view pair's scan, ready to run to completion: the two thread
/// views and the scan's state (fresh, or suspended by a session).
pub(crate) type PairTask<'a> = (&'a [usize], &'a [usize], PairScan);

/// What a provisional run records beyond its matches: its taken mismatch steps, for
/// confirmation, and the regions it skipped, the raw material of
/// [`ProvisionalEvent::Difference`].
#[derive(Debug, Default)]
struct RunLog {
    /// Taken mismatch steps: cursors `(i, j)` and the end of the step's explored list
    /// in `linked`.
    steps: Vec<(usize, usize, usize)>,
    linked: Vec<Linked>,
    /// Regions skipped by the latest run, as view positions `(i, a, j, b)`:
    /// `lv[i..i + a]` and `rv[j..j + b]`.
    skips: Vec<(usize, usize, usize, usize)>,
}

impl PairScan {
    /// Advances the scan as far as the data allows. With `complete` set the right side
    /// is final and the pair runs to exhaustion — this is the batch differ's inner
    /// loop. Without it, a mismatch step is only taken when its exploration is fully
    /// covered by the entries seen so far (see [`mismatch_is_stable`]); otherwise the
    /// pair suspends with its cursors intact. `log`, when given, records every taken
    /// mismatch step and skipped region.
    fn run(
        &mut self,
        differ: &Differ<'_>,
        lv: &[usize],
        rv: &[usize],
        complete: bool,
        mut log: Option<&mut RunLog>,
    ) {
        while self.i < lv.len() && self.j < rv.len() {
            if !self.head_differs {
                self.meter.count_compares(1);
                if differ.entries_eq(lv[self.i], rv[self.j]) {
                    // STEP-VIEW-MATCH
                    self.matched.push((lv[self.i], rv[self.j]));
                    self.i += 1;
                    self.j += 1;
                    continue;
                }
            }
            if !complete && !mismatch_is_stable(differ, rv, self.j) {
                // The mismatch exploration could still change shape as the right side
                // grows; suspend with the cursors parked on this step.
                self.head_differs = true;
                return;
            }
            self.head_differs = false;
            // STEP-VIEW-NOMATCH: explore linked secondary views near the mismatch …
            differ.explore_secondary_views(
                lv,
                rv,
                self.i,
                self.j,
                &mut self.matched,
                &mut self.meter,
                &mut self.scratch,
            );
            // … then skip to the next point of correspondence in the thread views.
            let (a, b) = differ
                .next_correspondence(lv, rv, self.i, self.j, &mut self.meter)
                .unwrap_or((1, 1));
            if let Some(log) = log.as_deref_mut() {
                log.linked.extend_from_slice(self.scratch.explored());
                log.steps.push((self.i, self.j, log.linked.len()));
                log.skips.push((self.i, a, self.j, b));
            }
            self.i += a;
            self.j += b;
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

/// The correlated thread-view pairs of two sides, in `thread_pairs()` order (left
/// thread ascending): both thread ids and both views' entries. Pairs whose thread has
/// no view on one side are skipped.
fn thread_views<'a>(
    left: &DiffSide<'a>,
    right: &DiffSide<'a>,
    correlation: &Correlation,
) -> Vec<(ThreadId, ThreadId, &'a [usize], &'a [usize])> {
    correlation
        .thread_pairs()
        .into_iter()
        .filter_map(|(lt, rt)| {
            let lv = left.web.thread_view_entries(lt)?;
            let rv = right.web.thread_view_entries(rt)?;
            Some((lt, rt, lv, rv))
        })
        .collect()
}

/// One fresh scan per correlated thread-view pair: the batch differ's tasks.
pub(crate) fn fresh_scans<'a>(
    left: &DiffSide<'a>,
    right: &DiffSide<'a>,
    correlation: &Correlation,
) -> Vec<PairTask<'a>> {
    thread_views(left, right, correlation)
        .into_iter()
        .map(|(_, _, lv, rv)| (lv, rv, PairScan::default()))
        .collect()
}

/// Runs every pair's scan to completion — the single lock-step scan behind both the
/// batch `views_diff_sides*` entry points and [`DiffSession::finish`]. Thread pairs are
/// independent, so they fan out over [`par::map_ordered`]; each pair's pairs and cost
/// meter are merged in task order, so the result is the same whether or not the pairs
/// ran concurrently.
pub(crate) fn complete_scans(
    differ: &Differ<'_>,
    scans: Vec<PairTask<'_>>,
    meter: &mut CostMeter,
) -> Matching {
    // Each slot is locked once, by the one worker that runs its scan.
    let slots: Vec<_> = scans
        .into_iter()
        .map(|(lv, rv, scan)| (lv, rv, Mutex::new(scan)))
        .collect();
    let done = par::map_ordered(&slots, |(lv, rv, slot)| {
        let mut scan = std::mem::take(&mut *slot.lock().expect("scan slot poisoned"));
        scan.run(differ, lv, rv, true, None);
        (scan.matched, scan.meter)
    });
    let mut matched = Vec::new();
    for (pair_matched, pair_meter) in done {
        matched.extend(pair_matched);
        meter.merge(&pair_meter);
    }
    Matching::from_pairs(differ.left.len(), differ.right.len(), matched)
}

/// Per-pair incremental state: which right thread the left thread is currently paired
/// with, the suspended scan, its log, and the provisional pairs this pairing has
/// emitted (retracted wholesale if the pairing is revised).
#[derive(Debug)]
struct PairState {
    left: ThreadId,
    right: ThreadId,
    scan: PairScan,
    log: RunLog,
    /// Every logged step explores the same view pairs under the latest correlation.
    confirmed: bool,
    /// How many of `scan.matched` have been turned into events.
    reported: usize,
    /// Ledger nodes of the `Match` events this pairing emitted.
    contributed: Vec<u32>,
}

impl PairState {
    fn new(left: ThreadId, right: ThreadId) -> Self {
        PairState {
            left,
            right,
            scan: PairScan::default(),
            log: RunLog::default(),
            confirmed: true,
            reported: 0,
            contributed: Vec::new(),
        }
    }

    /// Whether every logged step explores the same view pairs, centred on the same
    /// entries, under `differ`'s correlation. `buf` is scratch.
    fn steps_hold(
        &self,
        differ: &Differ<'_>,
        lv: &[usize],
        rv: &[usize],
        buf: &mut Vec<Linked>,
    ) -> bool {
        let mut start = 0;
        self.log.steps.iter().all(|&(i, j, end)| {
            differ.linked_views(lv, rv, i, j, &mut CostMeter::new(), buf);
            let held = buf[..] == self.log.linked[start..end];
            start = end;
            held
        })
    }
}

/// Sentinel for "no node" in a [`Ledger`] list.
const NIL: u32 = u32::MAX;

/// Every pair the event stream has reported as a `Match`, kept per left entry: one
/// list of nodes per left index, threaded through one node vector. A pair is reported
/// at most once; retracting it tombstones its node, and a tombstoned pair is never
/// reported again (the monotonic invalidation rule). Lookups walk one left entry's
/// list, which rarely holds more than one node; nothing is hashed.
#[derive(Debug, Default)]
struct Ledger {
    /// Per left entry, its latest node (or [`NIL`]).
    heads: Vec<u32>,
    nodes: Vec<Reported>,
}

/// One reported pair of a [`Ledger`].
#[derive(Debug)]
struct Reported {
    left: usize,
    right: usize,
    retracted: bool,
    /// The left entry's previous node (or [`NIL`]).
    next: u32,
}

impl Ledger {
    /// Makes room for left entries `0..len`.
    fn cover(&mut self, len: usize) {
        if self.heads.len() < len {
            self.heads.resize(len, NIL);
        }
    }

    /// The nodes of one left entry, newest first.
    fn nodes_of(&self, left: usize) -> impl Iterator<Item = &Reported> {
        let head = self.heads.get(left).copied().unwrap_or(NIL);
        std::iter::successors((head != NIL).then(|| &self.nodes[head as usize]), |node| {
            (node.next != NIL).then(|| &self.nodes[node.next as usize])
        })
    }

    /// Records a `Match` of `(left, right)` unless the pair was ever reported (or
    /// retracted); returns the new node. `left` must be covered.
    fn report(&mut self, left: usize, right: usize) -> Option<u32> {
        if self.nodes_of(left).any(|node| node.right == right) {
            return None;
        }
        let at = u32::try_from(self.nodes.len()).expect("fewer than 2^32 reported pairs");
        self.nodes.push(Reported {
            left,
            right,
            retracted: false,
            next: self.heads[left],
        });
        self.heads[left] = at;
        Some(at)
    }

    /// Tombstones a reported pair; returns it.
    fn retract(&mut self, at: u32) -> (usize, usize) {
        let node = &mut self.nodes[at as usize];
        node.retracted = true;
        (node.left, node.right)
    }

    /// The events that reconcile the stream with `verdict` (sorted, deduplicated
    /// pairs): `Match` for every verdict pair never reported, then `Invalidate` for
    /// every reported, unretracted pair the verdict lacks, each group ascending. One
    /// pass over the left entries, each entry's verdict row beside its nodes.
    fn reconcile(&self, verdict: &[(usize, usize)]) -> Vec<ProvisionalEvent> {
        let mut events = Vec::new();
        let mut dropped = Vec::new();
        let mut rest = verdict;
        let rows = self.heads.len().max(verdict.last().map_or(0, |p| p.0 + 1));
        for left in 0..rows {
            let (row, tail) = rest.split_at(rest.iter().take_while(|p| p.0 == left).count());
            rest = tail;
            for &(left, right) in row {
                if !self.nodes_of(left).any(|node| node.right == right) {
                    events.push(ProvisionalEvent::Match { left, right });
                }
            }
            let first = dropped.len();
            dropped.extend(
                self.nodes_of(left)
                    .filter(|node| !node.retracted && !row.iter().any(|p| p.1 == node.right))
                    .map(|node| (left, node.right)),
            );
            dropped[first..].sort_unstable();
        }
        events.extend(
            dropped
                .into_iter()
                .map(|(left, right)| ProvisionalEvent::Invalidate { left, right }),
        );
        events
    }
}

/// Whether two correlations over the same left web give every verdict alike: the same
/// thread pairing and the same correlated right view for every left object view.
fn same_verdicts(a: &Correlation, b: &Correlation, left: &ViewWeb) -> bool {
    a.threads == b.threads
        && (0..left.total_views() as u32)
            .all(|id| a.object_target(ViewId(id)) == b.object_target(ViewId(id)))
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
    /// The new side's key ids in the old side's id space, extended by every push.
    translation: Vec<u32>,
    /// The correlation of the latest push (`None` before the first push), and the new
    /// side's [`ViewWeb::correlation_generation`] it was built at.
    correlation: Option<(Correlation, u64)>,
    /// How many correlations this session built.
    builds: usize,
    /// One state per correlated thread-view pair, in `thread_pairs()` order.
    pairs: Vec<PairState>,
    /// Every pair reported as a `Match`, and which of those were retracted.
    ledger: Ledger,
    /// Difference regions already reported, keyed by their boundary.
    seen_differences: BTreeSet<(usize, usize, usize, usize)>,
}

impl DiffSession {
    /// Starts a session for a new trace identified by `meta`, diffed under `options`.
    pub fn new(meta: TraceMeta, options: ViewsDiffOptions) -> Self {
        DiffSession {
            options,
            artifacts: SideArtifacts::new(meta),
            translation: Vec::new(),
            correlation: None,
            builds: 0,
            pairs: Vec::new(),
            ledger: Ledger::default(),
            seen_differences: BTreeSet::new(),
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

    /// One incremental pass: translate the new keys, re-derive the (provisional)
    /// correlation over the webs as they stand, retract pairs whose thread pairing was
    /// revised, re-check the logged steps if any verdict changed, and advance every
    /// pair's suspended scan as far as the data allows.
    fn provisional_scan(&mut self, left: &DiffSide<'_>) -> Vec<ProvisionalEvent> {
        let right = self.artifacts.side();
        left.keyed()
            .translate_into(right.keyed(), &mut self.translation);
        // A correlation reads only what moves the right web's generation (the left web
        // is fixed), so while it stands still the previous build is what a fresh one
        // would give, and no verdict changed.
        let generation = right.web().correlation_generation();
        let changed = match &self.correlation {
            Some((_, built_at)) if *built_at == generation => false,
            previous => {
                // Re-correlation runs on many pushes: too frequent to be worth a thread.
                let correlation = par::inline(|| Correlation::build(left.web(), right.web()));
                self.builds += 1;
                let changed = previous.as_ref().is_some_and(|(previous, _)| {
                    !same_verdicts(previous, &correlation, left.web())
                });
                self.correlation = Some((correlation, generation));
                changed
            }
        };
        let (correlation, _) = self.correlation.as_ref().expect("built above");
        let current = thread_views(left, &right, correlation);
        let mut events = Vec::new();
        self.ledger.cover(left.len());

        // Retract state for revised or vanished thread pairings.
        let mut kept = Vec::with_capacity(self.pairs.len());
        for state in std::mem::take(&mut self.pairs) {
            let paired = current
                .binary_search_by_key(&state.left, |pair| pair.0)
                .is_ok_and(|k| current[k].1 == state.right);
            if paired {
                kept.push(state);
                continue;
            }
            for &at in &state.contributed {
                let (left, right) = self.ledger.retract(at);
                events.push(ProvisionalEvent::Invalidate { left, right });
            }
        }

        // Advance every correlated pair, in `thread_pairs()` order.
        let differ = Differ {
            left: *left,
            right,
            translation: &self.translation,
            correlation,
            options: &self.options,
        };
        let mut kept = kept.into_iter().peekable();
        let mut buf = Vec::new();
        for (lt, rt, lv, rv) in current {
            let mut state = match kept.next_if(|state| state.left == lt) {
                Some(mut state) => {
                    if changed && state.confirmed {
                        state.confirmed = state.steps_hold(&differ, lv, rv, &mut buf);
                    }
                    state
                }
                None => PairState::new(lt, rt),
            };
            state.scan.run(&differ, lv, rv, false, Some(&mut state.log));
            let fresh = &state.scan.matched[state.reported..];
            events.reserve(fresh.len());
            for &(l, r) in fresh {
                if let Some(at) = self.ledger.report(l, r) {
                    state.contributed.push(at);
                    events.push(ProvisionalEvent::Match { left: l, right: r });
                }
            }
            state.reported = state.scan.matched.len();
            for (i, a, j, b) in state.log.skips.drain(..) {
                let (lskip, rskip) = (&lv[i..i + a], &rv[j..j + b]);
                let key = (
                    lskip.first().copied().unwrap_or(usize::MAX),
                    a,
                    rskip.first().copied().unwrap_or(usize::MAX),
                    b,
                );
                if self.seen_differences.insert(key) {
                    events.push(ProvisionalEvent::Difference {
                        left: lskip.to_vec(),
                        right: rskip.to_vec(),
                    });
                }
            }
            self.pairs.push(state);
        }
        events
    }

    /// Declares the new trace complete: resumes every confirmed pair from its suspended
    /// cursors, re-scans the others from the start, and runs all of them to completion
    /// under the final correlation. The result is identical to the batch differ over
    /// the same sides; the events reconcile the provisional stream with it (respecting
    /// the tombstones — see the module docs).
    pub fn finish(self, left: &DiffSide<'_>) -> SessionFinish {
        let start = Instant::now();
        let right = self.artifacts.side();
        // The latest push translated every key and correlated these same webs.
        let correlation = self.correlation.map_or_else(
            || Correlation::build(left.web(), right.web()),
            |(correlation, _)| correlation,
        );
        let mut states = self.pairs.into_iter().peekable();
        let scans: Vec<PairTask<'_>> = thread_views(left, &right, &correlation)
            .into_iter()
            .map(|(lt, rt, lv, rv)| {
                let resumed = states
                    .next_if(|state| state.left == lt)
                    .filter(|state| state.confirmed && state.right == rt);
                (lv, rv, resumed.map(|state| state.scan).unwrap_or_default())
            })
            .collect();
        let result = views_diff_sides_from(
            start,
            left,
            &right,
            &self.translation,
            &correlation,
            &self.options,
            scans,
        );

        let events = self.ledger.reconcile(result.matching.normalized_pairs());
        SessionFinish {
            result,
            events,
            artifacts: self.artifacts,
        }
    }
}

/// Suspends and resumes a *batch* diff: drives the same machine as
/// [`complete_scans`] but with an explicit entry budget per call — the "very large batch
/// diff" form of resumability, exercised by the session unit tests below.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::views_diff::views_diff_sides_correlated;
    use rprism_lang::parser::parse_program;
    use rprism_trace::{KeyedTrace, LeanTrace, Trace};
    use rprism_views::ViewWeb;
    use rprism_vm::{run_traced, VmConfig};
    use std::collections::HashSet;

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
    fn a_kept_correlation_equals_a_fresh_build_at_every_push() {
        use rprism_trace::testgen::{fuzz_seed, mutated, GenProfile, Rng};
        let seed = fuzz_seed();
        let mut rng = Rng::new(seed ^ 0xc0_1e1a);
        let mut pairs = vec![(trace_of(OLD, "old"), trace_of(&new_src(), "new"))];
        for &profile in GenProfile::ALL {
            let original = profile.generate(&mut rng, 400);
            let copy = mutated(&mut rng, &original);
            pairs.push((original, copy));
        }
        for (old, new) in &pairs {
            let (lean, keyed, web) = prepared(old);
            let left = DiffSide::lean(&lean, &keyed, &web);
            for chunk in [1, 3, 7, 64] {
                let context = format!("{} (seed {seed}), chunk {chunk}", new.meta.name);
                let mut session = DiffSession::new(new.meta.clone(), ViewsDiffOptions::default());
                // The builds a push must make: one whenever the new web's generation
                // moved, that is, the push created a thread or object view or recorded
                // an ancestry.
                let (mut grown, mut index, mut generation) = (ViewWeb::empty(), 0, None);
                let mut builds = 0;
                for (push, batch) in new.entries.chunks(chunk).enumerate() {
                    session.push_batch(&left, &EntryBatch::of(batch));
                    let (kept, _) = session.correlation.as_ref().unwrap();
                    let fresh = Correlation::build(&web, session.artifacts.side().web());
                    assert_eq!(*kept, fresh, "{context}, push {push}");
                    EntryBatch::visit(batch, |entry| {
                        grown.extend(index, entry);
                        index += 1;
                    });
                    if generation != Some(grown.correlation_generation()) {
                        generation = Some(grown.correlation_generation());
                        builds += 1;
                    }
                }
                assert_eq!(session.builds, builds, "{context}");
            }
        }
        // Most pushes of a well-formed stream create no view.
        let well_formed = GenProfile::ALL
            .iter()
            .position(|&p| p == GenProfile::WellFormed);
        let (old, new) = &pairs[1 + well_formed.unwrap()];
        let (lean, keyed, web) = prepared(old);
        let left = DiffSide::lean(&lean, &keyed, &web);
        let mut session = DiffSession::new(new.meta.clone(), ViewsDiffOptions::default());
        let pushes = new.entries.chunks(7).len();
        for batch in new.entries.chunks(7) {
            session.push_batch(&left, &EntryBatch::of(batch));
        }
        assert!(
            session.builds * 2 < pushes,
            "{} builds over {pushes} pushes",
            session.builds
        );
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
