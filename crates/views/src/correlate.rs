//! View correlation functions `X_τ` (paper §3.1, Fig. 9).
//!
//! A correlation function decides whether a view in the *left* execution semantically
//! corresponds to a view in the *right* execution. One function is defined per view type:
//!
//! * **Threads** (`X_TH`) — all possible thread pairings are considered and each left
//!   thread is matched with the right thread whose spawn ancestry (spawn-point call stack
//!   of the thread and of its ancestors) is the closest match.
//! * **Methods** (`X_CM`) — two method views correlate when their fully qualified
//!   signatures are equal.
//! * **Target / active objects** (`X_TO`, `X_AO`) — two object views correlate when their
//!   objects' value representations are equal, or their class-specific creation sequence
//!   numbers are equal (see [`ObjRep::correlates_with`](rprism_trace::ObjRep::correlates_with)).
//!
//! The correlation is materialized *dense*: object-view correspondences are stored as a
//! `Vec<u32>` indexed by left [`ViewId`], so the per-entry correlation test on the diff
//! hot path is two membership lookups plus one array read — no hashing, no `ViewName`
//! clones. Thread and object-view correlation run concurrently ([`Correlation::build`]
//! is a [`par::join`] of the two).
//!
//! Because correlations relate abstractions across *different executions* using only view
//! structure, they are heuristics (§3.1); [`relaxed`] additionally provides the
//! context-sensitive relaxation described in §5, which correlates views whose entries sit
//! at the same distance from a pair of already-correlated anchor points — the mechanism
//! that makes the analysis tolerant to method/class rename refactorings.

use std::collections::HashMap;

use rprism_trace::par;
use rprism_trace::stack::ancestry_similarity;
use rprism_trace::ThreadId;

use crate::view::{ViewKind, ViewName};
use crate::web::{ViewId, ViewWeb};

const NO_MATCH: u32 = u32::MAX;

/// A complete correlation between the views of two webs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Correlation {
    /// Left thread → right thread.
    pub threads: HashMap<ThreadId, ThreadId>,
    /// Dense left-view-id → right-view-id map for object views (both kinds share the
    /// id space of the left web). `u32::MAX` marks "no correlated right view".
    objects: Vec<u32>,
}

impl Correlation {
    /// Builds the full correlation between two webs. Thread correlation and the two
    /// object-view correlations are independent, so they run as a [`par::join`].
    pub fn build(left: &ViewWeb, right: &ViewWeb) -> Self {
        let (threads, (to_pairs, ao_pairs)) = par::join(
            || correlate_threads(left, right),
            || {
                (
                    correlate_objects_ids(left, right, ViewKind::TargetObject),
                    correlate_objects_ids(left, right, ViewKind::ActiveObject),
                )
            },
        );

        let mut objects = vec![NO_MATCH; left.total_views()];
        for (l, r) in to_pairs.into_iter().chain(ao_pairs) {
            objects[l.index()] = r.0;
        }
        Correlation { threads, objects }
    }

    /// The correlated right view of a left object view, if any.
    pub fn object_target(&self, left: ViewId) -> Option<ViewId> {
        match self.objects.get(left.index()) {
            Some(&raw) if raw != NO_MATCH => Some(ViewId(raw)),
            _ => None,
        }
    }

    /// Whether the dense map records *any* verdict for this left view (present views with
    /// no correlated partner still fall back to the direct object heuristic).
    fn has_object_entry(&self, left: ViewId) -> bool {
        self.objects
            .get(left.index())
            .is_some_and(|&raw| raw != NO_MATCH)
    }

    /// The pre-built object-correlation verdict for a left/right view pair:
    /// `Some(true|false)` when the left view appears in the dense map, `None` when it
    /// does not (callers fall back to the direct object heuristic on the entries'
    /// correlation identities, as the views scan's `correlate_at` does).
    pub fn object_verdict(&self, left: ViewId, right: ViewId) -> Option<bool> {
        self.has_object_entry(left)
            .then(|| self.object_target(left) == Some(right))
    }

    /// The same correlation viewed from the other side: thread pairs inverted and the
    /// dense object map transposed. `flipped_left_total_views` is the total view count
    /// of the web that becomes the *left* side after flipping (the original right web).
    ///
    /// Correlation construction is a heuristic over the two webs and is not guaranteed
    /// to be orientation-invariant; a flipped correlation is the exact transpose of the
    /// original build, which is what the session cache shares across both diff
    /// directions of one trace pair.
    pub fn flipped(&self, flipped_left_total_views: usize) -> Correlation {
        let threads = self.threads.iter().map(|(l, r)| (*r, *l)).collect();
        let mut objects = vec![NO_MATCH; flipped_left_total_views];
        for (left, &right) in self.objects.iter().enumerate() {
            if right != NO_MATCH {
                objects[right as usize] = left as u32;
            }
        }
        Correlation { threads, objects }
    }

    /// The correlated pairs of thread views, left thread first, main thread pair first.
    pub fn thread_pairs(&self) -> Vec<(ThreadId, ThreadId)> {
        let mut pairs: Vec<(ThreadId, ThreadId)> =
            self.threads.iter().map(|(l, r)| (*l, *r)).collect();
        pairs.sort();
        pairs
    }
}

/// `X_TH`: greedy best-match assignment of left threads to right threads by spawn-ancestry
/// similarity. The main threads always correlate with each other.
pub fn correlate_threads(left: &ViewWeb, right: &ViewWeb) -> HashMap<ThreadId, ThreadId> {
    let left_threads: Vec<ThreadId> = left
        .views_of_kind(ViewKind::Thread)
        .iter()
        .filter_map(|v| match v.name {
            ViewName::Thread(tid) => Some(tid),
            _ => None,
        })
        .collect();
    let right_threads: Vec<ThreadId> = right
        .views_of_kind(ViewKind::Thread)
        .iter()
        .filter_map(|v| match v.name {
            ViewName::Thread(tid) => Some(tid),
            _ => None,
        })
        .collect();

    let mut result = HashMap::new();
    let mut taken: Vec<ThreadId> = Vec::new();

    // Main ↔ main.
    if left_threads.contains(&ThreadId::MAIN) && right_threads.contains(&ThreadId::MAIN) {
        result.insert(ThreadId::MAIN, ThreadId::MAIN);
        taken.push(ThreadId::MAIN);
    }

    // Score every remaining pair and assign greedily, highest similarity first.
    let mut scored: Vec<(f64, ThreadId, ThreadId)> = Vec::new();
    for l in left_threads.iter().filter(|t| **t != ThreadId::MAIN) {
        let l_anc = left.thread_ancestry(*l).unwrap_or(&[]);
        for r in right_threads.iter().filter(|t| **t != ThreadId::MAIN) {
            let r_anc = right.thread_ancestry(*r).unwrap_or(&[]);
            scored.push((ancestry_similarity(l_anc, r_anc), *l, *r));
        }
    }
    scored.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    for (_, l, r) in scored {
        if result.contains_key(&l) || taken.contains(&r) {
            continue;
        }
        result.insert(l, r);
        taken.push(r);
    }
    result
}

/// `X_TO` / `X_AO`: pairs of object views whose representative objects correlate (equal
/// value representations or equal class-specific creation sequence numbers). Each right
/// view is matched at most once. Returns dense id pairs.
pub fn correlate_objects_ids(
    left: &ViewWeb,
    right: &ViewWeb,
    kind: ViewKind,
) -> Vec<(ViewId, ViewId)> {
    let right_views = right.views_of_kind_with_ids(kind);
    let mut taken = vec![false; right_views.len()];
    let mut result = Vec::new();

    for (lid, lview) in left.views_of_kind_with_ids(kind) {
        let Some(lrep) = lview.representative else {
            continue;
        };
        // Prefer a value-representation match; fall back to creation-sequence match.
        let mut chosen: Option<usize> = None;
        for (i, (_, rview)) in right_views.iter().enumerate() {
            if taken[i] {
                continue;
            }
            let Some(rrep) = rview.representative else {
                continue;
            };
            if lrep.class == rrep.class
                && lrep.fingerprint.is_meaningful()
                && lrep.fingerprint == rrep.fingerprint
            {
                chosen = Some(i);
                break;
            }
            if chosen.is_none() && lrep.correlates_with(&rrep) {
                chosen = Some(i);
            }
        }
        if let Some(i) = chosen {
            taken[i] = true;
            result.push((lid, right_views[i].0));
        }
    }
    result
}

/// Name-keyed variant of [`correlate_objects_ids`], kept for reports and tests.
pub fn correlate_objects(
    left: &ViewWeb,
    right: &ViewWeb,
    kind: ViewKind,
) -> HashMap<ViewName, ViewName> {
    correlate_objects_ids(left, right, kind)
        .into_iter()
        .map(|(l, r)| {
            (
                left.view_by_id(l).name.clone(),
                right.view_by_id(r).name.clone(),
            )
        })
        .collect()
}

/// The context-sensitive correlation relaxation of §5.
pub mod relaxed {
    /// Decides whether two views should be correlated *contextually*: their entries lie at
    /// the same distance (number of trace entries) from a pair of positions that are
    /// already known to correspond. The paper uses this to tolerate refactorings such as
    /// method renames, where name-based method correlation fails but the surrounding
    /// anchor structure still matches.
    ///
    /// `left_anchor` / `right_anchor` are base-trace indices of a known-correlated pair
    /// (an element of the similarity set); `left_index` / `right_index` are the candidate
    /// entries whose views are being considered.
    pub fn same_distance_from_anchor(
        left_anchor: usize,
        right_anchor: usize,
        left_index: usize,
        right_index: usize,
        tolerance: usize,
    ) -> bool {
        let ld = left_index as i64 - left_anchor as i64;
        let rd = right_index as i64 - right_anchor as i64;
        (ld - rd).unsigned_abs() as usize <= tolerance && ld.signum() == rd.signum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_lang::parser::parse_program;
    use rprism_trace::{Trace, TraceMeta};
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

    /// The correlated object-view pairs of one kind, as display names.
    fn object_pairs(
        corr: &Correlation,
        left: &ViewWeb,
        right: &ViewWeb,
        kind: ViewKind,
    ) -> Vec<(ViewName, ViewName)> {
        left.views_with_ids()
            .filter(|(_, view)| view.key.kind() == kind)
            .filter_map(|(id, view)| {
                let rid = corr.object_target(id)?;
                Some((view.name.clone(), right.view_by_id(rid).name.clone()))
            })
            .collect()
    }

    const LEFT: &str = r#"
        class Range extends Object { Int min; Int max; }
        class SP extends Object {
            Range r;
            Unit set(Int lo) { this.r = new Range(lo, 127); }
        }
        main {
            let sp = new SP(null);
            sp.set(32);
            spawn { sp.set(32); }
        }
    "#;

    // Same program modulo a changed constant (the "new version").
    const RIGHT: &str = r#"
        class Range extends Object { Int min; Int max; }
        class SP extends Object {
            Range r;
            Unit set(Int lo) { this.r = new Range(lo, 127); }
        }
        main {
            let sp = new SP(null);
            sp.set(1);
            spawn { sp.set(1); }
        }
    "#;

    #[test]
    fn main_threads_always_correlate() {
        let (lt, rt) = (trace_of(LEFT, "L"), trace_of(RIGHT, "R"));
        let (lw, rw) = (ViewWeb::build(&lt), ViewWeb::build(&rt));
        let corr = Correlation::build(&lw, &rw);
        assert_eq!(corr.threads.get(&ThreadId::MAIN), Some(&ThreadId::MAIN));
        // The single spawned thread on each side correlates too.
        assert_eq!(corr.threads.len(), 2);
    }

    #[test]
    fn object_views_correlate_by_creation_sequence_despite_value_change() {
        let (lt, rt) = (trace_of(LEFT, "L"), trace_of(RIGHT, "R"));
        let (lw, rw) = (ViewWeb::build(&lt), ViewWeb::build(&rt));
        let corr = Correlation::build(&lw, &rw);
        let pairs = object_pairs(&corr, &lw, &rw, ViewKind::TargetObject);
        assert!(!pairs.is_empty());
        for (l, r) in &pairs {
            let lrep = lw.view(l).unwrap().representative.unwrap();
            let rrep = rw.view(r).unwrap().representative.unwrap();
            assert_eq!(
                lrep.class, rrep.class,
                "correlated views must agree on class"
            );
        }
    }

    #[test]
    fn identical_traces_correlate_objects_one_to_one() {
        let lt = trace_of(LEFT, "L1");
        let rt = trace_of(LEFT, "L2");
        let (lw, rw) = (ViewWeb::build(&lt), ViewWeb::build(&rt));
        let corr = Correlation::build(&lw, &rw);
        let pairs = object_pairs(&corr, &lw, &rw, ViewKind::TargetObject);
        assert_eq!(pairs.len(), lw.views_of_kind(ViewKind::TargetObject).len());
        // Right-side views are matched at most once.
        let mut rights: Vec<&ViewName> = pairs.iter().map(|(_, r)| r).collect();
        rights.sort();
        rights.dedup();
        assert_eq!(rights.len(), pairs.len());
    }

    #[test]
    fn dense_map_agrees_with_name_keyed_map() {
        let (lt, rt) = (trace_of(LEFT, "L"), trace_of(RIGHT, "R"));
        let (lw, rw) = (ViewWeb::build(&lt), ViewWeb::build(&rt));
        let corr = Correlation::build(&lw, &rw);
        for kind in [ViewKind::TargetObject, ViewKind::ActiveObject] {
            let by_name = correlate_objects(&lw, &rw, kind);
            let by_id: HashMap<ViewName, ViewName> =
                object_pairs(&corr, &lw, &rw, kind).into_iter().collect();
            assert_eq!(by_name, by_id);
        }
    }

    #[test]
    fn relaxed_correlation_matches_same_offsets() {
        use relaxed::same_distance_from_anchor;
        assert!(same_distance_from_anchor(10, 20, 13, 23, 0));
        assert!(same_distance_from_anchor(10, 20, 13, 24, 1));
        assert!(!same_distance_from_anchor(10, 20, 13, 25, 1));
        // Opposite directions from the anchors never correlate.
        assert!(!same_distance_from_anchor(10, 20, 13, 17, 5));
    }

    #[test]
    fn thread_pairs_are_sorted_and_stable() {
        let (lt, rt) = (trace_of(LEFT, "L"), trace_of(RIGHT, "R"));
        let corr = Correlation::build(&ViewWeb::build(&lt), &ViewWeb::build(&rt));
        let pairs = corr.thread_pairs();
        assert_eq!(pairs.first(), Some(&(ThreadId::MAIN, ThreadId::MAIN)));
        let mut sorted = pairs.clone();
        sorted.sort();
        assert_eq!(pairs, sorted);
    }

    #[test]
    fn concurrent_and_inline_builds_agree() {
        let (lw, rw) = (
            ViewWeb::build(&trace_of(LEFT, "L")),
            ViewWeb::build(&trace_of(RIGHT, "R")),
        );
        let concurrent = par::with_workers(4, || Correlation::build(&lw, &rw));
        let inline = par::inline(|| Correlation::build(&lw, &rw));
        assert_eq!(concurrent.threads, inline.threads);
        assert_eq!(concurrent.objects, inline.objects);
    }
}
