//! The *view web*: every view of a trace, linked back to the base trace.
//!
//! The paper models a program execution as "a complex web of interconnected views"
//! (§2.4): each trace entry is a member of one view per applicable view type, and the
//! entry's base-trace index is the link that lets an analysis navigate from any position
//! in any view to all semantically related views. [`ViewWeb`] materializes that web for
//! one trace.
//!
//! Views are stored densely and identified by [`ViewId`] — a `u32` index into the web's
//! view table. Per-entry memberships are a fixed four-slot array of view ids (one per
//! [`ViewKind`]), so navigating from a base-trace position into the web is two array
//! indexings with no hashing and no `ViewName` clones. The name-keyed index is retained
//! only as a lookup front door ([`ViewWeb::view`]); every hot path works on ids.

use rprism_trace::{EntryBatch, EntryRef, IntMap, ObjIdent, StackSnapshot, ThreadId, Trace};

use crate::view::{View, ViewKey, ViewKind, ViewName};

/// A dense identifier of one view within one [`ViewWeb`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewId(pub u32);

impl ViewId {
    /// The raw index into the web's view table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The (up to four) views one entry belongs to, one slot per [`ViewKind`], in
/// [`ViewKind::ALL`] order. `u32::MAX` marks an absent view (e.g. thread events have no
/// object views).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryViews {
    ids: [u32; 4],
}

const NO_VIEW: u32 = u32::MAX;

impl EntryViews {
    fn empty() -> Self {
        EntryViews { ids: [NO_VIEW; 4] }
    }

    fn set(&mut self, kind: ViewKind, id: ViewId) {
        self.ids[kind as usize] = id.0;
    }

    /// The entry's view of the given kind, if any.
    pub fn get(self, kind: ViewKind) -> Option<ViewId> {
        let raw = self.ids[kind as usize];
        (raw != NO_VIEW).then_some(ViewId(raw))
    }

    /// Iterates over the present view ids in [`ViewKind::ALL`] order.
    pub fn iter(self) -> impl Iterator<Item = ViewId> {
        self.ids
            .into_iter()
            .filter(|&raw| raw != NO_VIEW)
            .map(ViewId)
    }
}

/// All views of one trace, plus the reverse index from entries to their views.
#[derive(Clone, Debug)]
pub struct ViewWeb {
    views: Vec<View>,
    index: IntMap<ViewKey, ViewId>,
    /// For each base-trace index, the ids of the views that entry belongs to.
    memberships: Vec<EntryViews>,
    /// For each thread, the spawn ancestry recorded by its `fork` event (empty for the
    /// main thread); used by thread-view correlation.
    thread_ancestry: IntMap<ThreadId, Vec<StackSnapshot>>,
    /// How many times the web changed in a way a [`Correlation`](crate::Correlation)
    /// reads; see [`ViewWeb::correlation_generation`].
    generation: u64,
}

impl ViewWeb {
    /// An empty web ready for incremental [`ViewWeb::extend`] calls (streaming
    /// ingestion). [`ViewWeb::build`] is `empty` + one `extend` per entry.
    pub fn empty() -> Self {
        let mut web = ViewWeb {
            views: Vec::new(),
            index: IntMap::default(),
            memberships: Vec::new(),
            thread_ancestry: IntMap::default(),
            generation: 0,
        };
        web.thread_ancestry.insert(ThreadId::MAIN, Vec::new());
        web
    }

    /// Builds the full view web of a trace in a single pass (through the
    /// [`EntryBatch`] adapter).
    pub fn build(trace: &Trace) -> Self {
        let mut web = ViewWeb::empty();
        web.memberships.reserve(trace.len());
        let mut index = 0;
        EntryBatch::visit(&trace.entries, |entry| {
            web.extend(index, entry);
            index += 1;
        });
        web
    }

    /// Incrementally extends the web with one entry. Entries must arrive in trace order
    /// (`index` equal to the number of entries already added); a web extended entry by
    /// entry is identical to one built by [`ViewWeb::build`] over the whole trace, which
    /// is what lets streaming ingestion fold web construction into the read loop.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of order.
    pub fn extend(&mut self, index: usize, entry: EntryRef<'_>) {
        assert_eq!(
            index,
            self.memberships.len(),
            "view web must be extended in trace order"
        );
        if let Some(child) = entry.child {
            self.thread_ancestry.insert(child, entry.parentage.to_vec());
            self.generation += 1;
        }
        let mut membership = EntryViews::empty();
        for kind in ViewKind::ALL {
            let Some(key) = ViewKey::of_entry(kind, entry) else {
                continue;
            };
            let id = self.view_id_or_insert(key, entry);
            self.views[id.index()].entries.push(index);
            membership.set(kind, id);
        }
        self.memberships.push(membership);
    }

    fn view_id_or_insert(&mut self, key: ViewKey, entry: EntryRef<'_>) -> ViewId {
        if let Some(&id) = self.index.get(&key) {
            return id;
        }
        let id = ViewId(u32::try_from(self.views.len()).expect("view table overflow"));
        self.views.push(View {
            name: key.to_name(),
            key,
            entries: Vec::new(),
            representative: representative_for(key.kind(), entry),
        });
        self.index.insert(key, id);
        if key.kind() != ViewKind::Method {
            self.generation += 1;
        }
        id
    }

    /// The view with the given id.
    pub fn view_by_id(&self, id: ViewId) -> &View {
        &self.views[id.index()]
    }

    /// The id of the view with the given compact key, if it exists.
    pub fn id_of_key(&self, key: ViewKey) -> Option<ViewId> {
        self.index.get(&key).copied()
    }

    /// The view with the given name, if it exists.
    pub fn view(&self, name: &ViewName) -> Option<&View> {
        self.id_of_key(ViewKey::of_name(name))
            .map(|id| self.view_by_id(id))
    }

    /// Iterates over all views in id order.
    pub fn views(&self) -> impl Iterator<Item = &View> {
        self.views.iter()
    }

    /// Iterates over `(id, view)` pairs in id order.
    pub fn views_with_ids(&self) -> impl Iterator<Item = (ViewId, &View)> {
        self.views
            .iter()
            .enumerate()
            .map(|(i, v)| (ViewId(i as u32), v))
    }

    /// All views of a given kind, sorted by name.
    pub fn views_of_kind(&self, kind: ViewKind) -> Vec<&View> {
        let mut v: Vec<&View> = self
            .views
            .iter()
            .filter(|view| view.key.kind() == kind)
            .collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// All `(id, view)` pairs of a given kind, sorted by name.
    pub fn views_of_kind_with_ids(&self, kind: ViewKind) -> Vec<(ViewId, &View)> {
        let mut v: Vec<(ViewId, &View)> = self
            .views_with_ids()
            .filter(|(_, view)| view.key.kind() == kind)
            .collect();
        v.sort_by(|a, b| a.1.name.cmp(&b.1.name));
        v
    }

    /// The views the entry at `trace_index` belongs to — the outgoing links from a
    /// base-trace position into the web. Out-of-range indices have no views.
    pub fn views_of_entry(&self, trace_index: usize) -> EntryViews {
        self.memberships
            .get(trace_index)
            .copied()
            .unwrap_or_else(EntryViews::empty)
    }

    /// The entry's view of one specific kind — a pair of array indexings, no hashing.
    #[inline]
    pub fn entry_view(&self, trace_index: usize, kind: ViewKind) -> Option<ViewId> {
        self.memberships.get(trace_index)?.get(kind)
    }

    /// Navigates from a base-trace position to its position inside one of its views.
    pub fn position_in_view(&self, name: &ViewName, trace_index: usize) -> Option<usize> {
        self.view(name)?.position_of(trace_index)
    }

    /// The member entry indices of the thread view of `tid`, if that thread appears in
    /// the trace.
    pub fn thread_view_entries(&self, tid: ThreadId) -> Option<&[usize]> {
        let id = self.id_of_key(ViewKey::Thread(tid))?;
        Some(&self.view_by_id(id).entries)
    }

    /// The spawn ancestry of a thread (empty for the main thread, `None` for unknown
    /// threads).
    pub fn thread_ancestry(&self, tid: ThreadId) -> Option<&[StackSnapshot]> {
        self.thread_ancestry.get(&tid).map(Vec::as_slice)
    }

    /// A counter of the changes that can move a [`Correlation`](crate::Correlation)
    /// built over this web: a new thread or object view, or a recorded spawn ancestry.
    /// Correlation reads nothing else (a view's representative is fixed when the view is
    /// made, and method views are matched by signature during the scan), so while the
    /// counter stands still, a correlation built over this web against one fixed other
    /// web stays what a fresh build would give.
    pub fn correlation_generation(&self) -> u64 {
        self.generation
    }

    /// Total number of views.
    pub fn total_views(&self) -> usize {
        self.views.len()
    }

    /// Number of views of each kind, in [`ViewKind::ALL`] order — the quantities reported
    /// in the paper's Table 2.
    pub fn count_by_kind(&self) -> ViewCounts {
        let mut counts = ViewCounts::default();
        for view in &self.views {
            match view.key.kind() {
                ViewKind::Thread => counts.thread += 1,
                ViewKind::Method => counts.method += 1,
                ViewKind::TargetObject => counts.target_object += 1,
                ViewKind::ActiveObject => counts.active_object += 1,
            }
        }
        counts
    }
}

fn representative_for(kind: ViewKind, entry: EntryRef<'_>) -> Option<ObjIdent> {
    match kind {
        ViewKind::TargetObject => entry.target.map(|target| target.ident),
        ViewKind::ActiveObject => Some(entry.active.ident),
        _ => None,
    }
}

/// Per-kind view counts (paper Table 2: "Number of Views").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewCounts {
    /// Number of thread views.
    pub thread: usize,
    /// Number of method views.
    pub method: usize,
    /// Number of target-object views.
    pub target_object: usize,
    /// Number of active-object views.
    pub active_object: usize,
}

impl ViewCounts {
    /// Total number of views across all kinds.
    pub fn total(&self) -> usize {
        self.thread + self.method + self.target_object + self.active_object
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_lang::parser::parse_program;
    use rprism_trace::TraceMeta;
    use rprism_vm::{run_traced, VmConfig};

    fn trace_of(src: &str) -> Trace {
        let program = parse_program(src).unwrap();
        run_traced(&program, TraceMeta::new("t", "v", "c"), VmConfig::default())
            .unwrap()
            .trace
    }

    const SAMPLE: &str = r#"
        class Logger extends Object {
            Int count;
            Unit addMsg(Str msg) { this.count = this.count + 1; }
        }
        class SP extends Object {
            Logger log;
            Unit setRequestType(Str ty) {
                this.log.addMsg("set");
                this.log.addMsg("done");
            }
        }
        main {
            let log = new Logger(0);
            let sp = new SP(log);
            sp.setRequestType("text/html");
        }
    "#;

    #[test]
    fn web_partitions_entries_into_thread_views() {
        let trace = trace_of(SAMPLE);
        let web = ViewWeb::build(&trace);
        let thread_views = web.views_of_kind(ViewKind::Thread);
        assert_eq!(thread_views.len(), 1);
        // Single-threaded: the thread view is identical to the full trace (paper Fig. 2).
        assert_eq!(thread_views[0].entries.len(), trace.len());
    }

    #[test]
    fn method_views_capture_top_of_stack_events() {
        let trace = trace_of(SAMPLE);
        let web = ViewWeb::build(&trace);
        let set_req = web
            .views_of_kind(ViewKind::Method)
            .into_iter()
            .find(|v| matches!(&v.name, ViewName::Method { method, .. } if method == "setRequestType"))
            .expect("setRequestType method view exists");
        // Its entries are the two addMsg calls and their returns (recorded in the caller's
        // context, i.e. while setRequestType is on top of the stack).
        for idx in &set_req.entries {
            assert_eq!(trace[*idx].method.as_str(), "setRequestType");
        }
        assert!(set_req.len() >= 4);
    }

    #[test]
    fn target_object_views_collect_events_on_that_object() {
        let trace = trace_of(SAMPLE);
        let web = ViewWeb::build(&trace);
        let logger_view = web
            .views_of_kind(ViewKind::TargetObject)
            .into_iter()
            .find(|v| v.representative.map(|r| r.class.as_str()) == Some("Logger"))
            .expect("Logger target object view");
        for idx in &logger_view.entries {
            assert_eq!(trace[*idx].event.target_object().unwrap().class, "Logger");
        }
        // init + 2 × (call + get + set + return)  — at least 7.
        assert!(logger_view.len() >= 7, "got {}", logger_view.len());
    }

    #[test]
    fn membership_links_are_navigable_in_both_directions() {
        let trace = trace_of(SAMPLE);
        let web = ViewWeb::build(&trace);
        for idx in 0..trace.len() {
            for id in web.views_of_entry(idx).iter() {
                let view = web.view_by_id(id);
                let pos = view
                    .position_of(idx)
                    .expect("entry must be present in its view");
                assert_eq!(view.entries[pos], idx);
                // Name-keyed navigation agrees with id-keyed navigation.
                assert_eq!(web.position_in_view(&view.name, idx), Some(pos));
            }
        }
    }

    #[test]
    fn entry_view_agrees_with_memberships() {
        let trace = trace_of(SAMPLE);
        let web = ViewWeb::build(&trace);
        for idx in 0..trace.len() {
            for kind in ViewKind::ALL {
                assert_eq!(web.entry_view(idx, kind), web.views_of_entry(idx).get(kind));
            }
            // Every entry has a thread view and a method view.
            assert!(web.entry_view(idx, ViewKind::Thread).is_some());
            assert!(web.entry_view(idx, ViewKind::Method).is_some());
        }
    }

    #[test]
    fn counts_match_kind_partition() {
        let trace = trace_of(SAMPLE);
        let web = ViewWeb::build(&trace);
        let counts = web.count_by_kind();
        assert_eq!(counts.total(), web.total_views());
        assert_eq!(counts.thread, 1);
        assert!(counts.method >= 3);
        // Two heap objects are ever the target of events: the Logger and the SP.
        assert_eq!(counts.target_object, 2);
    }

    #[test]
    fn fork_ancestry_is_recorded() {
        let src = r#"
            class W extends Object { Int n; Unit work() { this.n = this.n + 1; } }
            main {
                let w = new W(0);
                spawn { w.work(); }
                w.work();
            }
        "#;
        let trace = trace_of(src);
        let web = ViewWeb::build(&trace);
        assert_eq!(web.thread_ancestry(ThreadId::MAIN).unwrap().len(), 0);
        let spawned: Vec<ThreadId> = trace
            .thread_ids()
            .into_iter()
            .filter(|t| *t != ThreadId::MAIN)
            .collect();
        assert_eq!(spawned.len(), 1);
        let ancestry = web.thread_ancestry(spawned[0]).unwrap();
        assert!(!ancestry.is_empty());
        assert!(web.thread_ancestry(ThreadId(99)).is_none());
    }

    #[test]
    fn empty_trace_produces_empty_web() {
        let trace = Trace::named("empty");
        let web = ViewWeb::build(&trace);
        assert_eq!(web.total_views(), 0);
        assert!(web.views_of_entry(0).iter().next().is_none());
    }
}
