//! View names and the entry→view mapping functions `σ_τ` (paper Fig. 7).
//!
//! A *view* is a named projection of the base trace. Four view types are defined:
//!
//! * **Thread views** (`TH`) — one per executing thread; contains the events of that
//!   thread in execution order.
//! * **Method views** (`CM`) — one per fully qualified method name; contains the events
//!   that occur while that method is on top of the call stack.
//! * **Target-object views** (`TO`) — one per object; contains the events for which the
//!   object is the *target* of a call, return, field access or creation.
//! * **Active-object views** (`AO`) — one per object; contains the events that occur while
//!   the object is on top of the call stack (it is the receiver of the executing method).
//!
//! The mapping functions compute, for a given trace entry, the name of the view of each
//! type the entry belongs to (or `None`, e.g. thread events have no target object view).

use rprism_trace::{intern, EntryRef, Loc, ObjIdent, Symbol, ThreadId, TraceEntry};

/// The four view types of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ViewKind {
    /// Thread views (`TH`).
    Thread,
    /// Method views (`CM`).
    Method,
    /// Target-object views (`TO`).
    TargetObject,
    /// Active-object views (`AO`).
    ActiveObject,
}

impl ViewKind {
    /// All view kinds, in a fixed order.
    pub const ALL: [ViewKind; 4] = [
        ViewKind::Thread,
        ViewKind::Method,
        ViewKind::TargetObject,
        ViewKind::ActiveObject,
    ];

    /// The short label used in reports (`TH`, `CM`, `TO`, `AO`).
    pub fn label(self) -> &'static str {
        match self {
            ViewKind::Thread => "TH",
            ViewKind::Method => "CM",
            ViewKind::TargetObject => "TO",
            ViewKind::ActiveObject => "AO",
        }
    }
}

impl std::fmt::Display for ViewKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// An object identity *within one trace*: the heap location. Object views are named by
/// location (as in Fig. 7, `⟨TO, l#(θ)⟩`); correlation across traces never uses the
/// location itself but the view's representative [`ObjIdent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub Loc);

/// The name of a specific view: a view kind plus the key identifying which thread, method
/// or object the view belongs to.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ViewName {
    /// `⟨TH, tid⟩`
    Thread(ThreadId),
    /// `⟨CM, C.m⟩` — the fully qualified method name (receiver class + method).
    Method {
        /// The class of the receiver executing the method.
        class: String,
        /// The method name.
        method: String,
    },
    /// `⟨TO, l⟩`
    TargetObject(ObjectId),
    /// `⟨AO, l⟩`
    ActiveObject(ObjectId),
}

impl ViewName {
    /// The kind of this view.
    pub fn kind(&self) -> ViewKind {
        match self {
            ViewName::Thread(_) => ViewKind::Thread,
            ViewName::Method { .. } => ViewKind::Method,
            ViewName::TargetObject(_) => ViewKind::TargetObject,
            ViewName::ActiveObject(_) => ViewKind::ActiveObject,
        }
    }
}

/// The compact, `Copy` identity of a view: the interned form of a [`ViewName`].
///
/// Method names are reduced to interned [`Symbol`]s, so building and comparing keys is
/// integer work — no `String` clones. This is the key type the [`ViewWeb`](crate::web::ViewWeb)
/// indexes by and the type the per-entry view mapping produces on the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ViewKey {
    /// `⟨TH, tid⟩`
    Thread(ThreadId),
    /// `⟨CM, C.m⟩` — interned receiver class and method name.
    Method(Symbol, Symbol),
    /// `⟨TO, l⟩`
    TargetObject(ObjectId),
    /// `⟨AO, l⟩`
    ActiveObject(ObjectId),
}

impl ViewKey {
    /// The kind of this view key.
    pub fn kind(&self) -> ViewKind {
        match self {
            ViewKey::Thread(_) => ViewKind::Thread,
            ViewKey::Method(..) => ViewKind::Method,
            ViewKey::TargetObject(_) => ViewKind::TargetObject,
            ViewKey::ActiveObject(_) => ViewKind::ActiveObject,
        }
    }

    /// `σ_τ` in compact form: the key of the entry's view of the given kind, if any.
    pub fn of_entry(kind: ViewKind, entry: EntryRef<'_>) -> Option<ViewKey> {
        match kind {
            ViewKind::Thread => Some(ViewKey::Thread(entry.tid)),
            ViewKind::Method => Some(ViewKey::Method(entry.active.ident.class, entry.method)),
            ViewKind::TargetObject => {
                let loc = entry.target?.loc?;
                Some(ViewKey::TargetObject(ObjectId(loc)))
            }
            ViewKind::ActiveObject => {
                let loc = entry.active.loc?;
                Some(ViewKey::ActiveObject(ObjectId(loc)))
            }
        }
    }

    /// The compact key of a full [`ViewName`].
    pub fn of_name(name: &ViewName) -> ViewKey {
        match name {
            ViewName::Thread(tid) => ViewKey::Thread(*tid),
            ViewName::Method { class, method } => ViewKey::Method(intern(class), intern(method)),
            ViewName::TargetObject(id) => ViewKey::TargetObject(*id),
            ViewName::ActiveObject(id) => ViewKey::ActiveObject(*id),
        }
    }

    /// Expands the key back into a display-friendly [`ViewName`].
    pub fn to_name(self) -> ViewName {
        match self {
            ViewKey::Thread(tid) => ViewName::Thread(tid),
            ViewKey::Method(class, method) => ViewName::Method {
                class: class.as_str().to_owned(),
                method: method.as_str().to_owned(),
            },
            ViewKey::TargetObject(id) => ViewName::TargetObject(id),
            ViewKey::ActiveObject(id) => ViewName::ActiveObject(id),
        }
    }
}

impl std::fmt::Display for ViewName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViewName::Thread(tid) => write!(f, "TH:{tid}"),
            ViewName::Method { class, method } => write!(f, "CM:{class}.{method}"),
            ViewName::TargetObject(ObjectId(loc)) => write!(f, "TO:{loc}"),
            ViewName::ActiveObject(ObjectId(loc)) => write!(f, "AO:{loc}"),
        }
    }
}

/// `σ_τ` over an owned entry, for the name-based mappers below: the same membership
/// as [`ViewKey::of_entry`], which the `entry_keys_agree_with_the_owned_mapping` test
/// pins. The mappers serve the frozen seed differencer (`rprism-bench`), the
/// baseline the keyed pipeline's speedups are measured against, so their cost must
/// not move with the ingest path; the view web never takes this path.
fn key_of_owned(kind: ViewKind, entry: &TraceEntry) -> Option<ViewKey> {
    match kind {
        ViewKind::Thread => Some(ViewKey::Thread(entry.tid)),
        ViewKind::Method => Some(ViewKey::Method(
            intern(&entry.active.class),
            intern(entry.method.as_str()),
        )),
        ViewKind::TargetObject => {
            let loc = entry.event.target_object()?.loc?;
            Some(ViewKey::TargetObject(ObjectId(loc)))
        }
        ViewKind::ActiveObject => {
            let loc = entry.active.loc?;
            Some(ViewKey::ActiveObject(ObjectId(loc)))
        }
    }
}

/// `σ_TH`: every entry belongs to the thread view of its thread.
pub fn thread_view_name(entry: &TraceEntry) -> ViewName {
    key_of_owned(ViewKind::Thread, entry)
        .expect("every entry has a thread view")
        .to_name()
}

/// `σ_CM`: every entry belongs to the method view of the method under execution,
/// qualified by the class of the active object.
pub fn method_view_name(entry: &TraceEntry) -> ViewName {
    key_of_owned(ViewKind::Method, entry)
        .expect("every entry has a method view")
        .to_name()
}

/// `σ_TO`: entries whose event has a target heap object belong to that object's
/// target-object view; thread events (and events targeting primitives) have none.
pub fn target_object_view_name(entry: &TraceEntry) -> Option<ViewName> {
    Some(key_of_owned(ViewKind::TargetObject, entry)?.to_name())
}

/// `σ_AO`: entries whose active object is a heap object belong to that object's
/// active-object view.
pub fn active_object_view_name(entry: &TraceEntry) -> Option<ViewName> {
    Some(key_of_owned(ViewKind::ActiveObject, entry)?.to_name())
}

/// The union of all mapping functions: every view the entry is a member of.
pub fn view_names(entry: &TraceEntry) -> Vec<ViewName> {
    let mut names = vec![thread_view_name(entry), method_view_name(entry)];
    if let Some(n) = target_object_view_name(entry) {
        names.push(n);
    }
    if let Some(n) = active_object_view_name(entry) {
        names.push(n);
    }
    names
}

/// A single view: its name, the indices (into the base trace) of its member entries in
/// execution order, and — for object views — a representative object representation used
/// for cross-trace correlation.
#[derive(Clone, Debug, PartialEq)]
pub struct View {
    /// The view's name (display form of [`View::key`], constructed once per view).
    pub name: ViewName,
    /// The view's compact interned identity.
    pub key: ViewKey,
    /// Member entry indices into the base trace, strictly increasing.
    pub entries: Vec<usize>,
    /// For object views: the correlation identity (class, value fingerprint, creation
    /// sequence) of the object this view is about, captured from the first member
    /// entry. `None` for thread and method views.
    pub representative: Option<ObjIdent>,
}

impl View {
    /// Number of member entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the view has no member entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The position of a base-trace entry index within this view, if the entry is a
    /// member. This is the "link" used to navigate from the base trace into the view.
    pub fn position_of(&self, trace_index: usize) -> Option<usize> {
        self.entries.binary_search(&trace_index).ok()
    }

    /// The paper's `win(γ, Δ)` restricted to this view: member entry indices within
    /// `±delta` positions of the member at `position`.
    pub fn window(&self, position: usize, delta: usize) -> &[usize] {
        if self.entries.is_empty() {
            return &[];
        }
        let lo = position.saturating_sub(delta);
        let hi = (position + delta + 1).min(self.entries.len());
        &self.entries[lo..hi]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_lang::{FieldName, MethodName};
    use rprism_trace::{CreationSeq, EntryId, Event, ObjRep, StackSnapshot};

    fn obj(class: &str, loc: u64, seq: u64) -> ObjRep {
        ObjRep::opaque_object(Loc(loc), class, CreationSeq(seq))
    }

    fn entry(tid: u64, method: &str, active: ObjRep, event: Event) -> TraceEntry {
        TraceEntry::new(
            EntryId(0),
            ThreadId(tid),
            MethodName::new(method),
            active,
            event,
        )
    }

    #[test]
    fn field_event_belongs_to_four_views() {
        let e = entry(
            0,
            "setRequestType",
            obj("SP", 1, 0),
            Event::Set {
                target: obj("NUM", 2, 0),
                field: FieldName::new("_min"),
                value: ObjRep::prim("Int", "32"),
            },
        );
        let names = view_names(&e);
        assert_eq!(names.len(), 4);
        assert_eq!(names[0], ViewName::Thread(ThreadId(0)));
        assert_eq!(
            names[1],
            ViewName::Method {
                class: "SP".into(),
                method: "setRequestType".into()
            }
        );
        assert_eq!(names[2], ViewName::TargetObject(ObjectId(Loc(2))));
        assert_eq!(names[3], ViewName::ActiveObject(ObjectId(Loc(1))));
    }

    #[test]
    fn thread_events_have_no_object_views() {
        let e = entry(
            0,
            "<main>",
            ObjRep::null(),
            Event::End {
                stack: StackSnapshot::empty(),
            },
        );
        let names = view_names(&e);
        assert_eq!(names.len(), 2);
        assert!(names
            .iter()
            .all(|n| matches!(n.kind(), ViewKind::Thread | ViewKind::Method)));
    }

    #[test]
    fn entry_keys_agree_with_the_owned_mapping() {
        use rprism_trace::testgen::{arbitrary_entry, Rng};
        use rprism_trace::EntryBatch;
        let mut rng = Rng::new(0x5e7a);
        let entries: Vec<TraceEntry> = (0..400).map(|_| arbitrary_entry(&mut rng)).collect();
        let batch = EntryBatch::of(&entries);
        for (entry, got) in entries.iter().zip(batch.iter()) {
            for kind in ViewKind::ALL {
                assert_eq!(ViewKey::of_entry(kind, got), key_of_owned(kind, entry));
            }
        }
    }

    #[test]
    fn view_window_and_position() {
        let v = View {
            name: ViewName::Thread(ThreadId(0)),
            key: ViewKey::Thread(ThreadId(0)),
            entries: vec![3, 7, 11, 20, 22],
            representative: None,
        };
        assert_eq!(v.position_of(11), Some(2));
        assert_eq!(v.position_of(12), None);
        assert_eq!(v.window(2, 1), &[7, 11, 20]);
        assert_eq!(v.window(0, 2), &[3, 7, 11]);
        assert_eq!(v.window(4, 10), &[3, 7, 11, 20, 22]);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn display_of_view_names() {
        assert_eq!(ViewName::Thread(ThreadId(2)).to_string(), "TH:t2");
        assert_eq!(
            ViewName::Method {
                class: "SP".into(),
                method: "run".into()
            }
            .to_string(),
            "CM:SP.run"
        );
        assert_eq!(ViewKind::TargetObject.label(), "TO");
    }
}
