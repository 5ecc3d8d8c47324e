//! Trace containers.
//!
//! A [`Trace`] is a named sequence of [`TraceEntry`]s (the paper's `π = γ1 . … . γn`).

use crate::entry::{EntryId, ThreadId, TraceEntry};

/// Metadata identifying a trace: which program version produced it and under which test
/// case, mirroring the paper's `π^L` / `π^R` superscript naming.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TraceMeta {
    /// A human-readable trace name (e.g. `"original/regressing-test"`).
    pub name: String,
    /// The program version label (e.g. `"v2.5.1"`).
    pub version: String,
    /// The test-case label (e.g. `"testXor"`).
    pub test_case: String,
}

impl TraceMeta {
    /// Creates metadata from the three labels.
    pub fn new(
        name: impl Into<String>,
        version: impl Into<String>,
        test_case: impl Into<String>,
    ) -> Self {
        TraceMeta {
            name: name.into(),
            version: version.into(),
            test_case: test_case.into(),
        }
    }
}

/// A complete execution trace.
#[derive(Debug, PartialEq, Default)]
pub struct Trace {
    /// Trace identification.
    pub meta: TraceMeta,
    /// The entries, in execution order; `entries[i].eid == EntryId(i)`.
    pub entries: Vec<TraceEntry>,
}

/// Process-wide count of deep [`Trace`] copies (see [`Trace::clone_count`]).
static TRACE_CLONES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Clone for Trace {
    fn clone(&self) -> Self {
        // Deep-copying a trace is the expense the prepared-handle API exists to avoid,
        // so every copy is counted: tests assert the analysis path performs none.
        TRACE_CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Trace {
            meta: self.meta.clone(),
            entries: self.entries.clone(),
        }
    }
}

impl Trace {
    /// The number of deep `Trace` copies performed by this process so far. Trace clones
    /// are O(trace length); the analysis pipeline shares traces behind handles instead,
    /// and the `no_trace_clone` regression test pins that down with this counter.
    pub fn clone_count() -> u64 {
        TRACE_CLONES.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Creates an empty trace with the given metadata.
    pub fn new(meta: TraceMeta) -> Self {
        Trace {
            meta,
            entries: Vec::new(),
        }
    }

    /// Creates an empty trace with only a name.
    pub fn named(name: impl Into<String>) -> Self {
        Trace::new(TraceMeta::new(name, "", ""))
    }

    /// Appends an entry, assigning it the next entry id.
    ///
    /// The entry's `eid` is overwritten to maintain the invariant that entry ids equal
    /// positions.
    pub fn push(&mut self, mut entry: TraceEntry) -> EntryId {
        let eid = EntryId(self.entries.len() as u64);
        entry.eid = eid;
        self.entries.push(entry);
        eid
    }

    /// The number of entries `|π|`.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when the trace has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns the entry with the given id, if in range.
    pub fn get(&self, eid: EntryId) -> Option<&TraceEntry> {
        self.entries.get(eid.index())
    }

    /// Iterates over the entries in order.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEntry> {
        self.entries.iter()
    }

    /// The distinct thread ids appearing in the trace, in order of first appearance.
    pub fn thread_ids(&self) -> Vec<ThreadId> {
        let mut out = Vec::new();
        for e in &self.entries {
            if !out.contains(&e.tid) {
                out.push(e.tid);
            }
        }
        out
    }

    /// The paper's `win(γ, Δ)` helper restricted to the base trace: the entries whose
    /// index lies within `center ± delta`, clamped to the trace bounds.
    pub fn window(&self, center: usize, delta: usize) -> &[TraceEntry] {
        if self.entries.is_empty() {
            return &[];
        }
        let lo = center.saturating_sub(delta);
        let hi = (center + delta + 1).min(self.entries.len());
        &self.entries[lo..hi]
    }

    /// A rough estimate of the in-memory size of the trace in bytes, used by the memory
    /// cost model of the differencing benchmarks.
    pub fn estimated_bytes(&self) -> usize {
        // A conservative flat per-entry estimate: context + event payload.
        self.entries.len() * 160
    }
}

impl std::ops::Index<usize> for Trace {
    type Output = TraceEntry;

    fn index(&self, index: usize) -> &TraceEntry {
        &self.entries[index]
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEntry;
    type IntoIter = std::slice::Iter<'a, TraceEntry>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::objrep::{CreationSeq, Loc, ObjRep};
    use rprism_lang::{FieldName, MethodName};

    fn set_entry(tid: u64, field: &str, value: i64) -> TraceEntry {
        TraceEntry::new(
            EntryId(0),
            ThreadId(tid),
            MethodName::toplevel(),
            ObjRep::null(),
            Event::Set {
                target: ObjRep::opaque_object(Loc(1), "NUM", CreationSeq(0)),
                field: FieldName::new(field),
                value: ObjRep::prim("Int", value.to_string()),
            },
        )
    }

    #[test]
    fn push_assigns_sequential_entry_ids() {
        let mut t = Trace::named("test");
        let a = t.push(set_entry(0, "x", 1));
        let b = t.push(set_entry(0, "y", 2));
        assert_eq!(a, EntryId(0));
        assert_eq!(b, EntryId(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(b).unwrap().eid, b);
        assert!(t.get(EntryId(99)).is_none());
    }

    #[test]
    fn window_clamps_to_bounds() {
        let mut t = Trace::named("w");
        for i in 0..10 {
            t.push(set_entry(0, "x", i));
        }
        assert_eq!(t.window(0, 3).len(), 4);
        assert_eq!(t.window(9, 3).len(), 4);
        assert_eq!(t.window(5, 2).len(), 5);
        assert_eq!(Trace::named("empty").window(0, 5).len(), 0);
    }

    #[test]
    fn thread_ids_in_order_of_first_appearance() {
        let mut t = Trace::named("threads");
        t.push(set_entry(0, "x", 1));
        t.push(set_entry(2, "x", 1));
        t.push(set_entry(0, "x", 1));
        t.push(set_entry(1, "x", 1));
        assert_eq!(t.thread_ids(), vec![ThreadId(0), ThreadId(2), ThreadId(1)]);
    }

    #[test]
    fn estimated_bytes_scales_with_length() {
        let mut t = Trace::named("bytes");
        assert_eq!(t.estimated_bytes(), 0);
        for i in 0..5 {
            t.push(set_entry(0, "x", i));
        }
        assert!(t.estimated_bytes() >= 5 * 100);
    }
}
