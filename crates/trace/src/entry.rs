//! Trace entries: `entry(eid, tid, m, θ, e)` (paper Fig. 4).
//!
//! Every entry carries, besides the event itself, a generic *context*: the identifier of
//! the active thread, the method under execution (the frame on top of the call stack when
//! the event occurred), and the representation of the object that method is executing on.

use rprism_lang::MethodName;

use crate::event::Event;
use crate::objrep::ObjRep;

/// The index of an entry within its originating trace. Entry ids are the "links" that tie
/// views back to the base trace and to each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryId(pub u64);

impl EntryId {
    /// The entry id as a `usize` index into the trace's entry vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for EntryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The identifier of a program thread within one execution. Thread 0 is the main thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u64);

impl ThreadId {
    /// The main thread.
    pub const MAIN: ThreadId = ThreadId(0);
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A single trace entry `entry(eid, tid, m, θ, e)`.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEntry {
    /// The entry identifier: the index of the entry in the trace.
    pub eid: EntryId,
    /// The thread that performed the action.
    pub tid: ThreadId,
    /// The method under execution when the event occurred (top of the call stack).
    pub method: MethodName,
    /// The object on which that method is executing (the *active object*).
    pub active: ObjRep,
    /// The event itself.
    pub event: Event,
}

impl TraceEntry {
    /// Creates an entry.
    pub fn new(
        eid: EntryId,
        tid: ThreadId,
        method: MethodName,
        active: ObjRep,
        event: Event,
    ) -> Self {
        TraceEntry {
            eid,
            tid,
            method,
            active,
            event,
        }
    }

    /// A one-line rendering of the entry (thread, context and event), used by reports and
    /// the examples.
    pub fn render(&self) -> String {
        format!(
            "[{} {} in {}.{}] {}",
            self.eid, self.tid, self.active, self.method, self.event
        )
    }
}

impl std::fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objrep::{CreationSeq, Loc};
    use rprism_lang::FieldName;

    #[test]
    fn entry_renders_context_and_event() {
        let entry = TraceEntry::new(
            EntryId(7),
            ThreadId(0),
            MethodName::new("setRequestType"),
            ObjRep::opaque_object(Loc(1), "SP", CreationSeq(0)),
            Event::Set {
                target: ObjRep::opaque_object(Loc(2), "NUM", CreationSeq(0)),
                field: FieldName::new("_minCharRange"),
                value: ObjRep::prim("Int", "32"),
            },
        );
        let s = entry.render();
        assert!(s.contains("e7"));
        assert!(s.contains("t0"));
        assert!(s.contains("SP-1"));
        assert!(s.contains("setRequestType"));
        assert!(s.contains("_minCharRange"));
    }

    #[test]
    fn entry_id_round_trips_to_index() {
        assert_eq!(EntryId(12).index(), 12);
        assert_eq!(ThreadId::MAIN, ThreadId(0));
    }
}
