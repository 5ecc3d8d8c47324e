//! Lean per-entry context: the bounded-memory companion of
//! [`KeyedTrace`](crate::keyed::KeyedTrace).
//!
//! A full [`TraceEntry`](crate::TraceEntry) is expensive to hold for multi-hundred-MB traces: each entry
//! carries owned strings (class names, printed values) and nested object
//! representations. The differencing and regression pipelines, however, only consult a
//! small slice of that data once a [`KeyedTrace`](crate::keyed::KeyedTrace) and a view
//! web exist:
//!
//! * the entry's **thread id** (thread-view correlation),
//! * the **enclosing method** and **active-object class** (difference signatures),
//! * the **correlation identity** of the active object and of the event's target object
//!   (class, value fingerprint, creation sequence — the inputs of
//!   [`ObjRep::correlates_with`]).
//!
//! [`LeanEntry`] captures exactly that, with every name interned to a [`Symbol`]: a
//! plain-data struct a fraction of the size of a decoded entry, held in one flat `Vec`.
//! It is built from an [`EntryRef`], so a streamed entry never exists in full. A
//! [`LeanTrace`] is the only per-entry context the diff and analysis layers read:
//! streaming ingestion (`rprism_core::ingest`) builds one instead of a [`Trace`], and
//! an in-memory trace gets one from [`LeanTrace::build`].
use crate::batch::{EntryBatch, EntryRef};
use crate::entry::ThreadId;
use crate::intern::{intern, Symbol};
use crate::objrep::{CreationSeq, ObjRep, ValueFingerprint};
use crate::trace::{Trace, TraceMeta};

/// The cross-trace correlation identity of one object representation: the three fields
/// [`ObjRep::correlates_with`] consults, with the class name interned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjIdent {
    /// The interned dynamic class name (or primitive type name).
    pub class: Symbol,
    /// The stable value fingerprint.
    pub fingerprint: ValueFingerprint,
    /// The per-class creation sequence number, when the value is a heap object.
    pub creation_seq: Option<CreationSeq>,
}

impl ObjIdent {
    /// Extracts the correlation identity of a full object representation.
    pub fn of(rep: &ObjRep) -> Self {
        ObjIdent {
            class: intern(&rep.class),
            fingerprint: rep.fingerprint,
            creation_seq: rep.creation_seq,
        }
    }

    /// [`ObjRep::correlates_with`] restated on identities: equal classes and either
    /// meaningful equal fingerprints or equal creation sequence numbers. Because the
    /// identity copies exactly the fields the full predicate reads, this agrees with
    /// [`ObjRep::correlates_with`] on the underlying representations.
    pub fn correlates_with(&self, other: &ObjIdent) -> bool {
        if self.class != other.class {
            return false;
        }
        if self.fingerprint.is_meaningful()
            && other.fingerprint.is_meaningful()
            && self.fingerprint == other.fingerprint
        {
            return true;
        }
        match (self.creation_seq, other.creation_seq) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }
}

/// Renders like [`ObjRep`] renders a heap object — `Class-N`, the class plus the
/// one-based creation sequence number — and as the bare class name otherwise.
impl std::fmt::Display for ObjIdent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.creation_seq {
            Some(seq) => write!(f, "{}-{}", self.class, seq.0 + 1),
            None => write!(f, "{}", self.class),
        }
    }
}

/// The lean context of one trace entry — everything the analysis pipeline reads from an
/// entry besides its precomputed event key and view memberships.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeanEntry {
    /// The thread that performed the action.
    pub tid: ThreadId,
    /// The interned name of the method under execution when the event occurred.
    pub method: Symbol,
    /// Correlation identity of the active object.
    pub active: ObjIdent,
    /// Correlation identity of the event's target object, if the event has one
    /// (`fork`/`end` events have none).
    pub target: Option<ObjIdent>,
}

impl LeanEntry {
    /// Reduces an entry to its lean context.
    pub fn of(entry: EntryRef<'_>) -> Self {
        LeanEntry {
            tid: entry.tid,
            method: entry.method,
            active: entry.active.ident,
            target: entry.target.map(|target| target.ident),
        }
    }
}

/// A trace reduced to lean per-entry contexts: metadata plus one flat [`LeanEntry`] per
/// entry, in execution order (index `i` is entry id `i`, like
/// [`Trace`]).
#[derive(Clone, Debug, Default)]
pub struct LeanTrace {
    /// Trace identification.
    pub meta: TraceMeta,
    entries: Vec<LeanEntry>,
}

impl LeanTrace {
    /// Creates an empty lean trace with the given metadata.
    pub fn new(meta: TraceMeta) -> Self {
        LeanTrace {
            meta,
            entries: Vec::new(),
        }
    }

    /// Builds the lean form of a trace in one pass (through the [`EntryBatch`]
    /// adapter), like [`KeyedTrace::build`](crate::keyed::KeyedTrace::build).
    pub fn build(trace: &Trace) -> Self {
        let mut lean = LeanTrace {
            meta: trace.meta.clone(),
            entries: Vec::with_capacity(trace.len()),
        };
        EntryBatch::visit(&trace.entries, |entry| lean.push(entry));
        lean
    }

    /// Appends the lean context of one entry (exposed for incremental/streaming
    /// construction).
    pub fn push(&mut self, entry: EntryRef<'_>) {
        self.entries.push(LeanEntry::of(entry));
    }

    /// The lean contexts, in entry order.
    pub fn entries(&self) -> &[LeanEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no entries have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The in-memory footprint of the lean representation in bytes.
    pub fn estimated_bytes(&self) -> u64 {
        (self.entries.len() * std::mem::size_of::<LeanEntry>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::TraceEntry;
    use crate::testgen::{arbitrary_entry, Rng};

    #[test]
    fn lean_correlation_agrees_with_full_correlation() {
        let mut rng = Rng::new(0xab5e);
        let entries: Vec<TraceEntry> = (0..120).map(|_| arbitrary_entry(&mut rng)).collect();
        let reps: Vec<&ObjRep> = entries
            .iter()
            .flat_map(|e| {
                e.event
                    .target_object()
                    .into_iter()
                    .chain(std::iter::once(&e.active))
            })
            .collect();
        for a in &reps {
            for b in &reps {
                let full = a.correlates_with(b);
                let lean = ObjIdent::of(a).correlates_with(&ObjIdent::of(b));
                assert_eq!(full, lean, "lean correlation diverged for {a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn lean_entries_capture_context() {
        let mut rng = Rng::new(7);
        let mut lean = LeanTrace::new(TraceMeta::new("lean", "v", "t"));
        let entries: Vec<TraceEntry> = (0..40).map(|_| arbitrary_entry(&mut rng)).collect();
        EntryBatch::visit(&entries, |entry| lean.push(entry));
        assert_eq!(lean.len(), entries.len());
        for (le, e) in lean.entries().iter().zip(&entries) {
            assert_eq!(le.tid, e.tid);
            assert_eq!(le.method.as_str(), e.method.as_str());
            assert_eq!(le.active.class.as_str(), e.active.class);
            assert_eq!(le.target.is_some(), e.event.target_object().is_some());
        }
        assert!(lean.estimated_bytes() > 0);
    }
}
