//! # rprism-trace
//!
//! The execution-trace model of *Semantics-Aware Trace Analysis* (PLDI 2009), §2.2–§2.3
//! and Fig. 4/Fig. 8:
//!
//! * [`event`] — the trace event grammar: field events (`get`/`set`), method events
//!   (`call`/`return`), object events (`init`), and thread events (`fork`/`end`);
//! * [`entry`] — trace entries `entry(eid, tid, m, θ, e)` carrying the generic context
//!   (thread, enclosing method, enclosing receiver) plus an event;
//! * [`objrep`] — object representations: locations extended with recursively-computed
//!   value fingerprints (`E'#` of Fig. 8) and per-class creation sequence numbers, the two
//!   correlation bases used by the analyses;
//! * [`stack`] — call stacks `s(m, θ, θ')` and stack snapshots recorded by `fork`/`end`
//!   events (thread parentage);
//! * [`trace`] — trace containers;
//! * [`batch`] — [`EntryBatch`] / [`EntryRef`]: entries reduced to interned names,
//!   object identities and locations, the one form every artifact builder consumes;
//! * [`eq`] — the event-equality relation `=e` on which all differencing is built;
//! * [`mod@intern`] — process-global string interning: names become dense `u32`
//!   [`Symbol`]s that compare and hash as integers;
//! * [`inthash`] — the hashing rule for maps keyed by trace data, and
//!   [`IntHashState`], the keyed multiply hasher of the integer-keyed ones;
//! * [`keyed`] — [`KeyedTrace`]: per-entry precomputed [`CompactEventKey`]s (interned
//!   symbols + value fingerprints + a 64-bit content hash) that make `=e` on the diff
//!   hot paths an allocation-free integer comparison;
//! * [`lean`] — [`LeanTrace`]: the bounded-memory per-entry context retained by
//!   streaming ingestion (thread id, interned method/class names, object correlation
//!   identities) in place of full entries;
//! * [`par`] — the fan-out helper every concurrent stage of the workspace runs on:
//!   independent items spread over the host's workers, results merged in input order;
//! * [`testgen`] — deterministic pseudo-random generators used by the workspace's
//!   property-style tests (the workspace carries no external test dependencies).
//!
//! The crate is deliberately independent of the interpreter: traces can be constructed by
//! `rprism-vm`, loaded from serialized form, or synthesized directly in tests.

pub mod batch;
pub mod entry;
pub mod eq;
pub mod event;
pub mod intern;
pub mod inthash;
pub mod keyed;
pub mod lean;
pub mod objrep;
pub mod par;
pub mod stack;
pub mod testgen;
pub mod trace;

pub use batch::{EntryBatch, EntryHead, EntryRef, ObjAt};
pub use entry::{EntryId, ThreadId, TraceEntry};
pub use eq::{event_eq, events_eq, EventKey};
pub use event::{Event, EventKind};
pub use intern::{intern, resolve, Symbol};
pub use inthash::{IntHashState, IntMap, IntSet};
pub use keyed::{CompactEventKey, KeyRef, KeyedTrace, OperandId};
pub use lean::{LeanEntry, LeanTrace, ObjIdent};
pub use objrep::{CreationSeq, Loc, ObjRep, ValueFingerprint, ValueRepr};
pub use stack::{StackFrame, StackSnapshot};
pub use trace::{Trace, TraceMeta};
