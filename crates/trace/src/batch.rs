//! Symbol-level trace entries: the one form every artifact builder consumes.
//!
//! None of the analyses reads the strings of an entry. Event equality (`=e`), view
//! membership and view correlation compare interned names, value fingerprints,
//! creation sequence numbers and locations — never the printed value of an object.
//! [`EntryBatch`] holds a run of entries reduced to exactly that, in flat arenas, and
//! hands each one out as a borrowed [`EntryRef`]. The keyed trace, the lean context,
//! the view web, the checker and the incremental diff session each build from an
//! `EntryRef`, so there is one builder per artifact whatever the entries came from.
//!
//! Two producers fill a batch:
//!
//! * the binary decoder of `rprism-format`, which resolves every name id of a stream
//!   to its [`Symbol`] once and never builds a [`TraceEntry`] at all;
//! * [`EntryBatch::push`], the adapter from an owned [`TraceEntry`] — for JSONL
//!   input, VM-recorded traces and every in-memory [`Trace`](crate::Trace).
//!
//! Thread events keep their stack snapshots as owned [`StackSnapshot`]s: thread-view
//! correlation and the checker read them, and they are rare.

use crate::entry::{EntryId, ThreadId, TraceEntry};
use crate::event::{Event, EventKind};
use crate::intern::{intern, Symbol};
use crate::lean::ObjIdent;
use crate::objrep::{Loc, ObjRep};
use crate::stack::StackSnapshot;

/// One object of an entry as the analyses see it: its cross-trace correlation
/// identity plus its heap location (`None` for primitives and `null`), which names
/// object views and tracks identities within one trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjAt {
    /// Interned class, value fingerprint and creation sequence number.
    pub ident: ObjIdent,
    /// The heap location, when the value is a heap object.
    pub loc: Option<Loc>,
}

/// Everything about one entry besides its operands and stack snapshots: what a
/// producer hands [`EntryBatch::close_entry`] once the entry's operands are pushed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryHead {
    /// The entry's id (its position in the trace).
    pub eid: EntryId,
    /// The thread that performed the action.
    pub tid: ThreadId,
    /// The method under execution.
    pub method: Symbol,
    /// The active object.
    pub active: ObjAt,
    /// The event form.
    pub kind: EventKind,
    /// The field, method or class the event names (gets, sets, calls, returns, inits).
    pub name: Option<Symbol>,
    /// The spawned thread of a `fork` event.
    pub child: Option<ThreadId>,
}

/// One entry of an [`EntryBatch`], borrowed from its arenas.
#[derive(Clone, Copy, Debug)]
pub struct EntryRef<'a> {
    /// The entry's id (its position in the trace).
    pub eid: EntryId,
    /// The thread that performed the action.
    pub tid: ThreadId,
    /// The method under execution when the event occurred.
    pub method: Symbol,
    /// The active object.
    pub active: ObjAt,
    /// The event form.
    pub kind: EventKind,
    /// The field, method or class the event names, if any.
    pub name: Option<Symbol>,
    /// The event's operands in [`Event::operands`] order: target then value (gets,
    /// sets, returns), target then arguments (calls), arguments then result (inits),
    /// none for thread events.
    pub operands: &'a [ObjAt],
    /// The event's target object (`σ_TO` of Fig. 7), if it has one.
    pub target: Option<ObjAt>,
    /// The spawned thread of a `fork` event.
    pub child: Option<ThreadId>,
    /// The spawn-point stacks of a `fork` event (empty otherwise).
    pub parentage: &'a [StackSnapshot],
    /// The final stack of an `end` event.
    pub stack: Option<&'a StackSnapshot>,
}

impl<'a> EntryRef<'a> {
    /// The argument operands of a call or an init (empty for every other event).
    pub fn args(&self) -> &'a [ObjAt] {
        match self.kind {
            EventKind::Call => &self.operands[1..],
            EventKind::Init => &self.operands[..self.operands.len() - 1],
            _ => &[],
        }
    }
}

/// A head plus where its operands and stacks end in the arenas.
#[derive(Clone, Copy, Debug)]
struct Slot {
    head: EntryHead,
    operands_end: u32,
    stacks_end: u32,
}

/// A run of entries at the level of symbols, in flat arenas. See the module docs.
///
/// Producers push an entry's operands ([`EntryBatch::push_operand`]) and stack
/// snapshots ([`EntryBatch::push_stack`]) first, then close it with its head
/// ([`EntryBatch::close_entry`]); [`EntryBatch::discard_open`] drops whatever an
/// abandoned decode pushed since the last closed entry.
#[derive(Clone, Debug, Default)]
pub struct EntryBatch {
    slots: Vec<Slot>,
    operands: Vec<ObjAt>,
    stacks: Vec<StackSnapshot>,
}

impl EntryBatch {
    /// An empty batch.
    pub fn new() -> Self {
        EntryBatch::default()
    }

    /// The batch of `entries`, through the [`EntryBatch::push`] adapter.
    pub fn of(entries: &[TraceEntry]) -> Self {
        let mut batch = EntryBatch::new();
        let mut recent = Recent::default();
        for entry in entries {
            batch.push_with(entry, &mut recent);
        }
        batch
    }

    /// Feeds every entry of `entries` to `f` in order, through the adapter, one entry
    /// at a time. This is how every `&Trace` builder runs on `EntryRef`.
    pub fn visit(entries: &[TraceEntry], mut f: impl FnMut(EntryRef<'_>)) {
        let mut batch = EntryBatch::new();
        let mut recent = Recent::default();
        for entry in entries {
            batch.clear();
            batch.push_with(entry, &mut recent);
            f(batch.get(0));
        }
    }

    /// Removes every entry, keeping the arenas' capacity.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.operands.clear();
        self.stacks.clear();
    }

    /// Number of closed entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when the batch holds no closed entry.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn get(&self, index: usize) -> EntryRef<'_> {
        let slot = &self.slots[index];
        let (operands_start, stacks_start) = match index.checked_sub(1) {
            Some(prev) => (self.slots[prev].operands_end, self.slots[prev].stacks_end),
            None => (0, 0),
        };
        let operands = &self.operands[operands_start as usize..slot.operands_end as usize];
        let stacks = &self.stacks[stacks_start as usize..slot.stacks_end as usize];
        let head = slot.head;
        let target = match head.kind {
            EventKind::Get | EventKind::Set | EventKind::Call | EventKind::Return => {
                operands.first().copied()
            }
            EventKind::Init => operands.last().copied(),
            EventKind::Fork | EventKind::End => None,
        };
        let (parentage, stack) = match head.kind {
            EventKind::Fork => (stacks, None),
            EventKind::End => (&[][..], stacks.first()),
            _ => (&[][..], None),
        };
        EntryRef {
            eid: head.eid,
            tid: head.tid,
            method: head.method,
            active: head.active,
            kind: head.kind,
            name: head.name,
            operands,
            target,
            child: head.child,
            parentage,
            stack,
        }
    }

    /// Iterates over the entries in order.
    pub fn iter(&self) -> impl Iterator<Item = EntryRef<'_>> + '_ {
        (0..self.len()).map(|index| self.get(index))
    }

    /// Appends one operand of the entry being produced.
    pub fn push_operand(&mut self, operand: ObjAt) {
        self.operands.push(operand);
    }

    /// Appends one stack snapshot of the entry being produced: a `fork`'s parentage
    /// in order, or an `end`'s single stack.
    pub fn push_stack(&mut self, stack: StackSnapshot) {
        self.stacks.push(stack);
    }

    /// Closes the entry being produced: `head` plus every operand and stack pushed
    /// since the previous close, which must be the event's own — its operands in
    /// [`Event::operands`] order.
    pub fn close_entry(&mut self, head: EntryHead) {
        self.slots.push(Slot {
            head,
            operands_end: u32::try_from(self.operands.len()).expect("operand arena overflow"),
            stacks_end: u32::try_from(self.stacks.len()).expect("stack arena overflow"),
        });
    }

    /// Drops the operands and stacks pushed since the last closed entry.
    pub fn discard_open(&mut self) {
        let (operands, stacks) = self
            .slots
            .last()
            .map_or((0, 0), |slot| (slot.operands_end, slot.stacks_end));
        self.operands.truncate(operands as usize);
        self.stacks.truncate(stacks as usize);
    }

    /// The adapter: appends an owned entry, interning every name it mentions. The
    /// printed values of its objects are dropped.
    pub fn push(&mut self, entry: &TraceEntry) {
        self.push_with(entry, &mut Recent::default());
    }

    /// [`EntryBatch::push`], reusing the previous entry's symbols where its strings
    /// repeat (see [`Recent`]).
    fn push_with<'a>(&mut self, entry: &'a TraceEntry, recent: &mut Recent<'a>) {
        let mut child = None;
        let (kind, name) = match &entry.event {
            Event::Get {
                target,
                field,
                value,
            }
            | Event::Set {
                target,
                field,
                value,
            } => {
                self.push_operand(recent.obj(TARGET, target));
                self.push_operand(recent.obj(OTHER, value));
                (
                    entry.event.kind(),
                    Some(recent.intern(NAME, field.as_str())),
                )
            }
            Event::Call {
                target,
                method,
                args,
            } => {
                self.push_operand(recent.obj(TARGET, target));
                for arg in args {
                    self.push_operand(recent.obj(OTHER, arg));
                }
                (EventKind::Call, Some(recent.intern(NAME, method.as_str())))
            }
            Event::Return {
                target,
                method,
                value,
            } => {
                self.push_operand(recent.obj(TARGET, target));
                self.push_operand(recent.obj(OTHER, value));
                (
                    EventKind::Return,
                    Some(recent.intern(NAME, method.as_str())),
                )
            }
            Event::Init {
                class,
                args,
                result,
            } => {
                for arg in args {
                    self.push_operand(recent.obj(OTHER, arg));
                }
                self.push_operand(recent.obj(TARGET, result));
                (EventKind::Init, Some(recent.intern(NAME, class)))
            }
            Event::Fork {
                child: spawned,
                parentage,
            } => {
                child = Some(*spawned);
                for stack in parentage {
                    self.push_stack(stack.clone());
                }
                (EventKind::Fork, None)
            }
            Event::End { stack } => {
                self.push_stack(stack.clone());
                (EventKind::End, None)
            }
        };
        self.close_entry(EntryHead {
            eid: entry.eid,
            tid: entry.tid,
            method: recent.intern(METHOD, entry.method.as_str()),
            active: recent.obj(ACTIVE, &entry.active),
            kind,
            name,
            child,
        });
    }
}

/// The positions of an entry whose strings [`Recent`] remembers.
const METHOD: usize = 0;
const ACTIVE: usize = 1;
const NAME: usize = 2;
const TARGET: usize = 3;
const OTHER: usize = 4;

/// The string the adapter interned last at each position of an entry (context
/// method, active class, event name, target class, other operand classes), with its
/// symbol. Consecutive entries of a trace mostly repeat them, and comparing a
/// borrowed string is cheaper than interning it again.
#[derive(Default)]
struct Recent<'a> {
    slots: [Option<(&'a str, Symbol)>; 5],
}

impl<'a> Recent<'a> {
    fn intern(&mut self, position: usize, s: &'a str) -> Symbol {
        match self.slots[position] {
            Some((last, symbol)) if last == s => symbol,
            _ => {
                let symbol = intern(s);
                self.slots[position] = Some((s, symbol));
                symbol
            }
        }
    }

    fn obj(&mut self, position: usize, rep: &'a ObjRep) -> ObjAt {
        ObjAt {
            ident: ObjIdent {
                class: self.intern(position, &rep.class),
                fingerprint: rep.fingerprint,
                creation_seq: rep.creation_seq,
            },
            loc: rep.loc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testgen::{arbitrary_entry, Rng};

    fn obj_at(rep: &ObjRep) -> ObjAt {
        ObjAt {
            ident: ObjIdent::of(rep),
            loc: rep.loc,
        }
    }

    #[test]
    fn the_adapter_keeps_every_field_the_analyses_read() {
        let mut rng = Rng::new(0xba7c);
        let entries: Vec<TraceEntry> = (0..300).map(|_| arbitrary_entry(&mut rng)).collect();
        let batch = EntryBatch::of(&entries);
        assert_eq!(batch.len(), entries.len());
        for (entry, got) in entries.iter().zip(batch.iter()) {
            assert_eq!(got.eid, entry.eid);
            assert_eq!(got.tid, entry.tid);
            assert_eq!(got.method.as_str(), entry.method.as_str());
            assert_eq!(got.active, obj_at(&entry.active));
            assert_eq!(got.kind, entry.event.kind());
            let operands: Vec<ObjAt> = entry.event.operands().into_iter().map(obj_at).collect();
            assert_eq!(got.operands, &operands[..]);
            assert_eq!(got.target, entry.event.target_object().map(obj_at));
            match &entry.event {
                Event::Call { args, .. } | Event::Init { args, .. } => {
                    let args: Vec<ObjAt> = args.iter().map(obj_at).collect();
                    assert_eq!(got.args(), &args[..]);
                }
                Event::Fork { child, parentage } => {
                    assert_eq!(got.child, Some(*child));
                    assert_eq!(got.parentage, &parentage[..]);
                }
                Event::End { stack } => assert_eq!(got.stack, Some(stack)),
                _ => assert!(got.args().is_empty()),
            }
            let name = entry
                .event
                .field()
                .map(|f| f.as_str())
                .or(entry.event.method().map(|m| m.as_str()))
                .or(match &entry.event {
                    Event::Init { class, .. } => Some(class.as_str()),
                    _ => None,
                });
            assert_eq!(got.name.map(Symbol::as_str), name);
        }
    }

    #[test]
    fn visit_walks_every_entry_in_order() {
        let mut rng = Rng::new(3);
        let entries: Vec<TraceEntry> = (0..300).map(|_| arbitrary_entry(&mut rng)).collect();
        let mut tids = Vec::new();
        EntryBatch::visit(&entries, |entry| tids.push(entry.tid));
        let expected: Vec<ThreadId> = entries.iter().map(|e| e.tid).collect();
        assert_eq!(tids, expected);
    }

    #[test]
    fn discarding_an_open_entry_leaves_the_closed_ones() {
        let mut rng = Rng::new(5);
        let entries: Vec<TraceEntry> = (0..4).map(|_| arbitrary_entry(&mut rng)).collect();
        let mut batch = EntryBatch::of(&entries);
        let reference = EntryBatch::of(&entries);
        batch.push_operand(obj_at(&ObjRep::null()));
        batch.push_stack(StackSnapshot::empty());
        batch.discard_open();
        batch.push(&entries[0]);
        assert_eq!(batch.len(), 5);
        for i in 0..4 {
            assert_eq!(batch.get(i).operands, reference.get(i).operands);
        }
        assert_eq!(batch.get(4).operands, reference.get(0).operands);
    }
}
