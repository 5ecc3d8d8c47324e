//! Precomputed, interned event keys: the data-oriented backbone of the diff hot path.
//!
//! [`EventKey`](crate::eq::EventKey) canonicalizes what `=e` compares, but it is an owned,
//! heap-allocating value (two `String`s plus an operand `Vec`), so algorithms that compare
//! millions of entries pay allocator and string-compare traffic instead of the O(1)
//! comparisons the paper's cost model assumes. [`KeyedTrace`] fixes that: it is built
//! *once* per trace and stores, per entry, a [`CompactEventKey`] — interned
//! [`Symbol`]s for every name, the operand list flattened into one shared arena, and a
//! precomputed 64-bit content hash. After the build, comparing two entries is a hash
//! check followed (on the rare hash hit) by integer slice comparison: no allocation, no
//! string traversal, `Copy`-cheap keys that can cross thread — and eventually shard —
//! boundaries.

use crate::batch::{EntryBatch, EntryRef};
use crate::event::EventKind;
use crate::intern::Symbol;
use crate::objrep::ValueFingerprint;
use crate::trace::Trace;

/// A compact, `Copy` canonical key for one trace entry.
///
/// Operand data lives in the owning [`KeyedTrace`]'s arena (`ops_start`/`ops_len` index
/// into it), so a key is 24 bytes regardless of operand count. A bare key is *not*
/// directly comparable (it deliberately implements neither `PartialEq` nor `Hash`: its
/// arena offsets are position-, not content-, dependent) — semantic `=e` comparison goes
/// through [`KeyRef`] or [`KeyedTrace::key_eq`], which resolve the arenas on both sides.
#[derive(Clone, Copy, Debug)]
pub struct CompactEventKey {
    /// Precomputed 64-bit FNV-1a hash over the event kind, name symbol and operand
    /// identities. Used as a fast inequality filter and as the hash of the key.
    pub hash: u64,
    /// The event form.
    pub kind: EventKind,
    /// The interned field/method/class name the event mentions, if any.
    pub name: Option<Symbol>,
    ops_start: u32,
    ops_len: u32,
}

impl CompactEventKey {
    /// The number of operands this key covers.
    pub fn num_operands(&self) -> usize {
        self.ops_len as usize
    }
}

/// One operand identity: interned class name plus value fingerprint — exactly the
/// information `=e` compares per operand, reduced to 12 bytes of plain data.
pub type OperandId = (Symbol, ValueFingerprint);

/// All entries of one trace reduced to compact keys, plus the shared operand arena.
#[derive(Clone, Debug, Default)]
pub struct KeyedTrace {
    keys: Vec<CompactEventKey>,
    operands: Vec<OperandId>,
}

impl KeyedTrace {
    /// Builds the keyed form of a trace in one pass (through the [`EntryBatch`]
    /// adapter). This and [`KeyedTrace::push`] are the only places keys are computed;
    /// everything downstream reuses the result.
    pub fn build(trace: &Trace) -> Self {
        let mut keyed = KeyedTrace {
            keys: Vec::with_capacity(trace.len()),
            operands: Vec::with_capacity(trace.len() * 2),
        };
        EntryBatch::visit(&trace.entries, |entry| keyed.push(entry));
        keyed
    }

    /// Appends the key of one entry (incremental and streaming construction).
    pub fn push(&mut self, entry: EntryRef<'_>) {
        let ops_start = u32::try_from(self.operands.len()).expect("operand arena overflow");
        self.operands.extend(
            entry
                .operands
                .iter()
                .map(|op| (op.ident.class, op.ident.fingerprint)),
        );
        let ops_len =
            u32::try_from(self.operands.len()).expect("operand arena overflow") - ops_start;

        let mut h = KeyHasher::new();
        h.write_u64(entry.kind as u64 + 1);
        h.write_u64(entry.name.map_or(u64::MAX, |s| s.index() as u64));
        for (class, fp) in &self.operands[ops_start as usize..(ops_start + ops_len) as usize] {
            h.write_u64(class.index() as u64);
            h.write_u64(fp.0);
        }
        self.keys.push(CompactEventKey {
            hash: h.finish(),
            kind: entry.kind,
            name: entry.name,
            ops_start,
            ops_len,
        });
    }

    /// Number of keyed entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// The in-memory footprint of the keyed representation (keys plus operand arena),
    /// used by the differencers' working-set cost model.
    pub fn estimated_bytes(&self) -> u64 {
        (self.keys.len() * std::mem::size_of::<CompactEventKey>()
            + self.operands.len() * std::mem::size_of::<OperandId>()) as u64
    }

    /// Returns `true` when no entries are keyed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The compact key of the entry at `index`.
    pub fn compact(&self, index: usize) -> CompactEventKey {
        self.keys[index]
    }

    /// The operand identities of a key.
    pub fn operands_of(&self, key: &CompactEventKey) -> &[OperandId] {
        &self.operands[key.ops_start as usize..(key.ops_start + key.ops_len) as usize]
    }

    /// A borrowed, arena-resolving handle to the key of one entry; comparable across
    /// different `KeyedTrace`s.
    pub fn key(&self, index: usize) -> KeyRef<'_> {
        KeyRef {
            trace: self,
            index: index as u32,
        }
    }

    /// `=e` between entry `i` of this keyed trace and entry `j` of `other`, by
    /// precomputed key: one hash compare in the common case, integer slice compare on
    /// hash equality. Never allocates.
    #[inline]
    pub fn key_eq(&self, i: usize, other: &KeyedTrace, j: usize) -> bool {
        let a = &self.keys[i];
        let b = &other.keys[j];
        a.hash == b.hash
            && a.kind == b.kind
            && a.name == b.name
            && self.operands_of(a) == other.operands_of(b)
    }
}

/// A cheap (`Copy`) handle to one entry's key that resolves the operand arena for exact,
/// allocation-free cross-trace comparison. This is the element type the LCS algorithms
/// run over in the keyed pipeline.
#[derive(Clone, Copy, Debug)]
pub struct KeyRef<'a> {
    trace: &'a KeyedTrace,
    index: u32,
}

impl KeyRef<'_> {
    /// The compact key this handle points at.
    pub fn compact(&self) -> CompactEventKey {
        self.trace.keys[self.index as usize]
    }
}

impl PartialEq for KeyRef<'_> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.trace
            .key_eq(self.index as usize, other.trace, other.index as usize)
    }
}

impl Eq for KeyRef<'_> {}

impl std::hash::Hash for KeyRef<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.trace.keys[self.index as usize].hash);
    }
}

/// FNV-1a over 64-bit words (deterministic across processes, like
/// [`ValueRepr::fingerprint`](crate::objrep::ValueRepr::fingerprint)).
struct KeyHasher(u64);

impl KeyHasher {
    fn new() -> Self {
        KeyHasher(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{EntryId, ThreadId, TraceEntry};
    use crate::eq::{event_eq, EventKey};
    use crate::event::Event;
    use crate::objrep::{CreationSeq, Loc, ObjRep};
    use crate::testgen::{arbitrary_entry, Rng};
    use rprism_lang::{FieldName, MethodName};

    fn trace_of(entries: Vec<TraceEntry>) -> Trace {
        let mut t = Trace::named("keyed-test");
        for e in entries {
            t.push(e);
        }
        t
    }

    fn set_entry(field: &str, value: i64) -> TraceEntry {
        TraceEntry::new(
            EntryId(0),
            ThreadId(0),
            MethodName::new("m"),
            ObjRep::opaque_object(Loc(1), "Ctx", CreationSeq(0)),
            Event::Set {
                target: ObjRep::opaque_object(Loc(2), "NUM", CreationSeq(0)),
                field: FieldName::new(field),
                value: ObjRep::prim("Int", value.to_string()),
            },
        )
    }

    #[test]
    fn keyed_equality_matches_event_eq_on_handcrafted_entries() {
        let t = trace_of(vec![
            set_entry("min", 32),
            set_entry("min", 32),
            set_entry("min", 1),
            set_entry("max", 32),
        ]);
        let k = KeyedTrace::build(&t);
        assert!(k.key_eq(0, &k, 1));
        assert!(!k.key_eq(0, &k, 2));
        assert!(!k.key_eq(0, &k, 3));
        assert_eq!(k.key(0), k.key(1));
        assert_ne!(k.key(1), k.key(2));
    }

    #[test]
    fn keyed_equality_is_equivalent_to_eventkey_equality_on_arbitrary_events() {
        // The tentpole invariant: CompactEventKey equality ≡ EventKey equality ≡ event_eq,
        // exercised over deterministic pseudo-random events with heavy collisions.
        let mut rng = Rng::new(0xfeed);
        let entries: Vec<TraceEntry> = (0..160).map(|_| arbitrary_entry(&mut rng)).collect();
        let left = trace_of(entries.iter().take(80).cloned().collect());
        let right = trace_of(entries.iter().skip(80).cloned().collect());
        let lk = KeyedTrace::build(&left);
        let rk = KeyedTrace::build(&right);

        for i in 0..left.len() {
            for j in 0..right.len() {
                let by_key = lk.key_eq(i, &rk, j);
                let by_eventkey = EventKey::of(&left[i]) == EventKey::of(&right[j]);
                let by_eq = event_eq(&left[i], &right[j]);
                assert_eq!(by_key, by_eventkey, "key vs EventKey at ({i},{j})");
                assert_eq!(by_key, by_eq, "key vs event_eq at ({i},{j})");
            }
        }
    }

    #[test]
    fn cross_trace_keyrefs_compare_and_hash_consistently() {
        use std::collections::HashSet;
        let a = trace_of(vec![set_entry("min", 32)]);
        let b = trace_of(vec![set_entry("min", 32), set_entry("min", 7)]);
        let (ka, kb) = (KeyedTrace::build(&a), KeyedTrace::build(&b));
        assert_eq!(ka.key(0), kb.key(0));
        let mut set = HashSet::new();
        set.insert(ka.key(0));
        set.insert(kb.key(0));
        set.insert(kb.key(1));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn operands_are_arena_backed() {
        let t = trace_of(vec![set_entry("min", 32)]);
        let k = KeyedTrace::build(&t);
        let key = k.compact(0);
        // set(target, value) → two operands.
        assert_eq!(key.num_operands(), 2);
        let ops = k.operands_of(&key);
        assert_eq!(ops[0].0.as_str(), "NUM");
        assert_eq!(ops[1].0.as_str(), "Int");
    }
}
