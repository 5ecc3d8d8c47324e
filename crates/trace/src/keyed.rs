//! Interned event keys: the data-oriented backbone of the diff hot path.
//!
//! [`EventKey`](crate::eq::EventKey) canonicalizes what `=e` compares, but it is an owned,
//! heap-allocating value (two `String`s plus an operand `Vec`), so algorithms that compare
//! millions of entries pay allocator and string-compare traffic instead of the O(1)
//! comparisons the paper's cost model assumes. [`KeyedTrace`] fixes that. It is built
//! *once* per trace, in the same fold that builds the lean context and the view web, and
//! it interns each key as it goes:
//!
//! * **A table of distinct keys.** Each distinct key is stored once as a
//!   [`CompactEventKey`]: interned [`Symbol`]s for every name, the operand list in one
//!   shared arena, and a precomputed deterministic 64-bit content hash.
//! * **One `u32` id per entry.** Entry `i`'s key is `keys[id(i)]`; ids are dense and
//!   handed out in first-seen order. Within one trace, two entries are `=e`-equal exactly
//!   when their ids are equal.
//! * **The distinct-key index.** A key is found by a secret-keyed hash of its words (kind,
//!   name, operand classes and fingerprints; see [`crate::inthash`]) and then checked by
//!   kind, name and operands, so a hash collision never merges two keys, and an uploader
//!   who cannot predict the hash cannot steer many keys into one probe chain.
//!
//! Across two traces, ids are translated rather than recomputed:
//! [`KeyedTrace::translate_into`] looks each distinct key of the other trace up in this
//! one's index once, which costs O(distinct keys), and yields the other trace's ids in
//! this trace's id space. A key this trace lacks gets an id of its own past this trace's
//! table, so translated ids are equal exactly when the keys are, on either side. After
//! that, `=e` between an entry of each trace is one integer compare. A trace with 10 000
//! entries but 70 distinct keys stores 10 000 ids and 70 keys.
//!
//! The views scan, the LCS baseline and anchored diff run over translated ids.
//! [`KeyedTrace::compact`], [`KeyedTrace::key`], [`KeyedTrace::key_eq`] and [`KeyRef`]
//! resolve an entry's key through its id and compare keys by content, so callers that
//! read keys themselves (the §4.1 sets) need no translation.

use std::cell::Cell;
use std::hash::{BuildHasher, Hasher};

use crate::batch::{EntryBatch, EntryRef};
use crate::event::EventKind;
use crate::intern::Symbol;
use crate::inthash::{folded_multiply, IntHashState};
use crate::objrep::ValueFingerprint;
use crate::trace::Trace;

/// An empty slot of the distinct-key index. No key gets this id.
const EMPTY: u32 = u32::MAX;

/// A compact, `Copy` canonical key for one trace entry.
///
/// Operand data lives in the owning [`KeyedTrace`]'s arena (`ops_start`/`ops_len` index
/// into it), so a key has a fixed size regardless of operand count. A bare key is *not*
/// directly comparable (it deliberately implements neither `PartialEq` nor `Hash`: its
/// arena offsets are position-, not content-, dependent) — semantic `=e` comparison goes
/// through [`KeyRef`] or [`KeyedTrace::key_eq`], which resolve the arenas on both sides.
#[derive(Clone, Copy, Debug)]
pub struct CompactEventKey {
    /// Precomputed 64-bit hash over the event kind, name symbol and operand identities:
    /// the same key hashes alike in every trace and every process. Used as a fast
    /// inequality filter and as the hash of the key.
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

/// All entries of one trace reduced to key ids, plus the table of distinct keys and
/// their operand arena (see the module docs).
#[derive(Clone, Debug)]
pub struct KeyedTrace {
    /// Per entry, the id of its key: an index into `keys`.
    ids: Vec<u32>,
    /// The distinct keys, in first-seen order.
    keys: Vec<CompactEventKey>,
    operands: Vec<OperandId>,
    /// Open-addressing index over `keys` (linear probing; [`EMPTY`] marks an empty
    /// slot). Its length is zero or a power of two, at most three quarters full.
    slots: Vec<u32>,
    /// The secret key of the slot hash.
    state: IntHashState,
    /// Every key hashes to zero (see [`with_colliding_key_hashes`]).
    collide: bool,
}

impl Default for KeyedTrace {
    fn default() -> Self {
        KeyedTrace {
            ids: Vec::new(),
            keys: Vec::new(),
            operands: Vec::new(),
            slots: Vec::new(),
            state: IntHashState::new(),
            collide: COLLIDE.get(),
        }
    }
}

impl KeyedTrace {
    /// Builds the keyed form of a trace in one pass (through the [`EntryBatch`]
    /// adapter). This and [`KeyedTrace::push`] are the only places keys are computed;
    /// everything downstream reuses the result.
    pub fn build(trace: &Trace) -> Self {
        let mut keyed = KeyedTrace::default();
        keyed.ids.reserve(trace.len());
        EntryBatch::visit(&trace.entries, |entry| keyed.push(entry));
        keyed
    }

    /// Appends the key of one entry (incremental and streaming construction): its id,
    /// interning the key first if this trace has not seen it.
    pub fn push(&mut self, entry: EntryRef<'_>) {
        let operands = entry
            .operands
            .iter()
            .map(|op| (op.ident.class, op.ident.fingerprint));
        let slot_hash = self.slot_hash(entry.kind, entry.name, operands.clone());
        let id = match self.probe(slot_hash, entry.kind, entry.name, operands.clone()) {
            Ok(id) => id,
            Err(slot) => self.insert(slot, slot_hash, entry.kind, entry.name, operands),
        };
        self.ids.push(id);
    }

    /// Adds a key this trace does not hold yet; `slot` is the empty slot its probe
    /// ended on.
    fn insert(
        &mut self,
        mut slot: usize,
        slot_hash: u64,
        kind: EventKind,
        name: Option<Symbol>,
        operands: impl Iterator<Item = OperandId>,
    ) -> u32 {
        let id = u32::try_from(self.keys.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("key table overflow");
        let ops_start = u32::try_from(self.operands.len()).expect("operand arena overflow");
        self.operands.extend(operands);
        let ops_len =
            u32::try_from(self.operands.len()).expect("operand arena overflow") - ops_start;
        let ops = &self.operands[ops_start as usize..];
        let hash = if self.collide {
            0
        } else {
            let mut h = KEY_HASH_SEED;
            key_words(kind, name, ops.iter().copied(), |word| {
                h = folded_multiply(h ^ word, KEY_HASH_MULTIPLIER);
            });
            folded_multiply(h, KEY_HASH_MULTIPLIER)
        };
        if (self.keys.len() + 1) * 4 > self.slots.len() * 3 {
            self.grow();
            slot = self.empty_slot(slot_hash);
        }
        self.keys.push(CompactEventKey {
            hash,
            kind,
            name,
            ops_start,
            ops_len,
        });
        self.slots[slot] = id;
        id
    }

    /// Doubles the index (16 slots at first) and re-places every key it holds.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(16);
        self.slots = vec![EMPTY; len];
        for id in 0..self.keys.len() {
            let key = self.keys[id];
            let hash = self.slot_hash(key.kind, key.name, self.operands_of(&key).iter().copied());
            let slot = self.empty_slot(hash);
            self.slots[slot] = id as u32;
        }
    }

    /// The first empty slot of `hash`'s probe sequence.
    fn empty_slot(&self, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        while self.slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// The id of the key with these words, or the empty slot where its probe ended.
    fn probe(
        &self,
        hash: u64,
        kind: EventKind,
        name: Option<Symbol>,
        operands: impl Iterator<Item = OperandId> + Clone,
    ) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            let id = self.slots[slot];
            if id == EMPTY {
                return Err(slot);
            }
            let key = &self.keys[id as usize];
            if key.kind == kind
                && key.name == name
                && self.operands_of(key).iter().copied().eq(operands.clone())
            {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The secret-keyed hash that places a key in the index.
    fn slot_hash(
        &self,
        kind: EventKind,
        name: Option<Symbol>,
        operands: impl Iterator<Item = OperandId>,
    ) -> u64 {
        if self.collide {
            return 0;
        }
        let mut hasher = self.state.build_hasher();
        key_words(kind, name, operands, |word| hasher.write_u64(word));
        hasher.finish()
    }

    /// Number of keyed entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Number of distinct keys: ids run over `0..distinct_len()`.
    pub fn distinct_len(&self) -> usize {
        self.keys.len()
    }

    /// The in-memory footprint of the keyed representation (ids, distinct keys, operand
    /// arena and index), used by the differencers' working-set cost model.
    pub fn estimated_bytes(&self) -> u64 {
        (self.ids.len() * std::mem::size_of::<u32>()
            + self.keys.len() * std::mem::size_of::<CompactEventKey>()
            + self.operands.len() * std::mem::size_of::<OperandId>()
            + self.slots.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Returns `true` when no entries are keyed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The key id of the entry at `index`.
    #[inline]
    pub fn id(&self, index: usize) -> u32 {
        self.ids[index]
    }

    /// Every entry's key id, in entry order.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The compact key of the entry at `index`.
    pub fn compact(&self, index: usize) -> CompactEventKey {
        self.keys[self.ids[index] as usize]
    }

    /// The operand identities of a key.
    pub fn operands_of(&self, key: &CompactEventKey) -> &[OperandId] {
        &self.operands[key.ops_start as usize..(key.ops_start + key.ops_len) as usize]
    }

    /// Extends `into` to cover every distinct key of `other`: `into[d]` becomes the id in
    /// this trace of `other`'s key `d`, or, when this trace lacks that key,
    /// `distinct_len() + d`, an id no key of this trace has. Ids already covered are
    /// kept, so a caller whose `other` only grows (a watched side) translates each new
    /// key once; this trace must stay as it was. Then entry `i` of this trace and entry
    /// `j` of `other` are `=e`-equal exactly when `self.id(i) == into[other.id(j)]`, and
    /// two entries of `other` exactly when their translated ids are equal.
    ///
    /// # Panics
    ///
    /// Panics when `into` already covers more keys than `other` holds.
    pub fn translate_into(&self, other: &KeyedTrace, into: &mut Vec<u32>) {
        let start = into.len();
        into.reserve(other.keys.len() - start);
        for (d, key) in other.keys.iter().enumerate().skip(start) {
            let operands = other.operands_of(key).iter().copied();
            let hash = self.slot_hash(key.kind, key.name, operands.clone());
            into.push(
                self.probe(hash, key.kind, key.name, operands)
                    .unwrap_or_else(|_| {
                        u32::try_from(self.keys.len() + d)
                            .ok()
                            .filter(|&id| id != EMPTY)
                            .expect("translated key ids overflow")
                    }),
            );
        }
    }

    /// A borrowed, arena-resolving handle to the key of one entry; comparable across
    /// different `KeyedTrace`s.
    pub fn key(&self, index: usize) -> KeyRef<'_> {
        KeyRef {
            trace: self,
            index: index as u32,
        }
    }

    /// `=e` between entry `i` of this keyed trace and entry `j` of `other`. Within one
    /// trace it compares ids; across traces it compares the two keys: one hash compare in
    /// the common case, integer slice compare on hash equality. Never allocates.
    #[inline]
    pub fn key_eq(&self, i: usize, other: &KeyedTrace, j: usize) -> bool {
        if std::ptr::eq(self, other) {
            return self.ids[i] == self.ids[j];
        }
        let a = &self.keys[self.ids[i] as usize];
        let b = &other.keys[other.ids[j] as usize];
        a.hash == b.hash
            && a.kind == b.kind
            && a.name == b.name
            && self.operands_of(a) == other.operands_of(b)
    }
}

/// A cheap (`Copy`) handle to one entry's key that resolves the operand arena for exact,
/// allocation-free comparison with any other trace's keys, without a translation.
#[derive(Clone, Copy, Debug)]
pub struct KeyRef<'a> {
    trace: &'a KeyedTrace,
    index: u32,
}

impl KeyRef<'_> {
    /// The compact key this handle points at.
    pub fn compact(&self) -> CompactEventKey {
        self.trace.compact(self.index as usize)
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
        state.write_u64(self.compact().hash);
    }
}

/// The words a key is hashed from, in order: kind, name, then each operand's class and
/// fingerprint.
#[inline]
fn key_words(
    kind: EventKind,
    name: Option<Symbol>,
    operands: impl Iterator<Item = OperandId>,
    mut word: impl FnMut(u64),
) {
    word(kind as u64 + 1);
    word(name.map_or(u64::MAX, |s| s.index() as u64));
    for (class, fp) in operands {
        word(class.index() as u64);
        word(fp.0);
    }
}

/// The deterministic content hash [`CompactEventKey::hash`]: each word is mixed in by one
/// folded multiply with a fixed odd constant, and the state once more at the end. It has
/// no per-map seed, so it is the same in every trace and process; it is never persisted
/// or sent, and only groups keys whose equality is then checked in full.
const KEY_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const KEY_HASH_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

thread_local! {
    static COLLIDE: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with every [`KeyedTrace`] made on this thread inside it hashing each key to
/// zero, both its content hash and its index slot, so that every lookup and every
/// cross-trace compare goes through the full kind, name and operand check. Results must
/// not change; the equivalence suites use this to show it. Traces made inside and
/// outside compare wrongly with each other, so build every trace of a comparison inside.
#[doc(hidden)]
pub fn with_colliding_key_hashes<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            COLLIDE.set(self.0);
        }
    }
    let _restore = Restore(COLLIDE.replace(true));
    f()
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
    fn entries_share_an_id_exactly_when_their_keys_are_equal() {
        let mut rng = Rng::new(0x1d5);
        let t = trace_of((0..300).map(|_| arbitrary_entry(&mut rng)).collect());
        let k = KeyedTrace::build(&t);
        let collided = with_colliding_key_hashes(|| KeyedTrace::build(&t));
        let mut distinct = Vec::new();
        for i in 0..t.len() {
            let key = EventKey::of(&t[i]);
            if !distinct.contains(&key) {
                distinct.push(key);
            }
            for j in 0..t.len() {
                let equal = EventKey::of(&t[i]) == EventKey::of(&t[j]);
                assert_eq!(k.id(i) == k.id(j), equal, "({i},{j})");
            }
        }
        assert_eq!(k.distinct_len(), distinct.len());
        // Ids are handed out in first-seen order, whatever the hash.
        assert_eq!(k.ids, collided.ids);
        assert!(collided.keys.iter().all(|key| key.hash == 0));
    }

    #[test]
    fn translation_maps_shared_keys_and_marks_the_others() {
        let a = trace_of(vec![set_entry("min", 32), set_entry("max", 1)]);
        let b = trace_of(vec![
            set_entry("max", 1),
            set_entry("min", 7),
            set_entry("max", 1),
            set_entry("min", 32),
        ]);
        let (ka, kb) = (KeyedTrace::build(&a), KeyedTrace::build(&b));
        let mut translation = Vec::new();
        ka.translate_into(&kb, &mut translation);
        assert_eq!(translation, vec![1, 2 + 1, 0]);
        for i in 0..a.len() {
            for j in 0..b.len() {
                let translated = ka.id(i) == translation[kb.id(j) as usize];
                assert_eq!(translated, ka.key_eq(i, &kb, j), "({i},{j})");
            }
        }
        // A translation extends as the other side grows.
        let mut grown = kb.clone();
        EntryBatch::visit(&[set_entry("max", 1), set_entry("max", 32)], |e| {
            grown.push(e)
        });
        ka.translate_into(&grown, &mut translation);
        assert_eq!(translation, vec![1, 2 + 1, 0, 2 + 3]);
    }

    #[test]
    fn the_index_grows_past_its_load_bound() {
        let t = trace_of((0..1000).map(|v| set_entry("min", v % 400)).collect());
        let k = KeyedTrace::build(&t);
        assert_eq!(k.distinct_len(), 400);
        assert_eq!(k.slots.len(), 1024);
        // Every key sits in the index once.
        let mut held: Vec<u32> = k.slots.iter().copied().filter(|&s| s != EMPTY).collect();
        held.sort_unstable();
        assert_eq!(held, (0..400).collect::<Vec<u32>>());
        assert!((0..1000).all(|i| k.id(i) == (i % 400) as u32));
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
