//! Difference signatures and the difference sets of the regression-cause analysis (§4.1).
//!
//! The analysis manipulates *sets of semantic differences* coming from different trace
//! pairs (old vs new under the regressing test, old vs new under a passing test, passing
//! vs regressing test on the new version). To subtract and intersect differences that
//! originate from different traces, each differing entry is canonicalized into a
//! version-independent [`DiffSignature`]: the event's semantic content (the same
//! information an [`EventKey`](rprism_trace::EventKey) canonicalizes, but held as
//! interned symbols and fingerprints rather than owned strings) plus its enclosing
//! context (method and active-object class). Two differences from different comparisons
//! are "the same difference" when their signatures are equal — a handful of integer
//! comparisons, since every name is a process-stable [`Symbol`].
//!
//! **Hashed algebra.** The analysis itself builds no signature until it reports one. A
//! crate-private `HashedSet` names each difference by its entry — `(hash, side,
//! index)` — sorted by a 64-bit signature hash that mixes the entry's precomputed key
//! hash (which covers kind, name and operands) with its method and active-object
//! class. Equal hashes are ordered by the signature fields themselves (symbol ids and
//! fingerprints, read in place), so duplicates are adjacent and dropped, subtraction
//! and intersection are merges, and membership is a binary search. A collision never
//! merges two signatures, and colliding hashes — even crafted ones — cost logarithmic
//! steps, not a scan.
//!
//! This is the only set algebra. A [`DiffSet`] — the form a report returns and the
//! wire carries — is read-only: the analysis builds each of its four sets once, by
//! materializing a hashed set, and no caller subtracts, intersects or inserts into
//! one.
//!
//! **Canonical order.** A [`DiffSet`] is a sorted, deduplicated vector in the canonical
//! order of [`DiffSignature`]'s `Ord`: kind, then name, operands (class, fingerprint),
//! method and active-object class compared by their strings, so the order does not
//! depend on the process that interned them.

use std::cmp::Ordering;

use rprism_trace::{EventKind, KeyedTrace, OperandId, Symbol};

use rprism_diff::{DiffSide, TraceDiffResult};

/// A canonical, trace-independent identity for one semantic difference.
///
/// All names are interned [`Symbol`]s; the only heap data is the boxed operand list, so
/// signatures hash and compare for equality as plain integer sequences. They *order*
/// by the strings behind those symbols (see the module docs), which is the order of
/// every [`DiffSet`] and of each set on the wire.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DiffSignature {
    /// The event form of the differing event.
    pub kind: EventKind,
    /// The interned field/method/class name the event mentions, if any.
    pub name: Option<Symbol>,
    /// The class names and value fingerprints of every operand, in event order.
    pub operands: Box<[OperandId]>,
    /// The method in whose context the event occurred.
    pub method: Symbol,
    /// The class of the active object in whose context the event occurred.
    pub active_class: Symbol,
}

impl DiffSignature {
    /// Builds the signature of entry `index` from its precomputed key plus the
    /// interned symbols of the entry's method name and active-object class — the
    /// context a [`LeanTrace`](rprism_trace::LeanTrace) entry carries.
    pub fn from_key_context(
        keyed: &KeyedTrace,
        index: usize,
        method: Symbol,
        active_class: Symbol,
    ) -> Self {
        let key = keyed.compact(index);
        DiffSignature {
            kind: key.kind,
            name: key.name,
            operands: keyed.operands_of(&key).into(),
            method,
            active_class,
        }
    }

    /// The event's name as a string, if any (reports and tests).
    pub fn name_str(&self) -> Option<&'static str> {
        self.name.map(Symbol::as_str)
    }
}

/// The fields of a signature with its names spelled out. The derived order — kind,
/// name (absent first), operands, method, active-object class — is the canonical
/// order of signatures.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Spelled<'a> {
    kind: EventKind,
    name: Option<&'static str>,
    operands: SpelledOperands<'a>,
    method: &'static str,
    active_class: &'static str,
}

impl<'a> Spelled<'a> {
    fn new(
        kind: EventKind,
        name: Option<Symbol>,
        operands: &'a [OperandId],
        method: Symbol,
        active_class: Symbol,
    ) -> Self {
        Spelled {
            kind,
            name: name.map(Symbol::as_str),
            operands: SpelledOperands(operands),
            method: method.as_str(),
            active_class: active_class.as_str(),
        }
    }

    fn of(signature: &'a DiffSignature) -> Self {
        Spelled::new(
            signature.kind,
            signature.name,
            &signature.operands,
            signature.method,
            signature.active_class,
        )
    }
}

/// Operands in canonical order: (class string, fingerprint) pairs, lexicographically.
#[derive(PartialEq, Eq)]
struct SpelledOperands<'a>(&'a [OperandId]);

impl Ord for SpelledOperands<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        let class = |a: Symbol, b: Symbol| {
            // Equal symbols are equal strings: only distinct ones are resolved.
            if a == b {
                Ordering::Equal
            } else {
                a.as_str().cmp(b.as_str())
            }
        };
        (self.0.iter().zip(other.0))
            .map(|(&(ac, af), &(bc, bf))| class(ac, bc).then(af.0.cmp(&bf.0)))
            .find(|order| order.is_ne())
            .unwrap_or_else(|| self.0.len().cmp(&other.0.len()))
    }
}

impl PartialOrd for SpelledOperands<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The canonical order: kind, then name (absent first), operands as (class string,
/// fingerprint) pairs compared lexicographically, method string and active-class
/// string.
impl Ord for DiffSignature {
    fn cmp(&self, other: &Self) -> Ordering {
        Spelled::of(self).cmp(&Spelled::of(other))
    }
}

impl PartialOrd for DiffSignature {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A set of semantic differences (one of the paper's sets A, B, C or D): distinct
/// signatures in canonical order. Read-only: an analysis builds it once, when it
/// materializes the set it reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffSet {
    signatures: Vec<DiffSignature>,
}

impl DiffSet {
    /// Number of distinct differences.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// Returns `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// Iterates over the signatures in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &DiffSignature> {
        self.signatures.iter()
    }

    /// The signatures in canonical order.
    pub fn as_slice(&self) -> &[DiffSignature] {
        &self.signatures
    }
}

#[cfg(test)]
thread_local! {
    /// Forces every signature hash to one value, so that every two signatures collide
    /// and the hashed algebra rests on its field comparisons alone.
    pub(crate) static CONSTANT_HASH: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// One difference of a [`HashedSet`]: entry `index` of side `side` of its
/// [`SignatureSource`], with that entry's signature hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Hashed {
    hash: u64,
    side: usize,
    index: usize,
}

/// A difference set of the analysis before any signature is built: distinct
/// signatures named by entry, in [`SignatureSource::cmp`] order.
#[derive(Clone, Debug, Default)]
pub(crate) struct HashedSet {
    items: Vec<Hashed>,
}

/// The prepared sides one analysis reads signatures from. A [`HashedSet`] names each
/// entry by the position of its side in this list.
pub(crate) struct SignatureSource<'s, 'a> {
    sides: &'s [DiffSide<'a>],
}

impl<'s, 'a> SignatureSource<'s, 'a> {
    pub(crate) fn new(sides: &'s [DiffSide<'a>]) -> Self {
        SignatureSource { sides }
    }

    /// The hashed name of entry `index` of side `side`; `None` when `index` is out of
    /// range.
    fn hashed(&self, side: usize, index: usize) -> Option<Hashed> {
        let lean = self.sides[side].entries().get(index)?;
        let key = self.sides[side].keyed().compact(index).hash;
        #[cfg(test)]
        if CONSTANT_HASH.get() {
            return Some(Hashed {
                hash: 0,
                side,
                index,
            });
        }
        let context = (lean.method.index() as u64) << 32 | lean.active.class.index() as u64;
        let mut hash = key ^ context.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        // The 64-bit finalizer of MurmurHash3.
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
        hash ^= hash >> 33;
        hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        hash ^= hash >> 33;
        Some(Hashed { hash, side, index })
    }

    /// The order of a hashed set: by hash, then by the signature fields as symbol ids
    /// and fingerprints, compared in place. Two items are equal only when their
    /// signatures are, so a hash collision never merges two signatures, and a run of
    /// colliding hashes still sorts and searches in logarithmic steps.
    fn cmp(&self, a: &Hashed, b: &Hashed) -> Ordering {
        a.hash.cmp(&b.hash).then_with(|| {
            let (sa, sb) = (&self.sides[a.side], &self.sides[b.side]);
            let (ka, kb) = (sa.keyed().compact(a.index), sb.keyed().compact(b.index));
            let (ea, eb) = (&sa.entries()[a.index], &sb.entries()[b.index]);
            (ka.kind, ka.name, ea.method, ea.active.class)
                .cmp(&(kb.kind, kb.name, eb.method, eb.active.class))
                .then_with(|| sa.keyed().operands_of(&ka).cmp(sb.keyed().operands_of(&kb)))
        })
    }

    /// The difference set of one comparison: every unmatched entry of `result`, the
    /// left ones from side `left` and the right ones from side `right`.
    pub(crate) fn unmatched(
        &self,
        result: &TraceDiffResult,
        left: usize,
        right: usize,
    ) -> HashedSet {
        let matching = &result.matching;
        let mut items: Vec<Hashed> = (matching.unmatched_left().into_iter())
            .filter_map(|index| self.hashed(left, index))
            .chain(
                (matching.unmatched_right().into_iter())
                    .filter_map(|index| self.hashed(right, index)),
            )
            .collect();
        items.sort_unstable_by(|x, y| self.cmp(x, y));
        items.dedup_by(|a, b| self.cmp(a, b).is_eq());
        HashedSet { items }
    }

    /// `a − b`.
    pub(crate) fn subtract(&self, a: &HashedSet, b: &HashedSet) -> HashedSet {
        self.merge(a, b, false)
    }

    /// `a ∩ b`.
    pub(crate) fn intersect(&self, a: &HashedSet, b: &HashedSet) -> HashedSet {
        self.merge(a, b, true)
    }

    /// The items of `a` that are in `b` (`common`) or not in it: one merge of two
    /// sets in [`cmp`](Self::cmp) order, which keeps `a`'s order.
    fn merge(&self, a: &HashedSet, b: &HashedSet, common: bool) -> HashedSet {
        let mut theirs = b.items.iter().peekable();
        let items = (a.items.iter())
            .filter(|item| {
                while theirs
                    .next_if(|other| self.cmp(other, item).is_lt())
                    .is_some()
                {}
                theirs
                    .peek()
                    .is_some_and(|other| self.cmp(other, item).is_eq())
                    == common
            })
            .copied()
            .collect();
        HashedSet { items }
    }

    /// Whether the signature of entry `index` of side `side` is in `set`: a binary
    /// search.
    pub(crate) fn contains(&self, set: &HashedSet, side: usize, index: usize) -> bool {
        self.hashed(side, index).is_some_and(|probe| {
            (set.items)
                .binary_search_by(|item| self.cmp(item, &probe))
                .is_ok()
        })
    }

    /// The set's signatures, in canonical order.
    pub(crate) fn materialize(&self, set: &HashedSet) -> DiffSet {
        self.materialize_with_subset(set, &HashedSet::default()).0
    }

    /// `set`'s signatures and those of `subset`, each in canonical order. `subset` must
    /// have been derived from `set` by [`subtract`](Self::subtract) and
    /// [`intersect`](Self::intersect), which keep items in order, so its items are a
    /// subsequence of `set`'s and its signatures are copies of theirs.
    ///
    /// Each entry's names are spelled once to sort by, and each signature is built
    /// once, in its final place.
    pub(crate) fn materialize_with_subset(
        &self,
        set: &HashedSet,
        subset: &HashedSet,
    ) -> (DiffSet, DiffSet) {
        let spelled: Vec<Spelled<'a>> = (set.items.iter())
            .map(|item| {
                let side = &self.sides[item.side];
                let key = side.keyed().compact(item.index);
                let lean = &side.entries()[item.index];
                let operands = side.keyed().operands_of(&key);
                Spelled::new(key.kind, key.name, operands, lean.method, lean.active.class)
            })
            .collect();
        // Sort positions, not the wide spellings. The items hold distinct signatures,
        // so no two spellings are equal.
        let mut order: Vec<usize> = (0..spelled.len()).collect();
        order.sort_unstable_by(|&a, &b| spelled[a].cmp(&spelled[b]));

        let mut in_subset = vec![false; set.items.len()];
        let mut rest = subset.items.iter().peekable();
        for (item, member) in set.items.iter().zip(&mut in_subset) {
            *member = rest.next_if_eq(&item).is_some();
        }
        debug_assert!(
            rest.peek().is_none(),
            "not a subset of the materialized set"
        );

        let mut signatures = Vec::with_capacity(order.len());
        let mut subset_signatures = Vec::with_capacity(subset.items.len());
        for at in order {
            let item = &set.items[at];
            let side = &self.sides[item.side];
            let lean = &side.entries()[item.index];
            let signature = DiffSignature::from_key_context(
                side.keyed(),
                item.index,
                lean.method,
                lean.active.class,
            );
            if in_subset[at] {
                subset_signatures.push(signature.clone());
            }
            signatures.push(signature);
        }
        (
            DiffSet { signatures },
            DiffSet {
                signatures: subset_signatures,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_diff::{CostStats, Matching};
    use rprism_lang::{FieldName, MethodName};
    use rprism_trace::{
        intern, CreationSeq, EntryId, Event, LeanTrace, Loc, ObjRep, ThreadId, Trace, TraceEntry,
    };
    use rprism_views::ViewWeb;

    fn entry(method: &str, field: &str, value: i64) -> TraceEntry {
        TraceEntry::new(
            EntryId(0),
            ThreadId(0),
            MethodName::new(method),
            ObjRep::opaque_object(Loc(1), "SP", CreationSeq(0)),
            Event::Set {
                target: ObjRep::opaque_object(Loc(2), "NUM", CreationSeq(0)),
                field: FieldName::new(field),
                value: ObjRep::prim("Int", value.to_string()),
            },
        )
    }

    fn trace_of(entries: &[TraceEntry]) -> Trace {
        let mut trace = Trace::named("sig");
        for entry in entries {
            trace.push(entry.clone());
        }
        trace
    }

    /// The signature of every entry, built from its key.
    fn signatures(entries: &[TraceEntry]) -> Vec<DiffSignature> {
        let trace = trace_of(entries);
        let keyed = KeyedTrace::build(&trace);
        (trace.iter().enumerate())
            .map(|(i, e)| {
                DiffSignature::from_key_context(
                    &keyed,
                    i,
                    intern(e.method.as_str()),
                    intern(&e.active.class),
                )
            })
            .collect()
    }

    /// Runs `test` over a [`SignatureSource`] with one side per element of `traces`.
    fn with_source<R>(traces: &[Vec<TraceEntry>], test: impl FnOnce(&SignatureSource) -> R) -> R {
        let artifacts: Vec<_> = (traces.iter().map(|entries| trace_of(entries)))
            .map(|t| {
                (
                    LeanTrace::build(&t),
                    KeyedTrace::build(&t),
                    ViewWeb::build(&t),
                )
            })
            .collect();
        let sides: Vec<DiffSide<'_>> = (artifacts.iter())
            .map(|(lean, keyed, web)| DiffSide::lean(lean, keyed, web))
            .collect();
        test(&SignatureSource::new(&sides))
    }

    /// The hashed set of every entry of side `side`: the difference set of a
    /// comparison that matched none of them.
    fn whole(source: &SignatureSource<'_, '_>, side: usize) -> HashedSet {
        let len = source.sides[side].entries().len();
        let nothing_matched = TraceDiffResult {
            matching: Matching::from_pairs(len, 0, Vec::new()),
            sequences: Vec::new(),
            cost: CostStats::default(),
            elapsed: std::time::Duration::ZERO,
            algorithm: "none",
        };
        source.unmatched(&nothing_matched, side, side)
    }

    #[test]
    fn signatures_identify_semantic_content_and_context() {
        let s = signatures(&[
            entry("config", "_min", 32),
            entry("config", "_min", 32),
            entry("config", "_min", 1),
            entry("other", "_min", 32),
        ]);
        assert_eq!(s[0], s[1]);
        assert_ne!(s[0], s[2]);
        assert_ne!(s[0], s[3]);
    }

    #[test]
    fn signature_names_resolve() {
        let sig = &signatures(&[entry("config", "_min", 32)])[0];
        assert_eq!(sig.name_str(), Some("_min"));
        assert_eq!(sig.method.as_str(), "config");
        assert_eq!(sig.active_class.as_str(), "SP");
    }

    #[test]
    fn set_algebra_behaves_like_sets() {
        let x = |v| entry("m", "x", v);
        with_source(
            &[vec![x(1), x(2), x(3)], vec![x(2), x(9)], vec![]],
            |source| {
                let (a, b) = (whole(source, 0), whole(source, 1));

                let a_minus_b = source.subtract(&a, &b);
                assert_eq!(a_minus_b.items.len(), 2);
                assert!(!source.contains(&a_minus_b, 0, 1), "x = 2 is in B");
                assert!(source.contains(&a_minus_b, 0, 0) && source.contains(&a_minus_b, 0, 2));

                let inter = source.intersect(&a, &b);
                assert_eq!(inter.items.len(), 1);
                assert!(source.contains(&inter, 0, 1) && source.contains(&inter, 1, 0));
                assert_eq!(source.materialize(&inter).as_slice(), &signatures(&[x(2)]));

                assert!(source.materialize(&whole(source, 2)).is_empty());
            },
        );
    }

    #[test]
    fn signatures_order_by_name_strings_not_symbol_ids() {
        // The later string is interned first, so it holds the smaller symbol id.
        let (late, early) = (entry("m", "order-zz", 1), entry("m", "order-aa", 1));
        let s = signatures(&[late.clone(), early.clone()]);
        assert!(s[0].name < s[1].name);
        assert!(s[1] < s[0]);
        let set = with_source(&[vec![late.clone(), early, late]], |source| {
            source.materialize(&whole(source, 0))
        });
        assert_eq!(set.as_slice(), [s[1].clone(), s[0].clone()]);
    }

    #[test]
    fn duplicate_signatures_collapse() {
        let x = entry("m", "x", 1);
        let set = with_source(&[vec![x.clone(), x]], |source| {
            source.materialize(&whole(source, 0))
        });
        assert_eq!(set.len(), 1);
    }
}
