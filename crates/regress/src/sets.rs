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

use std::collections::HashSet;

use rprism_trace::{
    intern, EntryBatch, EventKind, KeyedTrace, OperandId, Symbol, Trace, TraceEntry,
};

use rprism_diff::TraceDiffResult;

/// A canonical, trace-independent identity for one semantic difference.
///
/// All names are interned [`Symbol`]s; the only heap data is the boxed operand list, so
/// signatures hash and compare as plain integer sequences.
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
    /// Builds the signature of a trace entry (non-keyed path: interns on the fly).
    pub fn of(entry: &TraceEntry) -> Self {
        let mut keyed = KeyedTrace::default();
        EntryBatch::visit(std::slice::from_ref(entry), |entry| keyed.push(entry));
        Self::of_keyed(&keyed, 0, entry)
    }

    /// Builds the signature of entry `index` from its precomputed key (the hot path of
    /// [`DiffSet::from_diff`]: no re-canonicalization, just copies of interned ids).
    pub fn of_keyed(keyed: &KeyedTrace, index: usize, entry: &TraceEntry) -> Self {
        Self::from_key_context(
            keyed,
            index,
            intern(entry.method.as_str()),
            intern(&entry.active.class),
        )
    }

    /// Builds the signature of entry `index` from its precomputed key plus already
    /// interned context symbols — the form lean (streamed) traces provide, where the
    /// full entry no longer exists. Equal to [`DiffSignature::of_keyed`] whenever the
    /// symbols intern the entry's method name and active-object class.
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

/// A set of semantic differences (one of the paper's sets A, B, C or D).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiffSet {
    signatures: HashSet<DiffSignature>,
}

impl DiffSet {
    /// An empty set.
    pub fn new() -> Self {
        DiffSet::default()
    }

    /// Builds the difference set of a trace comparison: the signatures of every unmatched
    /// entry on either side. When the caller already holds the traces' precomputed keys,
    /// prefer [`DiffSet::from_diff_keyed`].
    pub fn from_diff(result: &TraceDiffResult, left: &Trace, right: &Trace) -> Self {
        Self::from_diff_keyed(
            result,
            left,
            right,
            &KeyedTrace::build(left),
            &KeyedTrace::build(right),
        )
    }

    /// [`DiffSet::from_diff`] over precomputed keyed traces: signatures are assembled
    /// from interned ids without re-canonicalizing any entry.
    pub fn from_diff_keyed(
        result: &TraceDiffResult,
        left: &Trace,
        right: &Trace,
        left_keyed: &KeyedTrace,
        right_keyed: &KeyedTrace,
    ) -> Self {
        Self::of_unmatched(
            result,
            |idx| {
                left.entries
                    .get(idx)
                    .map(|e| DiffSignature::of_keyed(left_keyed, idx, e))
            },
            |idx| {
                right
                    .entries
                    .get(idx)
                    .map(|e| DiffSignature::of_keyed(right_keyed, idx, e))
            },
        )
    }

    /// The signatures of every unmatched entry of `result`: left differences first,
    /// then right, each ascending. `left`/`right` give the signature of an entry index
    /// of their side, or `None` to skip it.
    pub(crate) fn of_unmatched(
        result: &TraceDiffResult,
        left: impl Fn(usize) -> Option<DiffSignature>,
        right: impl Fn(usize) -> Option<DiffSignature>,
    ) -> Self {
        let matching = &result.matching;
        let signatures = (matching.unmatched_left().into_iter().filter_map(left))
            .chain(matching.unmatched_right().into_iter().filter_map(right))
            .collect();
        DiffSet { signatures }
    }

    /// Inserts a signature.
    pub fn insert(&mut self, signature: DiffSignature) {
        self.signatures.insert(signature);
    }

    /// Number of distinct differences.
    pub fn len(&self) -> usize {
        self.signatures.len()
    }

    /// Returns `true` when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.signatures.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, signature: &DiffSignature) -> bool {
        self.signatures.contains(signature)
    }

    /// Set difference `self − other`.
    pub fn subtract(&self, other: &DiffSet) -> DiffSet {
        DiffSet {
            signatures: self
                .signatures
                .difference(&other.signatures)
                .cloned()
                .collect(),
        }
    }

    /// Set intersection `self ∩ other`.
    pub fn intersect(&self, other: &DiffSet) -> DiffSet {
        DiffSet {
            signatures: self
                .signatures
                .intersection(&other.signatures)
                .cloned()
                .collect(),
        }
    }

    /// Iterates over the signatures in the set (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = &DiffSignature> {
        self.signatures.iter()
    }
}

impl FromIterator<DiffSignature> for DiffSet {
    fn from_iter<T: IntoIterator<Item = DiffSignature>>(iter: T) -> Self {
        DiffSet {
            signatures: iter.into_iter().collect(),
        }
    }
}

impl Extend<DiffSignature> for DiffSet {
    fn extend<T: IntoIterator<Item = DiffSignature>>(&mut self, iter: T) {
        self.signatures.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_lang::{FieldName, MethodName};
    use rprism_trace::{CreationSeq, EntryId, Event, Loc, ObjRep, ThreadId};

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

    #[test]
    fn signatures_identify_semantic_content_and_context() {
        assert_eq!(
            DiffSignature::of(&entry("config", "_min", 32)),
            DiffSignature::of(&entry("config", "_min", 32))
        );
        assert_ne!(
            DiffSignature::of(&entry("config", "_min", 32)),
            DiffSignature::of(&entry("config", "_min", 1))
        );
        assert_ne!(
            DiffSignature::of(&entry("config", "_min", 32)),
            DiffSignature::of(&entry("other", "_min", 32))
        );
    }

    #[test]
    fn keyed_and_unkeyed_signatures_agree() {
        let mut trace = Trace::named("sig");
        trace.push(entry("config", "_min", 32));
        trace.push(entry("emit", "_max", 7));
        let keyed = KeyedTrace::build(&trace);
        for (i, e) in trace.iter().enumerate() {
            assert_eq!(DiffSignature::of(e), DiffSignature::of_keyed(&keyed, i, e));
        }
    }

    #[test]
    fn signature_names_resolve() {
        let sig = DiffSignature::of(&entry("config", "_min", 32));
        assert_eq!(sig.name_str(), Some("_min"));
        assert_eq!(sig.method.as_str(), "config");
        assert_eq!(sig.active_class.as_str(), "SP");
    }

    #[test]
    fn set_algebra_behaves_like_sets() {
        let a: DiffSet = [
            DiffSignature::of(&entry("m", "x", 1)),
            DiffSignature::of(&entry("m", "x", 2)),
            DiffSignature::of(&entry("m", "x", 3)),
        ]
        .into_iter()
        .collect();
        let b: DiffSet = [
            DiffSignature::of(&entry("m", "x", 2)),
            DiffSignature::of(&entry("m", "x", 9)),
        ]
        .into_iter()
        .collect();

        let a_minus_b = a.subtract(&b);
        assert_eq!(a_minus_b.len(), 2);
        assert!(!a_minus_b.contains(&DiffSignature::of(&entry("m", "x", 2))));

        let inter = a.intersect(&b);
        assert_eq!(inter.len(), 1);
        assert!(inter.contains(&DiffSignature::of(&entry("m", "x", 2))));

        assert!(DiffSet::new().is_empty());
    }

    #[test]
    fn duplicate_signatures_collapse() {
        let mut s = DiffSet::new();
        s.insert(DiffSignature::of(&entry("m", "x", 1)));
        s.insert(DiffSignature::of(&entry("m", "x", 1)));
        assert_eq!(s.len(), 1);
    }
}
