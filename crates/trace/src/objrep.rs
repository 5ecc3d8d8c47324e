//! Object representations stored in trace entries.
//!
//! The paper first represents an object in a trace simply by its location `l` (§2.2), and
//! then — for differencing across program versions, where locations are meaningless —
//! extends representations to tuples `⟨l, r⟩` where `r` is a recursively computed value
//! serialization (Fig. 8):
//!
//! ```text
//! object θ' ::= ⟨l, r⟩
//! serialization r ::= D:[d] | C:[r̄]
//! ```
//!
//! RPrism approximates `r` in the implementation with Java's `hashCode`/`toString`
//! (truncated to 128 characters), forcing the representation to be *empty* when an object
//! still uses the default `java.lang.Object` implementations, because such values are not
//! stable across program versions (§5). We reproduce all three ingredients:
//!
//! * [`ValueRepr`] — the full recursive serialization `r` (bounded by a depth limit),
//! * [`ValueFingerprint`] — a stable 64-bit hash of the serialization (the `hashCode`
//!   analogue) plus a truncated printed form (the `toString` analogue),
//! * `ObjRep::Opaque`-style empty fingerprints for identity-only objects,
//! * per-class [`CreationSeq`] numbers, the alternative correlation basis used by target-
//!   and active-object view correlation ("class-specific object creation sequence number",
//!   §3.1).

/// The maximum number of characters kept from a printed value representation, mirroring
/// RPrism's truncation of `toString` output (§5).
pub const PRINTED_REPR_MAX: usize = 128;

/// The maximum recursion depth used when serializing object graphs into [`ValueRepr`]s.
pub const VALUE_REPR_MAX_DEPTH: usize = 4;

/// A heap location `l`. Locations are only meaningful within a single execution; they are
/// never compared across traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Loc(pub u64);

impl std::fmt::Display for Loc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A per-class object creation sequence number: the n-th instance of class `C` created by
/// an execution gets sequence number `n`. Unlike locations, creation sequence numbers are
/// comparable across executions of different program versions (paper §3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CreationSeq(pub u64);

impl std::fmt::Display for CreationSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The recursive value serialization `r ::= D:[d] | C:[r̄]` of Fig. 8.
#[derive(Clone, Debug, PartialEq)]
pub enum ValueRepr {
    /// A primitive value `D:[d]`: the primitive type name and its printed value.
    Prim {
        /// The primitive type name (`Int`, `Bool`, …).
        type_name: String,
        /// The printed value (`"42"`, `"true"`, …).
        printed: String,
    },
    /// An object value `C:[r̄]`: the class name and the serializations of its fields.
    Object {
        /// The dynamic class of the object.
        class: String,
        /// Recursively serialized field values, in field declaration order.
        fields: Vec<ValueRepr>,
    },
    /// A reference cycle or depth cut-off encountered during serialization.
    Truncated,
    /// The null reference.
    Null,
    /// An object whose representation is deliberately empty because it carries no
    /// version-stable value information (the "default hashCode/toString" case of §5).
    Opaque,
}

impl ValueRepr {
    /// Computes the stable 64-bit fingerprint of this serialization.
    ///
    /// The hash is a hand-rolled FNV-1a so that fingerprints are deterministic across
    /// processes and Rust versions (the analyses persist and compare them).
    pub fn fingerprint(&self) -> ValueFingerprint {
        let mut h = Fnv1a::new();
        self.hash_into(&mut h);
        ValueFingerprint(h.finish())
    }

    fn hash_into(&self, h: &mut Fnv1a) {
        match self {
            ValueRepr::Prim { type_name, printed } => {
                h.write_u8(1);
                h.write_str(type_name);
                h.write_str(printed);
            }
            ValueRepr::Object { class, fields } => {
                h.write_u8(2);
                h.write_str(class);
                for f in fields {
                    f.hash_into(h);
                }
            }
            ValueRepr::Truncated => h.write_u8(3),
            ValueRepr::Null => h.write_u8(4),
            ValueRepr::Opaque => h.write_u8(5),
        }
    }

    /// A compact printed form (the `toString` analogue), truncated to
    /// [`PRINTED_REPR_MAX`] characters.
    pub fn printed(&self) -> String {
        let mut s = String::new();
        self.print_into(&mut s);
        truncate_printed(s)
    }

    fn print_into(&self, out: &mut String) {
        if out.len() > PRINTED_REPR_MAX {
            return;
        }
        match self {
            ValueRepr::Prim { printed, .. } => out.push_str(printed),
            ValueRepr::Object { class, fields } => {
                out.push_str(class);
                out.push('[');
                for (i, f) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    f.print_into(out);
                }
                out.push(']');
            }
            ValueRepr::Truncated => out.push('…'),
            ValueRepr::Null => out.push_str("null"),
            ValueRepr::Opaque => {}
        }
    }
}

fn truncate_printed(s: String) -> String {
    if s.chars().count() <= PRINTED_REPR_MAX {
        s
    } else {
        s.chars().take(PRINTED_REPR_MAX).collect()
    }
}

/// A stable 64-bit hash of a [`ValueRepr`]; the version-independent identity used by
/// event equality and object-view correlation. The zero fingerprint is reserved for
/// representations that carry no information ([`ValueRepr::Opaque`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueFingerprint(pub u64);

impl ValueFingerprint {
    /// The fingerprint of an information-free representation. Two opaque fingerprints are
    /// *not* treated as evidence of correlation.
    pub const OPAQUE: ValueFingerprint = ValueFingerprint(0);

    /// Returns `true` if this fingerprint carries comparable information.
    pub fn is_meaningful(self) -> bool {
        self != Self::OPAQUE
    }
}

/// The representation of an object (or primitive value) as recorded in a trace entry: the
/// extended `⟨l, r⟩` tuple of Fig. 8, enriched with the dynamic class name and the
/// per-class creation sequence number used by the correlation heuristics.
#[derive(Clone, Debug, PartialEq)]
pub struct ObjRep {
    /// The heap location, when the value is a heap object (`None` for primitives and
    /// `null`). Execution-local; never compared across traces.
    pub loc: Option<Loc>,
    /// The dynamic class name (or primitive type name).
    pub class: String,
    /// The stable value fingerprint (`hashCode` analogue); [`ValueFingerprint::OPAQUE`]
    /// when the value carries no version-stable information.
    pub fingerprint: ValueFingerprint,
    /// A truncated printed representation (`toString` analogue), for reports and debugging.
    pub printed: String,
    /// The per-class creation sequence number, when the value is a heap object.
    pub creation_seq: Option<CreationSeq>,
}

impl ObjRep {
    /// The representation of the null reference.
    pub fn null() -> Self {
        ObjRep {
            loc: None,
            class: "null".to_owned(),
            fingerprint: ValueRepr::Null.fingerprint(),
            printed: "null".to_owned(),
            creation_seq: None,
        }
    }

    /// The representation of a primitive value, from its type name and printed form.
    pub fn prim(type_name: impl Into<String>, printed: impl Into<String>) -> Self {
        let type_name = type_name.into();
        let printed = truncate_printed(printed.into());
        let repr = ValueRepr::Prim {
            type_name: type_name.clone(),
            printed: printed.clone(),
        };
        ObjRep {
            loc: None,
            class: type_name,
            fingerprint: repr.fingerprint(),
            printed,
            creation_seq: None,
        }
    }

    /// The representation of a heap object from its full value serialization.
    pub fn object(loc: Loc, class: impl Into<String>, seq: CreationSeq, repr: &ValueRepr) -> Self {
        ObjRep {
            loc: Some(loc),
            class: class.into(),
            fingerprint: repr.fingerprint(),
            printed: repr.printed(),
            creation_seq: Some(seq),
        }
    }

    /// The representation of a heap object that provides no version-stable value
    /// information (identity-only object, §5): the fingerprint is forced to be empty.
    pub fn opaque_object(loc: Loc, class: impl Into<String>, seq: CreationSeq) -> Self {
        ObjRep {
            loc: Some(loc),
            class: class.into(),
            fingerprint: ValueFingerprint::OPAQUE,
            printed: String::new(),
            creation_seq: Some(seq),
        }
    }

    /// The "underlying primitive value" identity of this representation, used by event
    /// equality (`=e`): class name plus fingerprint. Locations are deliberately excluded.
    pub fn value_identity(&self) -> (&str, ValueFingerprint) {
        (&self.class, self.fingerprint)
    }

    /// Returns `true` if two representations plausibly denote "the same" object across
    /// two executions: either their value fingerprints match (and are meaningful), or
    /// they are instances of the same class with the same creation sequence number.
    /// This is the object-correlation heuristic of §3.1.
    pub fn correlates_with(&self, other: &ObjRep) -> bool {
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

impl std::fmt::Display for ObjRep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.loc, self.creation_seq) {
            (Some(_), Some(seq)) => write!(f, "{}-{}", self.class, seq.0 + 1),
            _ => {
                if self.printed.is_empty() {
                    write!(f, "{}", self.class)
                } else {
                    write!(f, "{}({})", self.class, self.printed)
                }
            }
        }
    }
}

/// A tiny deterministic FNV-1a hasher (not `DefaultHasher`, whose output may change
/// between Rust releases).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u8(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_str(&mut self, s: &str) {
        for b in s.as_bytes() {
            self.write_u8(*b);
        }
        // Delimit to avoid ambiguity between consecutive strings.
        self.write_u8(0xff);
    }

    fn finish(&self) -> u64 {
        // Reserve 0 for the opaque fingerprint.
        if self.0 == 0 {
            1
        } else {
            self.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_repr(v: i64) -> ValueRepr {
        ValueRepr::Prim {
            type_name: "Int".into(),
            printed: v.to_string(),
        }
    }

    #[test]
    fn fingerprints_are_deterministic_and_distinguish_values() {
        assert_eq!(int_repr(42).fingerprint(), int_repr(42).fingerprint());
        assert_ne!(int_repr(42).fingerprint(), int_repr(43).fingerprint());
        assert_ne!(
            int_repr(42).fingerprint(),
            ValueRepr::Prim {
                type_name: "Float".into(),
                printed: "42".into()
            }
            .fingerprint()
        );
    }

    #[test]
    fn object_reprs_hash_recursively() {
        let a = ValueRepr::Object {
            class: "Range".into(),
            fields: vec![int_repr(32), int_repr(127)],
        };
        let b = ValueRepr::Object {
            class: "Range".into(),
            fields: vec![int_repr(1), int_repr(127)],
        };
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.printed(), "Range[32,127]");
    }

    #[test]
    fn printed_repr_is_truncated() {
        let long = "x".repeat(500);
        let rep = ObjRep::prim("Str", long);
        assert_eq!(rep.printed.chars().count(), PRINTED_REPR_MAX);
    }

    #[test]
    fn opaque_objects_do_not_correlate_by_fingerprint() {
        let a = ObjRep::opaque_object(Loc(1), "Logger", CreationSeq(0));
        let b = ObjRep::opaque_object(Loc(99), "Logger", CreationSeq(0));
        // Same creation sequence — correlated via seq, not via fingerprint.
        assert!(a.correlates_with(&b));
        let c = ObjRep::opaque_object(Loc(5), "Logger", CreationSeq(3));
        assert!(!a.correlates_with(&c));
        assert!(!a.fingerprint.is_meaningful());
    }

    #[test]
    fn correlation_by_value_fingerprint() {
        let repr = ValueRepr::Object {
            class: "Range".into(),
            fields: vec![int_repr(32), int_repr(127)],
        };
        let a = ObjRep::object(Loc(1), "Range", CreationSeq(0), &repr);
        let b = ObjRep::object(Loc(77), "Range", CreationSeq(5), &repr);
        assert!(a.correlates_with(&b));
        let other = ValueRepr::Object {
            class: "Range".into(),
            fields: vec![int_repr(1), int_repr(127)],
        };
        let c = ObjRep::object(Loc(78), "Range", CreationSeq(6), &other);
        assert!(!a.correlates_with(&c));
    }

    #[test]
    fn different_classes_never_correlate() {
        let a = ObjRep::opaque_object(Loc(1), "A", CreationSeq(0));
        let b = ObjRep::opaque_object(Loc(1), "B", CreationSeq(0));
        assert!(!a.correlates_with(&b));
    }

    #[test]
    fn null_and_prims_have_no_location() {
        assert!(ObjRep::null().loc.is_none());
        assert!(ObjRep::prim("Int", "5").loc.is_none());
        assert!(ObjRep::opaque_object(Loc(0), "X", CreationSeq(0))
            .loc
            .is_some());
    }

    #[test]
    fn display_uses_class_and_sequence() {
        let a = ObjRep::opaque_object(Loc(9), "Logger", CreationSeq(0));
        assert_eq!(a.to_string(), "Logger-1");
        assert_eq!(ObjRep::prim("Int", "5").to_string(), "Int(5)");
        assert_eq!(ObjRep::null().to_string(), "null(null)");
    }

    #[test]
    fn value_identity_ignores_location() {
        let repr = int_repr(7);
        let a = ObjRep::object(Loc(1), "Int", CreationSeq(0), &repr);
        let b = ObjRep::object(Loc(2), "Int", CreationSeq(1), &repr);
        assert_eq!(a.value_identity(), b.value_identity());
    }
}
