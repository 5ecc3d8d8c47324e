//! The object store `E` of the dynamic semantics, plus trace-representation building.
//!
//! Besides mapping locations to objects, the heap assigns every object its per-class
//! creation sequence number and builds the [`ObjRep`]s / [`ValueRepr`]s (`E'#` of Fig. 8)
//! that get embedded in trace entries.

use std::collections::{HashMap, HashSet};

use rprism_lang::{ClassName, FieldName};
use rprism_trace::{CreationSeq, Loc, ObjRep, ValueRepr};

use crate::error::RuntimeError;
use crate::value::Value;

/// A heap object: its dynamic class, its fields, and its creation sequence number.
#[derive(Clone, Debug)]
pub struct HeapObject {
    /// The dynamic class of the object.
    pub class: ClassName,
    /// Field values, in `fields(C)` declaration order.
    pub fields: Vec<(FieldName, Value)>,
    /// The per-class creation sequence number of this object.
    pub creation_seq: CreationSeq,
}

impl HeapObject {
    /// Reads a field value.
    pub fn field(&self, name: &FieldName) -> Option<&Value> {
        self.fields.iter().find(|(f, _)| f == name).map(|(_, v)| v)
    }

    /// Writes a field value, returning `false` when the field does not exist.
    pub fn set_field(&mut self, name: &FieldName, value: Value) -> bool {
        if let Some(slot) = self.fields.iter_mut().find(|(f, _)| f == name) {
            slot.1 = value;
            true
        } else {
            false
        }
    }
}

/// The object store.
#[derive(Clone, Debug, Default)]
pub struct Heap {
    objects: Vec<HeapObject>,
    creation_counters: HashMap<ClassName, u64>,
    /// Classes whose value representations are forced to be opaque (the "default
    /// hashCode/toString" objects of §5).
    opaque_classes: HashSet<ClassName>,
    /// Maximum recursion depth when serializing object graphs.
    repr_depth: usize,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new(opaque_classes: HashSet<ClassName>, repr_depth: usize) -> Self {
        Heap {
            objects: Vec::new(),
            creation_counters: HashMap::new(),
            opaque_classes,
            repr_depth: repr_depth.max(1),
        }
    }

    /// Number of allocated objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Returns `true` when nothing has been allocated.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Allocates a new object of `class` with the given ordered field values and returns
    /// its location.
    pub fn allocate(&mut self, class: ClassName, fields: Vec<(FieldName, Value)>) -> Loc {
        let counter = self.creation_counters.entry(class.clone()).or_insert(0);
        let seq = CreationSeq(*counter);
        *counter += 1;
        let loc = Loc(self.objects.len() as u64);
        self.objects.push(HeapObject {
            class,
            fields,
            creation_seq: seq,
        });
        loc
    }

    /// Returns the object at `loc`.
    ///
    /// # Panics
    ///
    /// Panics if the location was not produced by [`Heap::allocate`] on this heap —
    /// impossible for locations flowing through the interpreter.
    pub fn object(&self, loc: Loc) -> &HeapObject {
        &self.objects[loc.0 as usize]
    }

    /// Mutable access to the object at `loc`.
    pub fn object_mut(&mut self, loc: Loc) -> &mut HeapObject {
        &mut self.objects[loc.0 as usize]
    }

    /// Reads `target.field`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownField`] when the object has no such field.
    pub fn read_field(&self, loc: Loc, field: &FieldName) -> Result<Value, RuntimeError> {
        let obj = self.object(loc);
        obj.field(field)
            .cloned()
            .ok_or_else(|| RuntimeError::UnknownField {
                class: obj.class.as_str().to_owned(),
                field: field.as_str().to_owned(),
            })
    }

    /// Writes `target.field = value`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownField`] when the object has no such field.
    pub fn write_field(
        &mut self,
        loc: Loc,
        field: &FieldName,
        value: Value,
    ) -> Result<(), RuntimeError> {
        let obj = self.object_mut(loc);
        if obj.set_field(field, value) {
            Ok(())
        } else {
            Err(RuntimeError::UnknownField {
                class: obj.class.as_str().to_owned(),
                field: field.as_str().to_owned(),
            })
        }
    }

    /// Builds the recursive value serialization (`E'#`) of a runtime value, bounded by the
    /// configured depth and protected against reference cycles.
    pub fn value_repr(&self, value: &Value) -> ValueRepr {
        let mut visited = HashSet::new();
        self.value_repr_rec(value, self.repr_depth, &mut visited)
    }

    fn value_repr_rec(&self, value: &Value, depth: usize, visited: &mut HashSet<Loc>) -> ValueRepr {
        match value {
            Value::Null => ValueRepr::Null,
            Value::Prim(p) => ValueRepr::Prim {
                type_name: p.prim_type().name().to_owned(),
                printed: p.printed(),
            },
            Value::Ref { loc, class } => {
                if self.opaque_classes.contains(class) {
                    return ValueRepr::Opaque;
                }
                if depth == 0 || visited.contains(loc) {
                    return ValueRepr::Truncated;
                }
                visited.insert(*loc);
                let obj = self.object(*loc);
                let fields = obj
                    .fields
                    .iter()
                    .map(|(_, v)| self.value_repr_rec(v, depth - 1, visited))
                    .collect();
                visited.remove(loc);
                ValueRepr::Object {
                    class: class.as_str().to_owned(),
                    fields,
                }
            }
        }
    }

    /// Builds the trace object representation of a runtime value (the `E'#` projection
    /// plus class and creation-sequence metadata).
    pub fn obj_rep(&self, value: &Value) -> ObjRep {
        match value {
            Value::Null => ObjRep::null(),
            Value::Prim(p) => ObjRep::prim(p.prim_type().name(), p.printed()),
            Value::Ref { loc, class } => {
                let seq = self.object(*loc).creation_seq;
                if self.opaque_classes.contains(class) {
                    ObjRep::opaque_object(*loc, class.as_str(), seq)
                } else {
                    let repr = self.value_repr(value);
                    ObjRep::object(*loc, class.as_str(), seq, &repr)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::PrimValue;

    fn int(v: i64) -> Value {
        Value::Prim(PrimValue::Int(v))
    }

    fn heap() -> Heap {
        Heap::new(HashSet::new(), 4)
    }

    #[test]
    fn allocation_assigns_per_class_sequence_numbers() {
        let mut h = heap();
        let a1 = h.allocate(ClassName::new("A"), vec![]);
        let _b1 = h.allocate(ClassName::new("B"), vec![]);
        let a2 = h.allocate(ClassName::new("A"), vec![]);
        assert_eq!(h.object(a1).creation_seq, CreationSeq(0));
        assert_eq!(h.object(a2).creation_seq, CreationSeq(1));
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn field_read_write_round_trip() {
        let mut h = heap();
        let loc = h.allocate(
            ClassName::new("Counter"),
            vec![(FieldName::new("count"), int(0))],
        );
        assert_eq!(h.read_field(loc, &FieldName::new("count")).unwrap(), int(0));
        h.write_field(loc, &FieldName::new("count"), int(7))
            .unwrap();
        assert_eq!(h.read_field(loc, &FieldName::new("count")).unwrap(), int(7));
        assert!(matches!(
            h.read_field(loc, &FieldName::new("ghost")),
            Err(RuntimeError::UnknownField { .. })
        ));
        assert!(matches!(
            h.write_field(loc, &FieldName::new("ghost"), int(1)),
            Err(RuntimeError::UnknownField { .. })
        ));
    }

    #[test]
    fn value_repr_serializes_nested_objects() {
        let mut h = heap();
        let inner = h.allocate(
            ClassName::new("Range"),
            vec![
                (FieldName::new("min"), int(32)),
                (FieldName::new("max"), int(127)),
            ],
        );
        let outer = h.allocate(
            ClassName::new("Filter"),
            vec![(
                FieldName::new("range"),
                Value::Ref {
                    loc: inner,
                    class: ClassName::new("Range"),
                },
            )],
        );
        let rep = h.obj_rep(&Value::Ref {
            loc: outer,
            class: ClassName::new("Filter"),
        });
        assert!(rep.printed.contains("Range"));
        assert!(rep.printed.contains("32"));
        assert!(rep.fingerprint.is_meaningful());
    }

    #[test]
    fn cyclic_object_graphs_do_not_diverge() {
        let mut h = heap();
        let a = h.allocate(
            ClassName::new("Node"),
            vec![(FieldName::new("next"), Value::Null)],
        );
        let b = h.allocate(
            ClassName::new("Node"),
            vec![(
                FieldName::new("next"),
                Value::Ref {
                    loc: a,
                    class: ClassName::new("Node"),
                },
            )],
        );
        h.write_field(
            a,
            &FieldName::new("next"),
            Value::Ref {
                loc: b,
                class: ClassName::new("Node"),
            },
        )
        .unwrap();
        // Serialization terminates and produces a truncated marker somewhere.
        let rep = h.value_repr(&Value::Ref {
            loc: a,
            class: ClassName::new("Node"),
        });
        let printed = rep.printed();
        assert!(printed.contains("Node"));
    }

    #[test]
    fn opaque_classes_produce_empty_fingerprints() {
        let mut opaque = HashSet::new();
        opaque.insert(ClassName::new("Logger"));
        let mut h = Heap::new(opaque, 4);
        let loc = h.allocate(
            ClassName::new("Logger"),
            vec![(FieldName::new("n"), int(3))],
        );
        let rep = h.obj_rep(&Value::Ref {
            loc,
            class: ClassName::new("Logger"),
        });
        assert!(!rep.fingerprint.is_meaningful());
        assert!(rep.printed.is_empty());
        assert_eq!(rep.creation_seq, Some(CreationSeq(0)));
    }

    #[test]
    fn prim_and_null_reps() {
        let h = heap();
        assert_eq!(h.obj_rep(&Value::Null), ObjRep::null());
        let rep = h.obj_rep(&int(42));
        assert_eq!(rep.class, "Int");
        assert_eq!(rep.printed, "42");
    }

    #[test]
    fn identical_states_in_different_heaps_have_equal_fingerprints() {
        let mk = || {
            let mut h = heap();
            let loc = h.allocate(
                ClassName::new("Range"),
                vec![
                    (FieldName::new("min"), int(32)),
                    (FieldName::new("max"), int(127)),
                ],
            );
            h.obj_rep(&Value::Ref {
                loc,
                class: ClassName::new("Range"),
            })
        };
        // Fingerprints are the cross-execution identity: building the same logical object
        // in two separate heaps must produce the same fingerprint.
        assert_eq!(mk().fingerprint, mk().fingerprint);
    }
}
