//! Event equality `=e` and canonical event keys.
//!
//! Fig. 9 of the paper defines event equality as: *"True if the underlying primitive
//! values (including those generated by `E#` in Fig. 8) of the events of the two entries
//! are equal."* Crucially, equality is over the version-stable value representations —
//! never over heap locations or entry/thread identifiers, which differ arbitrarily between
//! executions.
//!
//! [`EventKey`] is a hashable canonicalization of exactly the information `=e` compares;
//! two entries are `=e`-equal iff their keys are equal. Keys are what the regression-cause
//! analysis stores in its difference sets, and what the LCS implementations hash to speed
//! up comparisons.

use crate::entry::TraceEntry;
use crate::event::Event;
use crate::objrep::{ObjRep, ValueFingerprint};

/// The event-equality relation `=e` of Fig. 9.
///
/// Compares the event kind, any field/method/class names, and the value fingerprints of
/// every operand. Entry ids, thread ids and heap locations are ignored.
///
/// This is the *non-keyed* fallback path: it compares the two events structurally, in
/// place, without materializing [`EventKey`]s (hot loops should prefer
/// [`KeyedTrace`](crate::keyed::KeyedTrace), which precomputes interned keys once per
/// trace).
pub fn event_eq(a: &TraceEntry, b: &TraceEntry) -> bool {
    events_eq(&a.event, &b.event)
}

/// `=e` on bare events: short-circuits on the kind tag, then compares names and operand
/// value identities pairwise without allocating.
pub fn events_eq(a: &Event, b: &Event) -> bool {
    fn op_eq(a: &ObjRep, b: &ObjRep) -> bool {
        a.value_identity() == b.value_identity()
    }
    fn ops_eq(a: &[ObjRep], b: &[ObjRep]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| op_eq(x, y))
    }
    match (a, b) {
        (
            Event::Get {
                target: t1,
                field: f1,
                value: v1,
            },
            Event::Get {
                target: t2,
                field: f2,
                value: v2,
            },
        )
        | (
            Event::Set {
                target: t1,
                field: f1,
                value: v1,
            },
            Event::Set {
                target: t2,
                field: f2,
                value: v2,
            },
        ) => f1 == f2 && op_eq(t1, t2) && op_eq(v1, v2),
        (
            Event::Call {
                target: t1,
                method: m1,
                args: a1,
            },
            Event::Call {
                target: t2,
                method: m2,
                args: a2,
            },
        ) => m1 == m2 && op_eq(t1, t2) && ops_eq(a1, a2),
        (
            Event::Return {
                target: t1,
                method: m1,
                value: v1,
            },
            Event::Return {
                target: t2,
                method: m2,
                value: v2,
            },
        ) => m1 == m2 && op_eq(t1, t2) && op_eq(v1, v2),
        (
            Event::Init {
                class: c1,
                args: a1,
                result: r1,
            },
            Event::Init {
                class: c2,
                args: a2,
                result: r2,
            },
        ) => c1 == c2 && ops_eq(a1, a2) && op_eq(r1, r2),
        (Event::Fork { .. }, Event::Fork { .. }) | (Event::End { .. }, Event::End { .. }) => true,
        _ => false,
    }
}

/// A canonical, hashable key capturing exactly what `=e` compares.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct EventKey {
    /// A small tag identifying the event form (`"get"`, `"set"`, `"call"`, …).
    pub tag: &'static str,
    /// The field, method or class name the event mentions, if any.
    pub name: Option<String>,
    /// The class names and value fingerprints of every operand, in event order.
    pub operands: Vec<(String, ValueFingerprint)>,
}

impl EventKey {
    /// Builds the key of a trace entry.
    pub fn of(entry: &TraceEntry) -> EventKey {
        Self::of_event(&entry.event)
    }

    /// Builds the key of a bare event.
    pub fn of_event(event: &Event) -> EventKey {
        let (tag, name): (&'static str, Option<String>) = match event {
            Event::Get { field, .. } => ("get", Some(field.as_str().to_owned())),
            Event::Set { field, .. } => ("set", Some(field.as_str().to_owned())),
            Event::Call { method, .. } => ("call", Some(method.as_str().to_owned())),
            Event::Return { method, .. } => ("return", Some(method.as_str().to_owned())),
            Event::Init { class, .. } => ("init", Some(class.clone())),
            Event::Fork { .. } => ("fork", None),
            Event::End { .. } => ("end", None),
        };
        let operands = event
            .operands()
            .into_iter()
            .map(|o: &ObjRep| (o.class.clone(), o.fingerprint))
            .collect();
        EventKey {
            tag,
            name,
            operands,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{EntryId, ThreadId};
    use crate::objrep::{CreationSeq, Loc};
    use rprism_lang::{FieldName, MethodName};

    fn entry(eid: u64, tid: u64, event: Event) -> TraceEntry {
        TraceEntry::new(
            EntryId(eid),
            ThreadId(tid),
            MethodName::new("m"),
            ObjRep::opaque_object(Loc(eid), "Ctx", CreationSeq(0)),
            event,
        )
    }

    fn set_event(loc: u64, field: &str, value: i64) -> Event {
        Event::Set {
            target: ObjRep::opaque_object(Loc(loc), "NUM", CreationSeq(0)),
            field: FieldName::new(field),
            value: ObjRep::prim("Int", value.to_string()),
        }
    }

    #[test]
    fn equality_ignores_entry_thread_and_location() {
        let a = entry(3, 0, set_event(10, "_min", 32));
        let b = entry(99, 7, set_event(42, "_min", 32));
        assert!(event_eq(&a, &b));
    }

    #[test]
    fn equality_distinguishes_values() {
        let a = entry(1, 0, set_event(10, "_min", 32));
        let b = entry(1, 0, set_event(10, "_min", 1));
        assert!(!event_eq(&a, &b));
    }

    #[test]
    fn equality_distinguishes_fields_and_kinds() {
        let a = entry(1, 0, set_event(10, "_min", 32));
        let b = entry(1, 0, set_event(10, "_max", 32));
        assert!(!event_eq(&a, &b));

        let get = entry(
            1,
            0,
            Event::Get {
                target: ObjRep::opaque_object(Loc(10), "NUM", CreationSeq(0)),
                field: FieldName::new("_min"),
                value: ObjRep::prim("Int", "32"),
            },
        );
        assert!(!event_eq(&a, &get));
    }

    #[test]
    fn call_keys_compare_method_and_arguments() {
        let mk = |arg: &str| {
            entry(
                0,
                0,
                Event::Call {
                    target: ObjRep::opaque_object(Loc(1), "SP", CreationSeq(0)),
                    method: MethodName::new("setRequestType"),
                    args: vec![ObjRep::prim("Str", arg)],
                },
            )
        };
        assert!(event_eq(&mk("text/html"), &mk("text/html")));
        assert!(!event_eq(&mk("text/html"), &mk("text/plain")));
    }

    #[test]
    fn keys_are_hashable_and_deduplicate() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(EventKey::of(&entry(0, 0, set_event(1, "_min", 32))));
        set.insert(EventKey::of(&entry(5, 2, set_event(9, "_min", 32))));
        set.insert(EventKey::of(&entry(6, 0, set_event(1, "_min", 1))));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn fork_and_end_compare_by_kind_only() {
        let f1 = entry(
            0,
            0,
            Event::Fork {
                child: ThreadId(1),
                parentage: vec![],
            },
        );
        let f2 = entry(
            9,
            3,
            Event::Fork {
                child: ThreadId(5),
                parentage: vec![],
            },
        );
        assert!(event_eq(&f1, &f2));
    }
}
