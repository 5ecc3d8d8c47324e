//! The trace event grammar (paper Fig. 4).
//!
//! ```text
//! event e ::= FE | ME | KE | TE
//! field  event FE ::= get(θ, f, θ) | set(θ, f, θ)
//! method event ME ::= call(θ, m, θ̄) | return(θ, m, θ)
//! object event KE ::= init(A, θ̄, θ)
//! thread event TE ::= fork(S̄) | end(S)
//! ```

use rprism_lang::{FieldName, MethodName};

use crate::entry::ThreadId;
use crate::objrep::ObjRep;
use crate::stack::StackSnapshot;

/// A trace event: the specific action captured by a trace entry.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// Field read `get(θ, f, θ')`: field `f` of target `θ` was read, yielding `θ'`.
    Get {
        /// The object whose field is read.
        target: ObjRep,
        /// The field name.
        field: FieldName,
        /// The value read.
        value: ObjRep,
    },
    /// Field write `set(θ, f, θ')`: field `f` of target `θ` was assigned `θ'`.
    Set {
        /// The object whose field is written.
        target: ObjRep,
        /// The field name.
        field: FieldName,
        /// The value written.
        value: ObjRep,
    },
    /// Method invocation `call(θ, m, θ̄)`: method `m` invoked on target `θ` with
    /// arguments `θ̄`. The calling context is captured by the enclosing entry.
    Call {
        /// The receiver of the call.
        target: ObjRep,
        /// The invoked method.
        method: MethodName,
        /// Argument representations.
        args: Vec<ObjRep>,
    },
    /// Method return `return(θ, m, θ')`: method `m` of object `θ` returned value `θ'`.
    Return {
        /// The object returned from.
        target: ObjRep,
        /// The method returned from.
        method: MethodName,
        /// The return value.
        value: ObjRep,
    },
    /// Object creation `init(A, θ̄, θ')`: an instance of `A` was constructed with
    /// arguments `θ̄`, yielding the object `θ'`.
    Init {
        /// The name of the constructed class (or primitive type).
        class: String,
        /// Constructor argument representations.
        args: Vec<ObjRep>,
        /// The representation of the freshly created object.
        result: ObjRep,
    },
    /// Thread creation `fork(S̄)`: a new thread was spawned; `parentage` records the
    /// spawn-point call stack of the spawning thread and (recursively) of its ancestors.
    Fork {
        /// The id of the newly created thread.
        child: ThreadId,
        /// Spawn-point stacks: index 0 is the spawning thread's stack at the spawn point,
        /// index 1 the spawner's spawner, and so on.
        parentage: Vec<StackSnapshot>,
    },
    /// Thread completion `end(S)`: the thread finished with the recorded final stack.
    End {
        /// The stack at thread completion (normally just the synthetic top-level frame).
        stack: StackSnapshot,
    },
}

/// A coarse classification of events, used for filtering, statistics and reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    /// A field read.
    Get,
    /// A field write.
    Set,
    /// A method call.
    Call,
    /// A method return.
    Return,
    /// An object creation.
    Init,
    /// A thread fork.
    Fork,
    /// A thread end.
    End,
}

impl Event {
    /// The kind of this event.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::Get { .. } => EventKind::Get,
            Event::Set { .. } => EventKind::Set,
            Event::Call { .. } => EventKind::Call,
            Event::Return { .. } => EventKind::Return,
            Event::Init { .. } => EventKind::Init,
            Event::Fork { .. } => EventKind::Fork,
            Event::End { .. } => EventKind::End,
        }
    }

    /// The *target object* of the event, as used by the target-object view mapping
    /// `σ_TO` (Fig. 7): the receiver of calls/returns, the accessed object of field
    /// events, and the created object of `init` events. Thread events have no target.
    pub fn target_object(&self) -> Option<&ObjRep> {
        match self {
            Event::Get { target, .. }
            | Event::Set { target, .. }
            | Event::Call { target, .. }
            | Event::Return { target, .. } => Some(target),
            Event::Init { result, .. } => Some(result),
            Event::Fork { .. } | Event::End { .. } => None,
        }
    }

    /// The method named by the event, if any (calls and returns).
    pub fn method(&self) -> Option<&MethodName> {
        match self {
            Event::Call { method, .. } | Event::Return { method, .. } => Some(method),
            _ => None,
        }
    }

    /// The field named by the event, if any (gets and sets).
    pub fn field(&self) -> Option<&FieldName> {
        match self {
            Event::Get { field, .. } | Event::Set { field, .. } => Some(field),
            _ => None,
        }
    }

    /// All object representations mentioned by the event, in a fixed order. Used for
    /// event equality, rendering and statistics.
    pub fn operands(&self) -> Vec<&ObjRep> {
        match self {
            Event::Get { target, value, .. } | Event::Set { target, value, .. } => {
                vec![target, value]
            }
            Event::Call { target, args, .. } => {
                let mut v = vec![target];
                v.extend(args.iter());
                v
            }
            Event::Return { target, value, .. } => vec![target, value],
            Event::Init { args, result, .. } => {
                let mut v: Vec<&ObjRep> = args.iter().collect();
                v.push(result);
                v
            }
            Event::Fork { .. } | Event::End { .. } => Vec::new(),
        }
    }

    /// A compact single-line rendering of the event, similar to the listings in the
    /// paper's Fig. 13 (`--> SP-1.setRequestType('text/html')`, `set NUM-1._min = 32`, …).
    pub fn render(&self) -> String {
        match self {
            Event::Get {
                target,
                field,
                value,
            } => format!("get {target}.{field} = {value}"),
            Event::Set {
                target,
                field,
                value,
            } => format!("set {target}.{field} = {value}"),
            Event::Call {
                target,
                method,
                args,
            } => {
                let rendered: Vec<String> = args.iter().map(ToString::to_string).collect();
                format!("--> {target}.{method}({})", rendered.join(", "))
            }
            Event::Return {
                target,
                method,
                value,
            } => format!("<-- {target}.{method}(..) ret={value}"),
            Event::Init {
                class,
                args,
                result,
            } => {
                let rendered: Vec<String> = args.iter().map(ToString::to_string).collect();
                format!("new {class}({}) => {result}", rendered.join(", "))
            }
            Event::Fork { child, parentage } => {
                format!(
                    "fork thread {} (ancestry depth {})",
                    child.0,
                    parentage.len()
                )
            }
            Event::End { .. } => "end thread".to_owned(),
        }
    }
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objrep::{CreationSeq, Loc};

    fn obj(class: &str, seq: u64) -> ObjRep {
        ObjRep::opaque_object(Loc(seq), class, CreationSeq(seq))
    }

    #[test]
    fn kinds_are_reported() {
        let e = Event::Get {
            target: obj("A", 0),
            field: FieldName::new("x"),
            value: ObjRep::prim("Int", "1"),
        };
        assert_eq!(e.kind(), EventKind::Get);
        assert_eq!(
            Event::End {
                stack: StackSnapshot::empty()
            }
            .kind(),
            EventKind::End
        );
    }

    #[test]
    fn target_object_follows_fig7() {
        let call = Event::Call {
            target: obj("SP", 0),
            method: MethodName::new("setRequestType"),
            args: vec![ObjRep::prim("Str", "text/html")],
        };
        assert_eq!(call.target_object().unwrap().class, "SP");

        let init = Event::Init {
            class: "NUM".into(),
            args: vec![],
            result: obj("NUM", 1),
        };
        assert_eq!(init.target_object().unwrap().class, "NUM");

        let fork = Event::Fork {
            child: ThreadId(1),
            parentage: vec![],
        };
        assert!(fork.target_object().is_none());
    }

    #[test]
    fn operands_include_args_and_results() {
        let init = Event::Init {
            class: "NUM".into(),
            args: vec![ObjRep::prim("Int", "32"), ObjRep::prim("Int", "127")],
            result: obj("NUM", 1),
        };
        assert_eq!(init.operands().len(), 3);
        let ret = Event::Return {
            target: obj("A", 0),
            method: MethodName::new("m"),
            value: ObjRep::prim("Bool", "true"),
        };
        assert_eq!(ret.operands().len(), 2);
    }

    #[test]
    fn render_is_compact_and_informative() {
        let call = Event::Call {
            target: obj("SP", 0),
            method: MethodName::new("setRequestType"),
            args: vec![ObjRep::prim("Str", "text/html")],
        };
        let s = call.render();
        assert!(s.contains("-->"));
        assert!(s.contains("setRequestType"));
        assert!(s.contains("text/html"));
        assert!(!Event::End {
            stack: StackSnapshot::empty()
        }
        .render()
        .is_empty());
    }

    #[test]
    fn method_and_field_accessors() {
        let set = Event::Set {
            target: obj("A", 0),
            field: FieldName::new("_minCharRange"),
            value: ObjRep::prim("Int", "32"),
        };
        assert_eq!(set.field().unwrap().as_str(), "_minCharRange");
        assert!(set.method().is_none());
    }
}
