//! Hand-built fixture traces for the rule engine: one clean trace that satisfies every
//! rule, and one minimal violating trace per rule that trips *exactly* that rule.
//!
//! The fixtures mirror the instrumentation semantics faithfully (calls emitted in the
//! caller's context before the push, returns after the pop, `<main>` root frames, fork
//! parentage snapshots, per-class creation sequences), so they double as executable
//! documentation of what a well-formed trace looks like. The exhaustive test at the
//! bottom walks the whole registry and asserts the one-rule-per-fixture property — the
//! engine's cascade-avoidance gate.

use rprism_lang::{FieldName, MethodName};
use rprism_trace::{
    CreationSeq, EntryId, Event, Loc, ObjRep, StackFrame, StackSnapshot, ThreadId, Trace,
    TraceEntry,
};

/// An opaque heap object of `class` with per-class creation sequence `seq` at heap
/// location `loc`.
fn obj(class: &str, seq: u64, loc: u64) -> ObjRep {
    ObjRep::opaque_object(Loc(loc), class, CreationSeq(seq))
}

fn prim() -> ObjRep {
    ObjRep::prim("Int", "1")
}

/// The synthetic root frame END-E and FORK-E record: `<main>` invoked on `receiver`
/// from a null caller.
fn root_snapshot(receiver: &ObjRep) -> StackSnapshot {
    StackSnapshot::new(vec![StackFrame::new(
        MethodName::toplevel(),
        ObjRep::null(),
        receiver.clone(),
    )])
}

/// Trace construction helper: appends entries with positional eids.
struct Builder {
    trace: Trace,
}

impl Builder {
    fn new(name: &str) -> Builder {
        Builder {
            trace: Trace::named(name),
        }
    }

    fn push(&mut self, tid: u64, method: &str, active: ObjRep, event: Event) -> &mut Self {
        // `Trace::push` renumbers eids positionally; the placeholder id is irrelevant.
        self.trace.push(TraceEntry::new(
            EntryId(0),
            ThreadId(tid),
            MethodName::new(method),
            active,
            event,
        ));
        self
    }

    fn init(&mut self, tid: u64, method: &str, active: ObjRep, result: ObjRep) -> &mut Self {
        let class = result.class.clone();
        self.push(
            tid,
            method,
            active,
            Event::Init {
                class,
                args: vec![prim()],
                result,
            },
        )
    }

    fn end(&mut self, tid: u64, receiver: ObjRep) -> &mut Self {
        let stack = root_snapshot(&receiver);
        self.push(tid, "<main>", receiver, Event::End { stack })
    }

    fn done(&mut self) -> Trace {
        std::mem::replace(&mut self.trace, Trace::named("spent"))
    }
}

/// A small two-thread trace that satisfies every rule: an init/call/return cycle on the
/// main thread, a fork with a faithful parentage snapshot, a thread-confined child, and
/// proper end events.
pub fn clean_trace() -> Trace {
    let null = ObjRep::null();
    let worker = obj("Worker", 0, 1);
    let logger = obj("Logger", 0, 2);
    let mut b = Builder::new("fixtures/clean");
    b.init(0, "<main>", null.clone(), worker.clone());
    b.push(
        0,
        "<main>",
        null.clone(),
        Event::Call {
            target: worker.clone(),
            method: MethodName::new("work"),
            args: vec![prim()],
        },
    );
    b.push(
        0,
        "work",
        worker.clone(),
        Event::Get {
            target: worker.clone(),
            field: FieldName::new("count"),
            value: prim(),
        },
    );
    b.push(
        0,
        "work",
        worker.clone(),
        Event::Set {
            target: worker.clone(),
            field: FieldName::new("count"),
            value: prim(),
        },
    );
    b.push(
        0,
        "<main>",
        null.clone(),
        Event::Return {
            target: worker.clone(),
            method: MethodName::new("work"),
            value: prim(),
        },
    );
    b.push(
        0,
        "<main>",
        null.clone(),
        Event::Fork {
            child: ThreadId(1),
            parentage: vec![root_snapshot(&null)],
        },
    );
    b.init(1, "<main>", null.clone(), logger.clone());
    b.push(
        1,
        "<main>",
        null.clone(),
        Event::Set {
            target: logger.clone(),
            field: FieldName::new("count"),
            value: prim(),
        },
    );
    b.end(1, null.clone());
    b.push(
        0,
        "<main>",
        null.clone(),
        Event::Get {
            target: worker.clone(),
            field: FieldName::new("count"),
            value: prim(),
        },
    );
    b.end(0, null);
    b.done()
}

/// A minimal trace violating exactly the rule `rule_id`.
///
/// # Panics
///
/// Panics when `rule_id` is not in the registry ([`crate::rules::RULES`]).
pub fn violating(rule_id: &str) -> Trace {
    let null = ObjRep::null();
    let worker = obj("Worker", 0, 1);
    let mut b = Builder::new(&format!("fixtures/{rule_id}"));
    match rule_id {
        "entry-id-order" => {
            b.init(0, "<main>", null.clone(), worker);
            b.end(0, null);
            let mut trace = b.done();
            trace.entries[0].eid = EntryId(5);
            return trace;
        }
        "return-without-call" => {
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Return {
                    target: null.clone(),
                    method: MethodName::new("work"),
                    value: null.clone(),
                },
            );
            b.end(0, null);
        }
        "return-method-mismatch" => {
            b.init(0, "<main>", null.clone(), worker.clone());
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Call {
                    target: worker.clone(),
                    method: MethodName::new("work"),
                    args: vec![],
                },
            );
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Return {
                    target: worker,
                    method: MethodName::new("other"),
                    value: prim(),
                },
            );
            b.end(0, null);
        }
        "method-context" => {
            b.init(0, "<main>", null.clone(), worker.clone());
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Call {
                    target: worker.clone(),
                    method: MethodName::new("work"),
                    args: vec![],
                },
            );
            b.push(
                0,
                "wrong",
                worker.clone(),
                Event::Get {
                    target: worker.clone(),
                    field: FieldName::new("count"),
                    value: prim(),
                },
            );
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Return {
                    target: worker,
                    method: MethodName::new("work"),
                    value: prim(),
                },
            );
            b.end(0, null);
        }
        "active-context" => {
            let logger = obj("Logger", 0, 2);
            b.init(0, "<main>", null.clone(), worker.clone());
            b.init(0, "<main>", null.clone(), logger.clone());
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Call {
                    target: worker.clone(),
                    method: MethodName::new("work"),
                    args: vec![],
                },
            );
            b.push(
                0,
                "work",
                logger,
                Event::Get {
                    target: worker.clone(),
                    field: FieldName::new("count"),
                    value: prim(),
                },
            );
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Return {
                    target: worker,
                    method: MethodName::new("work"),
                    value: prim(),
                },
            );
            b.end(0, null);
        }
        "unclosed-call" => {
            b.init(0, "<main>", null.clone(), worker.clone());
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Call {
                    target: worker,
                    method: MethodName::new("work"),
                    args: vec![],
                },
            );
            b.end(0, null);
        }
        "end-stack" => {
            b.init(0, "<main>", null.clone(), worker.clone());
            let deep = StackSnapshot::new(vec![
                StackFrame::new(MethodName::toplevel(), ObjRep::null(), null.clone()),
                StackFrame::new(MethodName::new("work"), null.clone(), worker),
            ]);
            b.push(0, "<main>", null, Event::End { stack: deep });
        }
        "missing-end" => {
            b.init(0, "<main>", null, worker);
        }
        "thread-after-end" => {
            b.init(0, "<main>", null.clone(), worker.clone());
            b.end(0, null.clone());
            b.push(
                0,
                "<main>",
                null,
                Event::Get {
                    target: worker,
                    field: FieldName::new("count"),
                    value: prim(),
                },
            );
        }
        "fork-self" => {
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Fork {
                    child: ThreadId(0),
                    parentage: vec![root_snapshot(&null)],
                },
            );
            b.end(0, null);
        }
        "duplicate-fork" => {
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Fork {
                    child: ThreadId(1),
                    parentage: vec![root_snapshot(&null)],
                },
            );
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Fork {
                    child: ThreadId(1),
                    parentage: vec![root_snapshot(&null)],
                },
            );
            b.end(0, null);
        }
        "orphan-thread" => {
            b.init(1, "<main>", null.clone(), worker);
            b.end(1, null);
        }
        "fork-parentage" => {
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Fork {
                    child: ThreadId(1),
                    parentage: vec![],
                },
            );
            b.end(0, null);
        }
        "define-before-use" => {
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Get {
                    target: obj("Worker", 7, 9),
                    field: FieldName::new("count"),
                    value: prim(),
                },
            );
            b.end(0, null);
        }
        "duplicate-init" => {
            b.init(0, "<main>", null.clone(), worker.clone());
            b.init(0, "<main>", null.clone(), worker);
            b.end(0, null);
        }
        "use-after-death" => {
            b.init(0, "<main>", null.clone(), worker.clone());
            // A later init reuses location 1: Worker#0 is dead from here on.
            b.init(0, "<main>", null.clone(), obj("Logger", 0, 1));
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Get {
                    target: worker,
                    field: FieldName::new("count"),
                    value: prim(),
                },
            );
            b.end(0, null);
        }
        "identity-confusion" => {
            b.init(0, "<main>", null.clone(), worker);
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Get {
                    target: obj("Worker", 0, 2),
                    field: FieldName::new("count"),
                    value: prim(),
                },
            );
            b.end(0, null);
        }
        "init-order" => {
            b.init(0, "<main>", null.clone(), obj("Worker", 1, 1));
            b.init(0, "<main>", null.clone(), obj("Worker", 0, 2));
            b.end(0, null);
        }
        "data-race" => {
            let shared = obj("Shared", 0, 1);
            b.init(0, "<main>", null.clone(), shared.clone());
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Fork {
                    child: ThreadId(1),
                    parentage: vec![root_snapshot(&null)],
                },
            );
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Fork {
                    child: ThreadId(2),
                    parentage: vec![root_snapshot(&null)],
                },
            );
            b.push(
                1,
                "<main>",
                null.clone(),
                Event::Set {
                    target: shared.clone(),
                    field: FieldName::new("f"),
                    value: prim(),
                },
            );
            b.push(
                2,
                "<main>",
                null.clone(),
                Event::Set {
                    target: shared,
                    field: FieldName::new("f"),
                    value: prim(),
                },
            );
            b.end(1, null.clone());
            b.end(2, null.clone());
            b.end(0, null);
        }
        "name-wellformed" => {
            b.init(0, "<main>", null.clone(), worker.clone());
            b.push(
                0,
                "<main>",
                null.clone(),
                Event::Get {
                    target: worker,
                    field: FieldName::new(""),
                    value: prim(),
                },
            );
            b.end(0, null);
        }
        other => panic!("no violating fixture for unknown rule id {other:?}"),
    }
    b.done()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_trace;
    use crate::rules;

    #[test]
    fn the_clean_fixture_is_clean() {
        let report = check_trace(&clean_trace());
        assert!(
            report.is_clean(),
            "clean fixture produced diagnostics: {:#?}",
            report.diagnostics
        );
        assert_eq!(report.threads, 2);
    }

    /// The cascade-avoidance gate: every rule has a fixture that trips it and *only* it.
    #[test]
    fn every_rule_has_a_single_rule_negative_fixture() {
        for rule in rules::RULES {
            let report = check_trace(&violating(rule.id));
            assert!(
                !report.diagnostics.is_empty(),
                "fixture for {} tripped nothing",
                rule.id
            );
            for diag in &report.diagnostics {
                assert_eq!(
                    diag.rule_id, rule.id,
                    "fixture for {} also tripped {}: {:#?}",
                    rule.id, diag.rule_id, report.diagnostics
                );
            }
            assert_eq!(
                report.diagnostics.len(),
                1,
                "fixture for {} fired more than once: {:#?}",
                rule.id,
                report.diagnostics
            );
        }
    }

    #[test]
    fn default_severities_match_the_registry() {
        for rule in rules::RULES {
            let report = check_trace(&violating(rule.id));
            assert_eq!(report.diagnostics[0].severity, rule.default_severity);
        }
    }

    #[test]
    #[should_panic(expected = "unknown rule id")]
    fn unknown_rule_ids_panic() {
        violating("no-such-rule");
    }
}
