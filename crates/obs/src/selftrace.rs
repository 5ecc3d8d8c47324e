//! Self-tracing: the observer's recent execution replayed onto the trace model.
//!
//! The span ring holds complete `(name, thread, start, end)` records; this module
//! rebuilds the call nesting per thread from interval containment and emits a trace
//! that follows the instrumentation semantics the `rprism-check` rules enforce —
//! calls in the caller's context before the push, returns after the pop, `<main>`
//! root frames with a null root receiver, fork parentage snapshots, per-class
//! creation sequences, and an `end` per thread. The result is *lint-clean by
//! construction*: a server can hand its own execution to `rprism check --deny error`
//! and `rprism diff` like any stored trace.
//!
//! Mapping:
//!
//! * every distinct span name becomes one `Span` object (`init`ed up front with the
//!   name as the constructor argument) — span begin/end become `call`/`return` on
//!   that object, the return value carrying the duration in microseconds;
//! * every observer thread becomes a trace thread forked from the synthetic root
//!   thread 0 (the serializer itself), so thread-view correlation across two
//!   self-traces works out of the box;
//! * the metric snapshot is written as `set` events on a `Metrics` object from the
//!   root thread, one field per counter/gauge — diffing two self-traces surfaces
//!   metric drift as field-event differences.
//!
//! Ring eviction only ever removes the *oldest* records, so a surviving child whose
//! parent span was evicted simply replays at root level — still well-formed.

use std::collections::BTreeMap;

use rprism_lang::{FieldName, MethodName};
use rprism_trace::{
    CreationSeq, EntryId, Event, Loc, ObjRep, StackFrame, StackSnapshot, ThreadId, Trace,
    TraceEntry, TraceMeta,
};

use crate::metrics::{MetricValue, Snapshot};
use crate::span::SpanRecord;

/// The synthetic root frame every thread's `end` (and every fork's parentage)
/// records: `<main>` on a null receiver, exactly the shape the checker's stack
/// reconstruction expects at root level.
fn root_snapshot() -> StackSnapshot {
    StackSnapshot::new(vec![StackFrame::new(
        MethodName::toplevel(),
        ObjRep::null(),
        ObjRep::null(),
    )])
}

/// One replayed event before the cross-thread merge: `(time, thread slot, per-thread
/// sequence)` is the merge key; context + event are the entry payload.
struct Replayed {
    time_us: u64,
    thread_slot: usize,
    seq: usize,
    tid: ThreadId,
    method: MethodName,
    active: ObjRep,
    event: Event,
}

/// Builds the self-trace from a span-record ring and a metric snapshot. See the
/// module docs for the mapping; the output is deterministic given its inputs.
pub fn build_self_trace(name: &str, records: &[SpanRecord], snapshot: &Snapshot) -> Trace {
    let null = ObjRep::null();

    // Distinct span names, sorted: per-class creation sequences must be non-
    // decreasing in init order, and sorted order keeps the object identity of a
    // span name stable across serializations of the same server.
    let mut span_names: Vec<&'static str> = records.iter().map(|r| r.name).collect();
    span_names.sort_unstable();
    span_names.dedup();
    let span_objects: BTreeMap<&'static str, ObjRep> = span_names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            (
                *n,
                ObjRep::opaque_object(Loc(1 + i as u64), "Span", CreationSeq(i as u64)),
            )
        })
        .collect();
    let metrics_object = ObjRep::opaque_object(Loc(0), "Metrics", CreationSeq(0));

    // Observer threads, sorted, mapped onto dense trace thread ids 1..=N (0 is the
    // synthetic root thread doing the init/fork preamble and the metric writes).
    let mut threads: Vec<u64> = records.iter().map(|r| r.thread).collect();
    threads.sort_unstable();
    threads.dedup();

    let mut trace = Trace::new(TraceMeta::new(name, "obs-1", "self-trace"));
    let mut push = |tid: ThreadId, method: MethodName, active: ObjRep, event: Event| {
        trace.push(TraceEntry::new(EntryId(0), tid, method, active, event));
    };

    // Preamble (root thread): init the metrics object, one object per span name,
    // then fork every observed thread with a faithful root parentage snapshot.
    push(
        ThreadId::MAIN,
        MethodName::toplevel(),
        null.clone(),
        Event::Init {
            class: "Metrics".to_owned(),
            args: Vec::new(),
            result: metrics_object.clone(),
        },
    );
    for span_name in &span_names {
        push(
            ThreadId::MAIN,
            MethodName::toplevel(),
            null.clone(),
            Event::Init {
                class: "Span".to_owned(),
                args: vec![ObjRep::prim("Str", *span_name)],
                result: span_objects[span_name].clone(),
            },
        );
    }
    for slot in 0..threads.len() {
        push(
            ThreadId::MAIN,
            MethodName::toplevel(),
            null.clone(),
            Event::Fork {
                child: ThreadId(1 + slot as u64),
                parentage: vec![root_snapshot()],
            },
        );
    }

    // Replay each thread's records as properly nested call/return events, then
    // merge across threads by time. Stack discipline per thread comes from interval
    // containment; emission times are clamped monotone per thread so the stable
    // cross-thread merge can never reorder one thread's events.
    let mut replayed: Vec<Replayed> = Vec::with_capacity(records.len() * 2);
    for (slot, thread) in threads.iter().enumerate() {
        let tid = ThreadId(1 + slot as u64);
        let mut own: Vec<&SpanRecord> = records.iter().filter(|r| r.thread == *thread).collect();
        own.sort_by_key(|r| (r.start_us, std::cmp::Reverse(r.end_us)));

        // Open frames: (span name, effective end clamped into the parent, duration).
        let mut stack: Vec<(&'static str, u64, u64)> = Vec::new();
        let mut seq = 0usize;
        let mut clock = 0u64;
        let context = |stack: &[(&'static str, u64, u64)]| match stack.last() {
            Some((parent, _, _)) => (MethodName::new(*parent), span_objects[parent].clone()),
            None => (MethodName::toplevel(), ObjRep::null()),
        };
        let mut emit = |time_us: u64,
                        seq: &mut usize,
                        clock: &mut u64,
                        method: MethodName,
                        active: ObjRep,
                        event: Event,
                        out: &mut Vec<Replayed>| {
            *clock = (*clock).max(time_us);
            out.push(Replayed {
                time_us: *clock,
                thread_slot: slot,
                seq: *seq,
                tid,
                method,
                active,
                event,
            });
            *seq += 1;
        };
        // The `emit` shape, named once: (time, seq, clock, method, active, event, out).
        type EmitEvent<'a> = dyn FnMut(u64, &mut usize, &mut u64, MethodName, ObjRep, Event, &mut Vec<Replayed>)
            + 'a;
        let pop = |stack: &mut Vec<(&'static str, u64, u64)>,
                   seq: &mut usize,
                   clock: &mut u64,
                   out: &mut Vec<Replayed>,
                   emit: &mut EmitEvent<'_>| {
            let (name, end, duration) = stack.pop().expect("pop on empty replay stack");
            let (method, active) = context(stack);
            emit(
                end,
                seq,
                clock,
                method,
                active,
                Event::Return {
                    target: span_objects[name].clone(),
                    method: MethodName::new(name),
                    value: ObjRep::prim("Int", duration.to_string()),
                },
                out,
            );
        };
        for record in own {
            while stack
                .last()
                .is_some_and(|(_, end, _)| *end <= record.start_us)
            {
                pop(&mut stack, &mut seq, &mut clock, &mut replayed, &mut emit);
            }
            let (method, active) = context(&stack);
            emit(
                record.start_us,
                &mut seq,
                &mut clock,
                method,
                active,
                Event::Call {
                    target: span_objects[record.name].clone(),
                    method: MethodName::new(record.name),
                    args: vec![ObjRep::prim("Int", record.start_us.to_string())],
                },
                &mut replayed,
            );
            // A guard-scoped child cannot outlive its parent, but clamp anyway so a
            // damaged record cannot break the per-thread stack discipline.
            let ceiling = stack.last().map_or(u64::MAX, |(_, end, _)| *end);
            stack.push((
                record.name,
                record.end_us.min(ceiling),
                record.end_us.saturating_sub(record.start_us),
            ));
        }
        while !stack.is_empty() {
            pop(&mut stack, &mut seq, &mut clock, &mut replayed, &mut emit);
        }
    }
    replayed.sort_by_key(|r| (r.time_us, r.thread_slot, r.seq));
    for r in replayed {
        push(r.tid, r.method, r.active, r.event);
    }

    // The metric snapshot, written by the root thread: one `set` per counter/gauge.
    // Root-thread-only writes cannot race, so the happens-before rule stays quiet.
    for (metric, value) in &snapshot.entries {
        let printed = match value {
            MetricValue::Counter(v) => v.to_string(),
            MetricValue::Gauge(v) => v.to_string(),
            MetricValue::Histogram(_) => continue,
        };
        push(
            ThreadId::MAIN,
            MethodName::toplevel(),
            null.clone(),
            Event::Set {
                target: metrics_object.clone(),
                field: FieldName::new(metric),
                value: ObjRep::prim("Int", printed),
            },
        );
    }

    // Epilogue: every thread ends with the synthetic root frame, root thread last.
    for slot in 0..threads.len() {
        push(
            ThreadId(1 + slot as u64),
            MethodName::toplevel(),
            null.clone(),
            Event::End {
                stack: root_snapshot(),
            },
        );
    }
    push(
        ThreadId::MAIN,
        MethodName::toplevel(),
        null,
        Event::End {
            stack: root_snapshot(),
        },
    );
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use rprism_trace::EventKind;

    fn record(name: &'static str, thread: u64, start_us: u64, end_us: u64) -> SpanRecord {
        SpanRecord {
            name,
            thread,
            start_us,
            end_us,
        }
    }

    #[test]
    fn empty_ring_still_produces_a_well_formed_skeleton() {
        let trace = build_self_trace("obs/empty", &[], &Snapshot::default());
        assert_eq!(trace.meta.name, "obs/empty");
        // Init(Metrics) + End(main).
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.entries[0].event.kind(), EventKind::Init);
        assert_eq!(trace.entries[1].event.kind(), EventKind::End);
    }

    #[test]
    fn nesting_is_rebuilt_from_containment() {
        let records = [
            record("request.diff", 7, 10, 100),
            record("pipeline.scan", 7, 20, 60),
            record("pipeline.render", 7, 70, 90),
        ];
        let trace = build_self_trace("obs/nest", &records, &Snapshot::default());
        let kinds: Vec<EventKind> = trace.entries.iter().map(|e| e.event.kind()).collect();
        // 4 inits (Metrics + 3 span names), 1 fork, then call/return nesting, 2 ends.
        assert_eq!(
            kinds,
            vec![
                EventKind::Init,
                EventKind::Init,
                EventKind::Init,
                EventKind::Init,
                EventKind::Fork,
                EventKind::Call,   // request.diff
                EventKind::Call,   // pipeline.scan (nested)
                EventKind::Return, // pipeline.scan
                EventKind::Call,   // pipeline.render (nested)
                EventKind::Return, // pipeline.render
                EventKind::Return, // request.diff
                EventKind::End,
                EventKind::End,
            ]
        );
        // The nested call runs in its parent's context.
        let nested = &trace.entries[6];
        assert_eq!(nested.method.as_str(), "request.diff");
        assert_eq!(nested.active.class, "Span");
        // The outer return carries the duration.
        let Event::Return { value, .. } = &trace.entries[10].event else {
            panic!("expected return");
        };
        assert_eq!(value.printed, "90");
    }

    #[test]
    fn threads_are_forked_and_metrics_become_sets() {
        let registry = Registry::new();
        registry.counter("cache.hits").add(3);
        registry.gauge("repo.blobs").set(2);
        registry.histogram("skipped_us").observe_us(1);
        let records = [record("a", 40, 0, 5), record("b", 9, 1, 4)];
        let trace = build_self_trace("obs/threads", &records, &registry.snapshot());
        let forks: Vec<u64> = trace
            .entries
            .iter()
            .filter_map(|e| match &e.event {
                Event::Fork { child, .. } => Some(child.0),
                _ => None,
            })
            .collect();
        assert_eq!(forks, vec![1, 2]);
        let sets: Vec<(String, String)> = trace
            .entries
            .iter()
            .filter_map(|e| match &e.event {
                Event::Set { field, value, .. } => {
                    Some((field.as_str().to_owned(), value.printed.clone()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            sets,
            vec![
                ("cache.hits".to_owned(), "3".to_owned()),
                ("repo.blobs".to_owned(), "2".to_owned()),
            ]
        );
        // Threads sorted: observer thread 9 -> trace thread 1, 40 -> 2; every
        // thread ends, root thread last.
        let ends: Vec<u64> = trace
            .entries
            .iter()
            .filter(|e| e.event.kind() == EventKind::End)
            .map(|e| e.tid.0)
            .collect();
        assert_eq!(ends, vec![1, 2, 0]);
    }

    #[test]
    fn busy_multithreaded_self_trace_is_lint_clean() {
        // The property the whole module exists for: a realistic ring (nested spans,
        // several threads, interleaved times, metrics) replays into a trace that
        // passes every rprism-check rule.
        let registry = Registry::new();
        registry.counter("server.requests_total").add(17);
        registry.counter("cache.hits").add(9);
        registry.gauge("repo.blobs").set(4);
        let mut records = Vec::new();
        for t in 1..=4u64 {
            let base = t * 1_000;
            records.push(record("request.diff", t, base, base + 500));
            records.push(record("pipeline.decode", t, base + 10, base + 100));
            records.push(record("pipeline.scan", t, base + 120, base + 400));
            records.push(record("repo.get", t, base + 130, base + 200));
            records.push(record("request.stats", t, base + 600, base + 620));
        }
        let trace = build_self_trace("obs/busy", &records, &registry.snapshot());
        let report = rprism_check::check_trace(&trace);
        assert!(report.is_clean(), "self-trace not lint-clean: {report:?}");
    }

    #[test]
    fn zero_length_and_back_to_back_spans_stay_well_formed() {
        // Degenerate timings: zero-duration spans, a child sharing its parent's
        // start, and a sibling starting exactly when the previous one ended.
        let records = [
            record("a", 2, 10, 10),
            record("b", 2, 10, 30),
            record("c", 2, 10, 20),
            record("d", 2, 20, 30),
            record("e", 2, 30, 40),
        ];
        let trace = build_self_trace("obs/degenerate", &records, &Snapshot::default());
        let report = rprism_check::check_trace(&trace);
        assert!(report.is_clean(), "degenerate self-trace: {report:?}");
    }

    #[test]
    fn evicted_parents_leave_children_at_root_level() {
        // Child survived the ring, parent did not: replays as a root-level call.
        let records = [record("pipeline.scan", 3, 50, 60)];
        let trace = build_self_trace("obs/evicted", &records, &Snapshot::default());
        let call = trace
            .entries
            .iter()
            .find(|e| e.event.kind() == EventKind::Call)
            .expect("one call");
        assert_eq!(call.method.as_str(), "<main>");
        assert_eq!(call.active.class, "null");
    }
}
