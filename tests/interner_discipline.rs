//! Ingest interns names only, once per string, and never a printed value.
//!
//! The process-global interner never frees a string, so what enters it is a
//! process-lifetime cost. Symbol-level ingest interns a string only where it names a
//! class, method, field or init class, the first time a stream mentions it; printed
//! values are dropped at the decoder. A client decoding a remote analysis interns the
//! names its signatures spell, each once, and nothing when the process already holds
//! them.
//!
//! One test in its own binary: `interned_count` is process-global, so a concurrent
//! test interning names would move it.

use std::collections::BTreeSet;

use rprism::{Engine, RegressionInput};
use rprism_check::Checker;
use rprism_format::{trace_to_bytes, Encoding, TailBatch, TailDecoder};
use rprism_lang::{FieldName, MethodName};
use rprism_server::proto::{Response, WireReport};
use rprism_trace::intern::{intern, interned_count};
use rprism_trace::{
    CreationSeq, EntryBatch, EntryId, Event, Loc, ObjRep, StackFrame, StackSnapshot, ThreadId,
    Trace, TraceEntry, TraceMeta,
};

/// A trace whose every name and printed value is a string no other trace of this
/// test uses (`tag` keeps the traces apart), with printed values distinct from names.
/// Returns the trace and its distinct name strings.
fn fresh_trace(tag: &str) -> (Trace, BTreeSet<String>) {
    let mut trace = Trace::new(TraceMeta::new(format!("{tag}-trace"), "v", "c"));
    let mut names = BTreeSet::new();
    let mut name = |s: String| {
        names.insert(s.clone());
        s
    };
    let main = MethodName::new(name(format!("{tag}Main")));
    let root = ObjRep::opaque_object(Loc(1), name(format!("{tag}Root")), CreationSeq(0));
    for i in 0..60u64 {
        let class = name(format!("{tag}Class{}", i % 7));
        let object = ObjRep::opaque_object(Loc(10 + i), class.clone(), CreationSeq(i));
        let value = ObjRep::prim(
            name(format!("{tag}Prim{}", i % 5)),
            format!("{tag}-printed-{i}"),
        );
        let method = MethodName::new(name(format!("{tag}method{}", i % 4)));
        let events = [
            Event::Init {
                class,
                args: vec![value.clone()],
                result: object.clone(),
            },
            Event::Call {
                target: object.clone(),
                method: method.clone(),
                args: vec![value.clone()],
            },
            Event::Set {
                target: object.clone(),
                field: FieldName::new(name(format!("{tag}field{}", i % 3))),
                value: value.clone(),
            },
            Event::Return {
                target: object,
                method,
                value,
            },
        ];
        for event in events {
            trace.push(TraceEntry::new(
                EntryId(0),
                ThreadId::MAIN,
                main.clone(),
                root.clone(),
                event,
            ));
        }
    }
    // A thread event: its stack is kept as owned strings, never interned.
    let frame = StackFrame::new(main.clone(), ObjRep::null(), root.clone());
    trace.push(TraceEntry::new(
        EntryId(0),
        ThreadId::MAIN,
        main,
        root,
        Event::End {
            stack: StackSnapshot::new(vec![frame]),
        },
    ));
    (trace, names)
}

fn binary(trace: &Trace) -> Vec<u8> {
    trace_to_bytes(trace, Encoding::Binary).unwrap()
}

/// Interning every name of `names` again adds nothing: each was already interned.
fn assert_all_interned(names: &BTreeSet<String>, context: &str) {
    let before = interned_count();
    for name in names {
        intern(name);
    }
    assert_eq!(
        interned_count(),
        before,
        "{context}: a name was not interned"
    );
}

fn watch_bytes(engine: &Engine, old: &rprism::PreparedTrace, bytes: &[u8]) {
    let mut decoder = TailDecoder::new();
    let mut batch = EntryBatch::new();
    decoder.push_bytes(bytes).unwrap();
    let mut watch = engine.watch(old, decoder.meta().unwrap().clone());
    while let TailBatch::Entries(_) = decoder.read_refs(&mut batch, 256).unwrap() {
        watch.push_batch(&batch);
    }
    batch.clear();
    decoder.finish_refs(&mut batch).unwrap();
    watch.push_batch(&batch);
    watch.finish().unwrap();
}

#[test]
fn ingest_interns_each_name_once_and_no_printed_value() {
    let engine = Engine::new();
    // The checker's own constant names, interned when a checker is built, are not
    // trace strings.
    drop(Checker::new());

    // Load: exactly the distinct names, then nothing on a second load.
    let (trace, names) = fresh_trace("load");
    let bytes = binary(&trace);
    let before = interned_count();
    let old = engine.load_prepared_reader(bytes.as_slice()).unwrap();
    assert_eq!(interned_count() - before, names.len(), "first load");
    assert_all_interned(&names, "first load");
    let again = interned_count();
    engine.load_prepared_reader(bytes.as_slice()).unwrap();
    assert_eq!(interned_count(), again, "a second load interned strings");

    // Check and watch of traces never seen: at most their names — and, since every
    // name was interned, exactly them, so no printed value was.
    let check = |bytes: &[u8]| drop(engine.check_reader(bytes).unwrap());
    let watch = |bytes: &[u8]| watch_bytes(&engine, &old, bytes);
    for (tag, ingest) in [("check", &check as &dyn Fn(&[u8])), ("watch", &watch)] {
        let (trace, names) = fresh_trace(tag);
        let bytes = binary(&trace);
        let before = interned_count();
        ingest(&bytes);
        let grown = interned_count() - before;
        assert!(
            grown <= names.len(),
            "{tag} interned {grown} strings for {} names",
            names.len()
        );
        assert_all_interned(&names, tag);
        assert_eq!(
            interned_count() - before,
            names.len(),
            "{tag} interned a printed value"
        );
    }

    // Decode of a remote analysis whose names this process already interned: nothing.
    let (trace, _) = fresh_trace("analyze");
    let other = engine
        .load_prepared_reader(binary(&trace).as_slice())
        .unwrap();
    let input = RegressionInput::new(old.clone(), other, old.clone(), old.clone());
    let report = engine.analyze(&input).unwrap();
    assert!(
        !report.candidates.is_empty(),
        "the analysis must report signatures"
    );
    let rendered = engine.render_report(&report, &input);
    let frame = Response::AnalyzeOk(WireReport::from_report(&report, rendered)).encode();
    let before = interned_count();
    let Response::AnalyzeOk(decoded) = Response::decode(&frame).unwrap() else {
        panic!("an AnalyzeOk frame decodes to AnalyzeOk");
    };
    assert_eq!(interned_count(), before, "decoding interned a string");
    assert_eq!(decoded.suspected, report.suspected.as_slice());
    assert_eq!(decoded.candidates, report.candidates.as_slice());

    // Decode of a report whose names this process has never seen: the same frame with
    // every "analyze" name respelled "decoded" (same length, so every length prefix
    // still holds). It interns each respelled name once and nothing else — at most
    // the distinct names of the frame — and a second decode interns nothing.
    let mut frame_names = BTreeSet::new();
    for signature in [
        &report.suspected,
        &report.expected,
        &report.regression,
        &report.candidates,
    ]
    .into_iter()
    .flat_map(|set| set.iter())
    {
        frame_names.extend(signature.name_str());
        frame_names.extend(signature.operands.iter().map(|(class, _)| class.as_str()));
        frame_names.insert(signature.method.as_str());
        frame_names.insert(signature.active_class.as_str());
    }
    let unseen = frame_names.iter().filter(|n| n.contains("analyze")).count();
    assert!(unseen > 0, "the report must name the analyze trace");
    let mut respelled = frame;
    for at in 0..respelled.len().saturating_sub(6) {
        if &respelled[at..at + 7] == b"analyze" {
            respelled[at..at + 7].copy_from_slice(b"decoded");
        }
    }
    let before = interned_count();
    Response::decode(&respelled).unwrap();
    let grown = interned_count() - before;
    assert!(
        grown <= frame_names.len(),
        "decoding interned {grown} strings for {} distinct names",
        frame_names.len()
    );
    assert_eq!(
        grown, unseen,
        "decoding interned more than the unseen names"
    );
    let again = interned_count();
    Response::decode(&respelled).unwrap();
    assert_eq!(interned_count(), again, "a second decode interned strings");
}
