//! Hashing or encoding a trace must not grow the process-global interner.
//!
//! Interned strings live for the whole process, and `content_summary` runs on every
//! upload a daemon receives — before the footer checksum has been verified. If the
//! encoder routed names through the interner, every rejected upload would leak its
//! strings for the life of the process.
//!
//! One test in its own binary: `interned_count` is process-global, so a concurrent
//! test interning names would move it.

use rprism_format::{content_summary, trace_to_bytes, Encoding, FormatError};
use rprism_lang::{FieldName, MethodName};
use rprism_trace::intern::interned_count;
use rprism_trace::{EntryId, Event, ObjRep, ThreadId, Trace, TraceEntry, TraceMeta};

/// A trace of 200 entries whose every name and value is a string this process has
/// never seen.
fn trace_with_fresh_strings() -> Trace {
    let mut trace = Trace::new(TraceMeta::new("fresh-trace", "fresh-v", "fresh-case"));
    for i in 0..200 {
        let target = ObjRep::prim(format!("FreshClass{i}"), format!("fresh-printed-{i}"));
        let value = ObjRep::prim(format!("FreshValue{i}"), format!("fresh-value-{i}"));
        trace.push(TraceEntry::new(
            EntryId(0),
            ThreadId(0),
            MethodName::new(format!("freshMethod{i}")),
            ObjRep::prim(format!("FreshActive{i}"), format!("fresh-active-{i}")),
            Event::Set {
                target,
                field: FieldName::new(format!("freshField{i}")),
                value,
            },
        ));
    }
    trace
}

#[test]
fn content_summary_and_encoding_leave_the_interner_alone() {
    let trace = trace_with_fresh_strings();
    let before = interned_count();

    let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
    let jsonl = trace_to_bytes(&trace, Encoding::Jsonl).unwrap();
    assert_eq!(interned_count(), before, "trace_to_bytes interned names");

    let summary = content_summary(bytes.as_slice()).unwrap();
    assert_eq!(summary.entries, 200);
    assert_eq!(
        content_summary(jsonl.as_slice()).unwrap().hash,
        summary.hash
    );
    assert_eq!(
        interned_count(),
        before,
        "content_summary of a clean upload interned names"
    );

    let mut damaged = bytes;
    let last = damaged.len() - 1;
    damaged[last] ^= 0x10;
    assert!(matches!(
        content_summary(damaged.as_slice()),
        Err(FormatError::ChecksumMismatch { .. })
    ));
    assert_eq!(
        interned_count(),
        before,
        "a rejected upload leaked names into the interner"
    );
}
