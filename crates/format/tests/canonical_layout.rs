//! The content hash takes the bytes of a canonical binary stream as they are, and
//! must recognize exactly that layout.
//!
//! A test-local encoder (built on the public varint and FNV primitives, not on
//! `BinaryTraceWriter`) lays out the string table in ways the format accepts but the
//! writer never produces: a string defined one entry early, two new strings defined in
//! swapped order, a string defined twice, a string never used. Each such stream
//! decodes to the same trace as the canonical one, so it must hash to the canonical
//! stream's FNV, not its own. So must a canonical stream behind a UTF-8 BOM.

use std::collections::HashMap;
use std::path::PathBuf;

use rprism_format::varint::write_u64;
use rprism_format::{
    content_hash, content_summary, trace_from_bytes, trace_to_bytes, Encoding, Fnv64,
    FORMAT_VERSION, MAGIC,
};
use rprism_lang::{FieldName, MethodName};
use rprism_trace::testgen::{arbitrary_trace, GenProfile, Rng};
use rprism_trace::{EntryId, Event, ObjRep, StackSnapshot, ThreadId, Trace, TraceEntry};

fn fnv(bytes: &[u8]) -> u64 {
    let mut hash = Fnv64::new();
    hash.update(bytes);
    hash.finish()
}

/// How [`encode`] lays out the string table.
#[derive(Clone, Copy, Debug)]
enum Layout {
    /// What `BinaryTraceWriter` emits.
    Canonical,
    /// The next entry's new strings are defined before the current entry.
    Early,
    /// An entry's first two new strings are defined in swapped order (in an entry
    /// that mentions the first again after the second).
    Swapped,
    /// An entry's method name is defined a second time, and the entry uses the copy.
    Duplicate,
    /// A string no entry mentions is defined before the footer.
    Unused,
}

/// The body of one entry record, string ids resolved through `id` in the order the
/// format lays them out.
fn entry_body(entry: &TraceEntry, id: &mut dyn FnMut(&str) -> u64) -> Vec<u8> {
    fn objrep(out: &mut Vec<u8>, rep: &ObjRep, id: &mut dyn FnMut(&str) -> u64) {
        out.push(u8::from(rep.loc.is_some()) | u8::from(rep.creation_seq.is_some()) << 1);
        write_u64(out, id(&rep.class));
        write_u64(out, rep.fingerprint.0);
        write_u64(out, id(&rep.printed));
        if let Some(loc) = rep.loc {
            write_u64(out, loc.0);
        }
        if let Some(seq) = rep.creation_seq {
            write_u64(out, seq.0);
        }
    }
    fn objreps(out: &mut Vec<u8>, reps: &[ObjRep], id: &mut dyn FnMut(&str) -> u64) {
        write_u64(out, reps.len() as u64);
        for rep in reps {
            objrep(out, rep, id);
        }
    }
    fn snapshot(out: &mut Vec<u8>, snapshot: &StackSnapshot, id: &mut dyn FnMut(&str) -> u64) {
        write_u64(out, snapshot.frames.len() as u64);
        for frame in &snapshot.frames {
            write_u64(out, id(frame.method.as_str()));
            objrep(out, &frame.caller, id);
            objrep(out, &frame.callee, id);
        }
    }

    let mut out = vec![0x02];
    write_u64(&mut out, entry.tid.0);
    write_u64(&mut out, id(entry.method.as_str()));
    objrep(&mut out, &entry.active, id);
    match &entry.event {
        Event::Get {
            target,
            field,
            value,
        }
        | Event::Set {
            target,
            field,
            value,
        } => {
            out.push(if matches!(entry.event, Event::Get { .. }) {
                0x01
            } else {
                0x02
            });
            objrep(&mut out, target, id);
            write_u64(&mut out, id(field.as_str()));
            objrep(&mut out, value, id);
        }
        Event::Call {
            target,
            method,
            args,
        } => {
            out.push(0x03);
            objrep(&mut out, target, id);
            write_u64(&mut out, id(method.as_str()));
            objreps(&mut out, args, id);
        }
        Event::Return {
            target,
            method,
            value,
        } => {
            out.push(0x04);
            objrep(&mut out, target, id);
            write_u64(&mut out, id(method.as_str()));
            objrep(&mut out, value, id);
        }
        Event::Init {
            class,
            args,
            result,
        } => {
            out.push(0x05);
            write_u64(&mut out, id(class));
            objreps(&mut out, args, id);
            objrep(&mut out, result, id);
        }
        Event::Fork { child, parentage } => {
            out.push(0x06);
            write_u64(&mut out, child.0);
            write_u64(&mut out, parentage.len() as u64);
            for stack in parentage {
                snapshot(&mut out, stack, id);
            }
        }
        Event::End { stack } => {
            out.push(0x07);
            snapshot(&mut out, stack, id);
        }
    }
    out
}

/// Every string mention of an entry, in layout order.
fn mentions(entry: &TraceEntry) -> Vec<String> {
    let mut all = Vec::new();
    entry_body(entry, &mut |s| {
        all.push(s.to_owned());
        0
    });
    all
}

/// Whether `first` is mentioned again after `second`'s first mention: then swapping
/// their definitions breaks the mention order without leaving either id unused by
/// the entry's end.
fn mentioned_again_after(all: &[String], first: &str, second: &str) -> bool {
    let at = all.iter().position(|s| s == second).unwrap();
    all[at..].iter().any(|s| s == first)
}

/// Encodes `trace` with its string table laid out as `layout` says. Returns the
/// stream and whether the layout's deviation was applied (the trace had a place
/// for it).
fn encode(trace: &Trace, layout: Layout) -> (Vec<u8>, bool) {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    for s in [&trace.meta.name, &trace.meta.version, &trace.meta.test_case] {
        write_u64(&mut out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
    }
    // String → the id its mentions use (the latest definition).
    let mut ids = HashMap::<String, u64>::new();
    let mut defined = 0u64;
    let mut define = |out: &mut Vec<u8>, ids: &mut HashMap<String, u64>, s: &str| {
        out.push(0x01);
        write_u64(out, s.len() as u64);
        out.extend_from_slice(s.as_bytes());
        ids.insert(s.to_owned(), defined);
        defined += 1;
    };
    let mut applied = matches!(layout, Layout::Canonical);
    let entries: Vec<&TraceEntry> = trace.iter().collect();
    for (k, entry) in entries.iter().enumerate() {
        let fresh = |ids: &HashMap<String, u64>, e: &TraceEntry| -> Vec<String> {
            let mut new = Vec::<String>::new();
            for s in mentions(e) {
                if !ids.contains_key(&s) && !new.contains(&s) {
                    new.push(s);
                }
            }
            new
        };
        let mut new = fresh(&ids, entry);
        match layout {
            Layout::Early if !applied => {
                if let Some(next) = entries.get(k + 1) {
                    let later: Vec<String> = fresh(&ids, next)
                        .into_iter()
                        .filter(|s| !new.contains(s))
                        .collect();
                    applied = !later.is_empty();
                    new.extend(later);
                }
            }
            Layout::Swapped
                if !applied
                    && new.len() >= 2
                    && mentioned_again_after(&mentions(entry), &new[0], &new[1]) =>
            {
                new.swap(0, 1);
                applied = true;
            }
            Layout::Duplicate if !applied && ids.contains_key(entry.method.as_str()) => {
                define(&mut out, &mut ids, entry.method.as_str());
                applied = true;
            }
            _ => {}
        }
        for s in &new {
            define(&mut out, &mut ids, s);
        }
        out.extend(entry_body(entry, &mut |s| ids[s]));
    }
    if let Layout::Unused = layout {
        define(&mut out, &mut ids, "a string no entry mentions");
        applied = true;
    }
    out.push(0x03);
    write_u64(&mut out, trace.len() as u64);
    let checksum = fnv(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    (out, applied)
}

#[test]
fn non_canonical_layouts_hash_like_the_canonical_stream() {
    let mut trace = arbitrary_trace(&mut Rng::new(0xca70), 30);
    // An entry that mentions its first new string again after its second, the place
    // `Layout::Swapped` needs.
    let active = ObjRep::prim("SwapClass", "swapMethod");
    trace.push(TraceEntry::new(
        EntryId(0),
        ThreadId(0),
        MethodName::new("swapMethod"),
        active.clone(),
        Event::Get {
            target: active.clone(),
            field: FieldName::new("swapField"),
            value: active,
        },
    ));
    let canonical = trace_to_bytes(&trace, Encoding::Binary).unwrap();
    assert_eq!(
        encode(&trace, Layout::Canonical).0,
        canonical,
        "the test encoder must lay a trace out as the writer does"
    );
    let expected = fnv(&canonical);
    assert_eq!(content_hash(&canonical).unwrap(), expected);

    let mut variants: Vec<(String, Vec<u8>)> = Vec::new();
    for layout in [
        Layout::Early,
        Layout::Swapped,
        Layout::Duplicate,
        Layout::Unused,
    ] {
        let (bytes, applied) = encode(&trace, layout);
        assert!(
            applied,
            "{layout:?}: the trace has no place for the deviation"
        );
        assert_ne!(bytes, canonical, "{layout:?}");
        variants.push((format!("{layout:?}"), bytes));
    }
    variants.push(("BOM".into(), [&[0xef, 0xbb, 0xbf][..], &canonical].concat()));
    for (name, bytes) in &variants {
        assert_eq!(
            trace_from_bytes(bytes).unwrap(),
            trace,
            "{name}: decodes differently"
        );
        let summary = content_summary(bytes).unwrap();
        assert_eq!(
            summary.hash, expected,
            "{name}: hash is not the canonical one"
        );
        assert_eq!(summary.entries, trace.len() as u64, "{name}");
        assert_eq!(summary.meta, trace.meta, "{name}");
        assert_eq!(summary.encoding, Encoding::Binary, "{name}");
    }
}

#[test]
fn content_hash_is_the_fnv_of_the_re_encoded_trace() {
    let mut inputs: Vec<(String, Vec<u8>)> = Vec::new();
    for (i, &profile) in GenProfile::ALL.iter().enumerate() {
        let trace = profile.generate(&mut Rng::new(0x70 + i as u64), 80);
        for encoding in [Encoding::Binary, Encoding::Jsonl] {
            inputs.push((
                format!("{profile} ({encoding})"),
                trace_to_bytes(&trace, encoding).unwrap(),
            ));
        }
    }
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut files = 0;
    for entry in std::fs::read_dir(&corpus).expect("tests/corpus must exist") {
        let path = entry.unwrap().path();
        inputs.push((path.display().to_string(), std::fs::read(&path).unwrap()));
        files += 1;
    }
    assert_eq!(files, 16, "the golden corpus holds 16 fixtures");
    for (name, bytes) in &inputs {
        let reencoded =
            trace_to_bytes(&trace_from_bytes(bytes).unwrap(), Encoding::Binary).unwrap();
        assert_eq!(content_hash(bytes).unwrap(), fnv(&reencoded), "{name}");
    }
}
