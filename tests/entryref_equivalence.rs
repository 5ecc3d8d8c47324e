//! Symbol-level ingest ≡ the owned-entry adapter.
//!
//! Binary input is ingested without ever building a `TraceEntry`: the decoder hands
//! out `EntryRef`s whose names it interned once per string id. Everything else —
//! JSONL, VM traces, every in-memory `Trace` — reaches the same builders through
//! `EntryBatch::push`. This suite requires the artifacts of every handle — a
//! streamed load of the bytes, `PreparedTrace::new` of the decoded trace, and the
//! trace a finished watch returns — to equal the reference builders' over the owned
//! trace: event keys, lean contexts, views (members, keys, representatives) and
//! thread ancestry; and the streamed check report to equal the owned trace's. A live
//! watch fed the bytes at awkward chunk sizes must reach the batch diff's verdict.
//! Diffs and analyses over handles prepared from the owned `Trace` must equal the same
//! calls over handles streamed from its bytes.
//!
//! Inputs: every `GenProfile` at several sizes, `arbitrary_trace`, and the sixteen
//! committed corpus files, each generated input in both encodings. The generator is
//! seeded from the clock and the seed is printed; `RPRISM_FUZZ_SEED=<n>` replays a run.

use std::path::Path;

use rprism::{Engine, PreparedTrace, RegressionInput, RegressionReport, TraceDiffResult};
use rprism_check::check_trace;
use rprism_format::{trace_from_bytes, trace_to_bytes, Encoding};
use rprism_trace::testgen::{arbitrary_trace, fuzz_seed, mutated, GenProfile, Rng};
use rprism_trace::{
    CreationSeq, EntryBatch, Event, KeyedTrace, LeanTrace, Loc, ObjRep, ThreadId, Trace,
    TraceEntry, ValueRepr,
};
use rprism_views::ViewWeb;

mod common;
use common::{assert_monotone, tail_watch};

/// One named serialized trace.
struct Input {
    name: String,
    bytes: Vec<u8>,
}

/// Every generated trace, in both encodings.
fn generated(seed: u64) -> Vec<Input> {
    let mut rng = Rng::new(seed);
    let mut traces: Vec<(String, Trace)> = Vec::new();
    for &profile in GenProfile::ALL {
        for entries in [1, 40, 700] {
            traces.push((
                format!("{profile}-{entries}"),
                profile.generate(&mut rng, entries),
            ));
        }
    }
    for entries in [0, 1, 300] {
        traces.push((
            format!("arbitrary_trace-{entries}"),
            arbitrary_trace(&mut rng, entries),
        ));
    }
    let mut inputs = Vec::new();
    for (name, trace) in traces {
        for encoding in [Encoding::Binary, Encoding::Jsonl] {
            inputs.push(Input {
                name: format!("{name}.{}", encoding.extension()),
                bytes: trace_to_bytes(&trace, encoding).unwrap(),
            });
        }
    }
    inputs
}

/// The sixteen committed corpus files.
fn corpus() -> Vec<Input> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut inputs: Vec<Input> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            Input {
                name: path.file_name().unwrap().to_string_lossy().into_owned(),
                bytes: std::fs::read(&path).unwrap(),
            }
        })
        .collect();
    inputs.sort_by(|a, b| a.name.cmp(&b.name));
    assert_eq!(inputs.len(), 16);
    inputs
}

/// Every thread a trace mentions: entry threads and forked children.
fn threads_of(trace: &Trace) -> Vec<ThreadId> {
    let mut tids = trace.thread_ids();
    for entry in trace.iter() {
        if let Event::Fork { child, .. } = entry.event {
            tids.push(child);
        }
    }
    tids
}

fn assert_same_artifacts(context: &str, trace: &Trace, handle: &PreparedTrace) {
    let keyed = KeyedTrace::build(trace);
    let mut lean = LeanTrace::new(trace.meta.clone());
    EntryBatch::visit(&trace.entries, |entry| lean.push(entry));
    let web = ViewWeb::build(trace);
    let got = handle.side();

    assert_eq!(handle.meta(), &trace.meta, "{context}: metadata");
    assert_eq!(got.keyed().len(), keyed.len(), "{context}: key count");
    for i in 0..keyed.len() {
        let (a, b) = (got.keyed().compact(i), keyed.compact(i));
        assert!(got.keyed().key_eq(i, &keyed, i), "{context}: key {i}");
        assert_eq!(
            (a.hash, a.kind, a.name),
            (b.hash, b.kind, b.name),
            "{context}: key {i}"
        );
        assert_eq!(
            got.keyed().operands_of(&a),
            keyed.operands_of(&b),
            "{context}: key {i}"
        );
    }
    assert_eq!(got.entries(), lean.entries(), "{context}: lean entries");
    assert_eq!(
        got.web().total_views(),
        web.total_views(),
        "{context}: view count"
    );
    for (id, view) in web.views_with_ids() {
        assert_eq!(got.web().view_by_id(id), view, "{context}: view {id:?}");
    }
    for i in 0..trace.len() {
        assert_eq!(
            got.web().views_of_entry(i),
            web.views_of_entry(i),
            "{context}: memberships of entry {i}"
        );
    }
    for tid in threads_of(trace) {
        assert_eq!(
            got.web().thread_ancestry(tid),
            web.thread_ancestry(tid),
            "{context}: ancestry of {tid}"
        );
    }
}

/// Byte-chunk size of the artifact check's watch: one reader refill minus one.
const WATCH_CHUNK: usize = 8191;

fn assert_symbol_path_matches_adapter(engine: &Engine, input: &Input) {
    let trace = trace_from_bytes(&input.bytes).unwrap();
    let streamed = engine.load_prepared_reader(input.bytes.as_slice()).unwrap();
    let watched = tail_watch(
        engine,
        &streamed,
        &input.bytes,
        WATCH_CHUNK,
        &mut Vec::new(),
    );
    for (path, handle) in [
        ("streamed", &streamed),
        ("in-memory", &PreparedTrace::new(trace.clone())),
        ("watched", &watched.new_trace),
    ] {
        assert_same_artifacts(&format!("{} ({path})", input.name), &trace, handle);
    }
    let report = engine.check_reader(input.bytes.as_slice()).unwrap();
    assert_eq!(report, check_trace(&trace), "{}: check report", input.name);
}

#[test]
fn generated_traces_ingest_identically_both_ways() {
    let engine = Engine::new();
    for input in generated(fuzz_seed()) {
        assert_symbol_path_matches_adapter(&engine, &input);
    }
}

#[test]
fn corpus_files_ingest_identically_both_ways() {
    let engine = Engine::new();
    for input in corpus() {
        assert_symbol_path_matches_adapter(&engine, &input);
    }
}

/// Byte-chunk sizes for the watch: single bytes, a prime, one reader refill minus
/// one, exactly, plus one, and the server's 64 KiB.
const CHUNKS: [usize; 6] = [1, 7, 8191, 8192, 8193, 64 * 1024];

fn assert_watch_matches_batch(engine: &Engine, old: &Input, new: &Input) {
    let old_handle = engine.load_prepared_reader(old.bytes.as_slice()).unwrap();
    let new_handle = PreparedTrace::new(trace_from_bytes(&new.bytes).unwrap());
    let batch = engine.diff(&old_handle, &new_handle).unwrap();
    for chunk in CHUNKS {
        let got = tail_watch(engine, &old_handle, &new.bytes, chunk, &mut Vec::new()).result;
        let context = format!("{} → {} (chunk {chunk})", old.name, new.name);
        assert_eq!(
            got.matching.normalized_pairs(),
            batch.matching.normalized_pairs(),
            "{context}: matchings"
        );
        assert_eq!(got.sequences, batch.sequences, "{context}: sequences");
        assert_eq!(
            got.cost.compare_ops, batch.cost.compare_ops,
            "{context}: compare ops"
        );
    }
}

#[test]
fn watching_generated_traces_at_any_chunking_gives_the_batch_diff() {
    let engine = Engine::new();
    let seed = fuzz_seed();
    let mut rng = Rng::new(seed ^ 0x3a7c_4000);
    for &profile in GenProfile::ALL {
        let old = profile.generate(&mut rng, 250);
        let new = profile.generate(&mut rng, 250);
        for encoding in [Encoding::Binary, Encoding::Jsonl] {
            let input = |name: &str, trace: &Trace| Input {
                name: format!("{profile}-{name}.{}", encoding.extension()),
                bytes: trace_to_bytes(trace, encoding).unwrap(),
            };
            assert_watch_matches_batch(&engine, &input("old", &old), &input("new", &new));
        }
    }
}

/// Entry-chunk sizes for the near-copy watches: single entries, a prime, and the
/// daemon's batch size.
const ENTRY_CHUNKS: [usize; 3] = [1, 7, 256];

/// The object operands of an entry: its active object and its event's operands.
fn objects_mut(entry: &mut TraceEntry) -> Vec<&mut ObjRep> {
    let mut reps = vec![&mut entry.active];
    match &mut entry.event {
        Event::Get { target, value, .. }
        | Event::Set { target, value, .. }
        | Event::Return { target, value, .. } => reps.extend([target, value]),
        Event::Call { target, args, .. } => {
            reps.push(target);
            reps.extend(args.iter_mut());
        }
        Event::Init { args, result, .. } => {
            reps.extend(args.iter_mut());
            reps.push(result);
        }
        Event::Fork { .. } | Event::End { .. } => {}
    }
    reps
}

/// A heap object holding `value`: its fingerprint is meaningful, so view correlation
/// prefers a value match over a creation-sequence match.
fn valued(loc: Loc, class: &str, seq: CreationSeq, value: &str) -> ObjRep {
    let repr = ValueRepr::Object {
        class: class.to_owned(),
        fields: vec![ValueRepr::Prim {
            type_name: "Int".to_owned(),
            printed: value.to_owned(),
        }],
    };
    ObjRep::object(loc, class, seq, &repr)
}

/// `trace` with every heap object holding a value of its own (its location).
fn with_values(trace: &Trace) -> Trace {
    let mut out = Trace::new(trace.meta.clone());
    for entry in &trace.entries {
        let mut entry = entry.clone();
        for rep in objects_mut(&mut entry) {
            if let Some(loc) = rep.loc {
                let seq = rep.creation_seq.unwrap_or(CreationSeq(0));
                *rep = valued(loc, &rep.class, seq, &loc.0.to_string());
            }
        }
        out.push(entry);
    }
    out
}

/// `new` with its most often active object split in two. Up to the middle of the
/// trace the object keeps its location and creation sequence number but holds another
/// value; from there on a fresh object holds its value. Until the fresh object
/// appears, the view correlation pairs the old side's object with the first one (by
/// creation sequence); afterwards with the fresh one (by value). Object verdicts read
/// by mismatch steps taken early in a watch are thus revised later in the stream.
fn split_object(new: &Trace) -> Trace {
    let mut active: Vec<(Loc, usize)> = Vec::new();
    for loc in new.entries.iter().filter_map(|entry| entry.active.loc) {
        match active.iter_mut().find(|(seen, _)| *seen == loc) {
            Some((_, count)) => *count += 1,
            None => active.push((loc, 1)),
        }
    }
    let Some(&(victim, _)) = active.iter().max_by_key(|&&(loc, count)| (count, loc)) else {
        return with_values(new);
    };
    // Far above every location the generators hand out.
    let fresh = Loc(1 << 40);
    let middle = new.len() / 2;
    let mut out = Trace::new(new.meta.clone());
    for (k, mut entry) in with_values(new).entries.into_iter().enumerate() {
        for rep in objects_mut(&mut entry) {
            if rep.loc != Some(victim) {
                continue;
            }
            let seq = rep.creation_seq.unwrap_or(CreationSeq(0));
            *rep = if k < middle {
                valued(victim, &rep.class, seq, "split")
            } else {
                let value = victim.0.to_string();
                valued(fresh, &rep.class, CreationSeq(seq.0 + 1000), &value)
            };
        }
        out.push(entry);
    }
    out
}

/// `trace` with every location `l`, stack snapshots included, moved to `l << 32`: the
/// same objects under keys that differ only in their high bits.
fn shifted_locations(trace: &Trace) -> Trace {
    let shift = |rep: &mut ObjRep| {
        if let Some(loc) = &mut rep.loc {
            assert!(loc.0 < 1 << 32, "location {loc} does not shift injectively");
            loc.0 <<= 32;
        }
    };
    let mut out = Trace::new(trace.meta.clone());
    for entry in &trace.entries {
        let mut entry = entry.clone();
        objects_mut(&mut entry).into_iter().for_each(shift);
        let snapshots = match &mut entry.event {
            Event::Fork { parentage, .. } => parentage.iter_mut().collect(),
            Event::End { stack } => vec![stack],
            _ => Vec::new(),
        };
        for frame in snapshots.into_iter().flat_map(|s| s.frames.iter_mut()) {
            shift(&mut frame.caller);
            shift(&mut frame.callee);
        }
        out.push(entry);
    }
    out
}

/// Views and checks see locations only as keys: moving every location into the high
/// bits (where a weak hash of the key loses them) changes no view count, no view's
/// entries and no diagnostic, in the in-memory and the streamed build alike.
#[test]
fn views_and_checks_do_not_depend_on_the_key_layout() {
    let engine = Engine::new();
    let mut rng = Rng::new(fuzz_seed());
    let mut traces: Vec<(String, Trace)> = GenProfile::ALL
        .iter()
        .map(|&profile| (profile.to_string(), profile.generate(&mut rng, 700)))
        .collect();
    traces.push(("arbitrary_trace".into(), arbitrary_trace(&mut rng, 300)));
    let diagnostics = |trace: &Trace| -> Vec<(&'static str, usize, Vec<usize>)> {
        check_trace(trace)
            .diagnostics
            .into_iter()
            .map(|d| (d.rule_id, d.entry_index, d.related_entries))
            .collect()
    };
    for (name, trace) in traces {
        let shifted = shifted_locations(&trace);
        let bytes = trace_to_bytes(&shifted, Encoding::Binary).unwrap();
        let streamed = engine.load_prepared_reader(bytes.as_slice()).unwrap();
        let web = ViewWeb::build(&trace);
        for (path, other) in [
            ("in-memory", &ViewWeb::build(&shifted)),
            ("streamed", streamed.side().web()),
        ] {
            assert_eq!(
                other.count_by_kind(),
                web.count_by_kind(),
                "{name} ({path}): view counts"
            );
            for ((id, view), (_, moved)) in web.views_with_ids().zip(other.views_with_ids()) {
                assert_eq!(moved.entries, view.entries, "{name} ({path}): view {id:?}");
            }
        }
        assert_eq!(
            diagnostics(&shifted),
            diagnostics(&trace),
            "{name}: check diagnostics"
        );
    }
}

/// A near copy differs from its original in sparse, local edits, so its provisional
/// scans take mismatch steps long before the stream ends. With valued objects and one
/// object split mid-stream (see [`split_object`]), some of those steps are taken under
/// object verdicts that later pushes revise. `finish` must resume exactly the pairs
/// whose taken steps the final correlation confirms and re-scan the rest: the verdict
/// must be the batch diff's (pairs, sequences, compare counts) at every chunking, and
/// the event stream must stay monotone.
#[test]
fn watching_mutated_pairs_at_any_chunking_gives_the_batch_diff() {
    let engine = Engine::new();
    let seed = fuzz_seed();
    let mut rng = Rng::new(seed ^ 0x3a7c_5000);
    for &profile in GenProfile::ALL {
        let original = profile.generate(&mut rng, 2000);
        let copy = mutated(&mut rng, &original);
        let split = (with_values(&original), split_object(&copy));
        for (shape, old, new) in [
            ("near copy", original, copy),
            ("split near copy", split.0, split.1),
        ] {
            let (old, new) = (PreparedTrace::new(old), PreparedTrace::new(new));
            let batch = engine.diff(&old, &new).unwrap();
            let entries = &new.trace().entries;
            for chunk in ENTRY_CHUNKS {
                let context = format!("{profile} {shape} (seed {seed}, {chunk}-entry chunks)");
                let mut watch = engine.watch(&old, new.trace().meta.clone());
                let mut events = Vec::new();
                for slice in entries.chunks(chunk) {
                    events.extend(watch.push_entries(slice).unwrap());
                }
                let outcome = watch.finish().unwrap();
                events.extend(outcome.events);
                let got = &outcome.result;
                assert_eq!(
                    got.matching.normalized_pairs(),
                    batch.matching.normalized_pairs(),
                    "{context}: matchings"
                );
                assert_eq!(got.sequences, batch.sequences, "{context}: sequences");
                assert_eq!(
                    got.cost.compare_ops, batch.cost.compare_ops,
                    "{context}: compare ops"
                );
                assert_monotone(&context, &events);
            }
        }
    }
}

#[test]
fn watching_corpus_pairs_at_any_chunking_gives_the_batch_diff() {
    let engine = Engine::new();
    let files = corpus();
    for old in files.iter().filter(|f| f.name.contains(".old-regressing.")) {
        let new_name = old.name.replace(".old-regressing.", ".new-regressing.");
        let new = files.iter().find(|f| f.name == new_name).unwrap();
        assert_watch_matches_batch(&engine, old, new);
    }
}

fn assert_same_diff(context: &str, full: &TraceDiffResult, streamed: &TraceDiffResult) {
    assert_eq!(
        full.matching.normalized_pairs(),
        streamed.matching.normalized_pairs(),
        "{context}: matchings"
    );
    assert_eq!(full.sequences, streamed.sequences, "{context}: sequences");
    assert_eq!(
        full.cost.compare_ops, streamed.cost.compare_ops,
        "{context}: compare ops"
    );
}

fn assert_same_report(context: &str, full: &RegressionReport, streamed: &RegressionReport) {
    assert_same_diff(context, &full.suspected_diff, &streamed.suspected_diff);
    assert_eq!(full.suspected, streamed.suspected, "{context}: set A");
    assert_eq!(full.expected, streamed.expected, "{context}: set B");
    assert_eq!(full.regression, streamed.regression, "{context}: set C");
    assert_eq!(full.candidates, streamed.candidates, "{context}: set D");
    assert_eq!(
        full.compare_ops, streamed.compare_ops,
        "{context}: compare ops"
    );
    let verdicts = |report: &RegressionReport| {
        (
            report.suspected_diff.sequences.clone(),
            report.verdicts.clone(),
        )
    };
    assert_eq!(verdicts(full), verdicts(streamed), "{context}: verdicts");
}

#[test]
fn full_and_streamed_handles_diff_and_analyze_identically() {
    let engine = Engine::new();
    let mut rng = Rng::new(fuzz_seed() ^ 0x5eed_f011);
    for &profile in GenProfile::ALL {
        for entries in [40, 300] {
            for independent in [false, true] {
                let old = profile.generate(&mut rng, entries);
                let new = if independent {
                    profile.generate(&mut rng, entries)
                } else {
                    mutated(&mut rng, &old)
                };
                let quad = [mutated(&mut rng, &old), mutated(&mut rng, &new), old, new];
                let encoding = if rng.bool() {
                    Encoding::Binary
                } else {
                    Encoding::Jsonl
                };
                let streamed: Vec<PreparedTrace> = quad
                    .iter()
                    .map(|t| {
                        let bytes = trace_to_bytes(t, encoding).unwrap();
                        engine.load_prepared_reader(bytes.as_slice()).unwrap()
                    })
                    .collect();
                let full: Vec<PreparedTrace> = quad.into_iter().map(PreparedTrace::new).collect();
                let context = format!(
                    "{profile}-{entries} {} ({})",
                    if independent {
                        "independent"
                    } else {
                        "mutated"
                    },
                    encoding.extension()
                );

                let want = engine.diff(&full[0], &full[1]).unwrap();
                let got = engine.diff(&streamed[0], &streamed[1]).unwrap();
                assert_same_diff(&context, &want, &got);
                let mixed = engine.diff(&full[0], &streamed[1]).unwrap();
                assert_same_diff(&format!("{context} mixed"), &want, &mixed);

                let input = |h: &[PreparedTrace]| {
                    RegressionInput::new(h[0].clone(), h[1].clone(), h[2].clone(), h[3].clone())
                };
                let want = engine.analyze(&input(&full)).unwrap();
                let got = engine.analyze(&input(&streamed)).unwrap();
                assert_same_report(&context, &want, &got);
            }
        }
    }
}
