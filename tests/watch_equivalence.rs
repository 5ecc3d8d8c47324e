//! Live-watch ≡ batch equivalence: on all four §5.2 case studies, a [`rprism::Watch`]
//! fed the new trace in chunks — at every boundary in {1, 7, 256, whole} — produces a
//! final verdict identical to the batch differ (matchings, difference sequences,
//! deterministic compare counts), and the same holds for the daemon's watch loop — a
//! `TailDecoder` fed the serialized trace in byte-level chunks under both on-disk
//! encodings, its batches pushed with [`rprism::Watch::push_batch`]. The provisional
//! event stream is checked for the monotonic invalidation rule throughout: a retracted
//! pair is never re-reported as a match, not even by the final reconciliation. The
//! daemon-shaped stream itself (64 KiB binary chunks) is pinned event for event by
//! count and digest.

use std::collections::HashSet;

use rprism::{Encoding, Engine, PreparedTrace, ProvisionalEvent, TraceDiffResult};
use rprism_format::trace_to_bytes;
use rprism_trace::testgen::{mutated, GenProfile, Rng};
use rprism_workloads::casestudies;

mod common;
use common::{assert_monotone, tail_watch};

/// Entry-chunk boundaries exercised by the push-driven test; `usize::MAX` stands for
/// "the whole trace in one push".
const CHUNKS: [usize; 4] = [1, 7, 256, usize::MAX];

fn assert_same_verdict(context: &str, watched: &TraceDiffResult, batch: &TraceDiffResult) {
    assert_eq!(
        watched.matching.normalized_pairs(),
        batch.matching.normalized_pairs(),
        "{context}: matchings diverged"
    );
    assert_eq!(
        watched.sequences, batch.sequences,
        "{context}: difference sequences diverged"
    );
    assert_eq!(
        watched.cost.compare_ops, batch.cost.compare_ops,
        "{context}: compare counts diverged"
    );
    assert_eq!(
        watched.num_differences(),
        batch.num_differences(),
        "{context}: verdicts diverged"
    );
}

#[test]
fn push_driven_watch_chunked_at_every_boundary_matches_the_batch_differ() {
    let engine = Engine::new();
    for scenario in casestudies::all() {
        let traces = scenario.trace_all().unwrap();
        let [old, new, ..] = traces.handles();
        let batch = engine.diff(old, new).unwrap();
        let entries = &new.trace().entries;
        for chunk in CHUNKS {
            let context = format!("{} (chunk {chunk})", scenario.name);
            let mut watch = engine.watch(old, new.trace().meta.clone());
            let mut events = Vec::new();
            for slice in entries.chunks(chunk.min(entries.len().max(1))) {
                events.extend(watch.push_entries(slice).unwrap());
            }
            let outcome = watch.finish().unwrap();
            events.extend(outcome.events.iter().cloned());
            assert_same_verdict(&context, &outcome.result, &batch);

            // Monotone stream, and every surviving provisional match is confirmed by
            // the authoritative matching (retraction may drop pairs, never add them).
            let surviving = assert_monotone(&context, &events);
            let authoritative: HashSet<(usize, usize)> =
                batch.matching.normalized_pairs().iter().copied().collect();
            assert!(
                surviving.is_subset(&authoritative),
                "{context}: a provisional match survived finish() without being \
                 confirmed by the batch matching"
            );
        }
    }
}

#[test]
fn tailed_watch_over_both_encodings_matches_the_batch_differ() {
    let engine = Engine::new();
    for encoding in [Encoding::Binary, Encoding::Jsonl] {
        for scenario in casestudies::all() {
            let traces = scenario.trace_all().unwrap();
            let [old, new, ..] = traces.handles();
            let old_bytes = trace_to_bytes(old.trace(), encoding).unwrap();
            let new_bytes = trace_to_bytes(new.trace(), encoding).unwrap();
            let old = engine.load_prepared_reader(&old_bytes[..]).unwrap();
            let new = engine.load_prepared_reader(&new_bytes[..]).unwrap();
            let batch = engine.diff(&old, &new).unwrap();

            // Byte-level chunk boundaries: records arrive split mid-varint and
            // mid-line.
            for chunk in [1usize, 7, 64 * 1024] {
                let context = format!("{} ({encoding}, {chunk}-byte chunks)", scenario.name);
                let mut events = Vec::new();
                let outcome = tail_watch(&engine, &old, &new_bytes, chunk, &mut events);
                events.extend(outcome.events.iter().cloned());
                assert_same_verdict(&context, &outcome.result, &batch);
                assert_monotone(&context, &events);
            }
        }
    }
}

/// FNV-1a over a canonical byte form of an event stream: a tag per event, then every
/// index as a little-endian `u64` (a `Difference` writes its two lengths first).
fn event_digest(events: &[ProvisionalEvent]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let word = |n: usize| (n as u64).to_le_bytes();
    for event in events {
        match event {
            ProvisionalEvent::Match { left, right } => {
                eat(&[0]);
                eat(&word(*left));
                eat(&word(*right));
            }
            ProvisionalEvent::Invalidate { left, right } => {
                eat(&[1]);
                eat(&word(*left));
                eat(&word(*right));
            }
            ProvisionalEvent::Difference { left, right } => {
                eat(&[2]);
                eat(&word(left.len()));
                eat(&word(right.len()));
                left.iter().chain(right).for_each(|&k| eat(&word(k)));
            }
        }
    }
    hash
}

/// The daemon's event stream, event for event: the new side of each case study, and
/// of one generated near-copy pair, streams as 64 KiB binary chunks through the tail
/// decoder; the push events and the final reconciliation events are counted and
/// hashed together. A change to the session's bookkeeping that reorders, drops or adds
/// a single event moves these pins.
#[test]
fn the_daemon_shaped_event_stream_is_pinned() {
    let engine = Engine::new();
    let mut pairs: Vec<(String, PreparedTrace, PreparedTrace)> = Vec::new();
    for scenario in casestudies::all() {
        let traces = scenario.trace_all().unwrap();
        let [old, new, ..] = traces.handles();
        pairs.push((scenario.name.to_string(), old.clone(), new.clone()));
    }
    let mut rng = Rng::new(0x5eed_2500);
    let old = GenProfile::WellFormed.generate(&mut rng, 2400);
    let new = mutated(&mut rng, &old);
    pairs.push((
        "well-formed-2400".into(),
        PreparedTrace::new(old),
        PreparedTrace::new(new),
    ));

    let mut got: Vec<(String, usize, u64)> = Vec::new();
    for (name, old, new) in &pairs {
        let bytes = trace_to_bytes(new.trace(), Encoding::Binary).unwrap();
        let mut events = Vec::new();
        let outcome = tail_watch(&engine, old, &bytes, 64 * 1024, &mut events);
        events.extend(outcome.events);
        got.push((name.clone(), events.len(), event_digest(&events)));
    }
    let pinned: Vec<(String, usize, u64)> = PINNED_STREAMS
        .iter()
        .map(|&(name, count, digest)| (name.to_string(), count, digest))
        .collect();
    assert_eq!(got, pinned, "the watch's event stream moved");
}

/// `(pair, event count, event_digest)` of [`the_daemon_shaped_event_stream_is_pinned`].
const PINNED_STREAMS: &[(&str, usize, u64)] = &[
    ("daikon", 333, 12825436917434587024),
    ("xalan-1725", 119, 664004704890554419),
    ("xalan-1802", 136, 5375657741981392611),
    ("derby-1633", 188, 1440518072691484089),
    ("well-formed-2400", 3362, 17896461190488948486),
];
