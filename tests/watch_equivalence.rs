//! Live-watch ≡ batch equivalence: on all four §5.2 case studies, a [`rprism::Watch`]
//! fed the new trace in chunks — at every boundary in {1, 7, 256, whole} — produces a
//! final verdict identical to the batch differ (matchings, difference sequences,
//! deterministic compare counts), and the same holds for the daemon's watch loop — a
//! `TailDecoder` fed the serialized trace in byte-level chunks under both on-disk
//! encodings, its batches pushed with [`rprism::Watch::push_batch`]. The provisional
//! event stream is checked for the monotonic invalidation rule throughout: a retracted
//! pair is never re-reported as a match, not even by the final reconciliation.

use std::collections::HashSet;

use rprism::{Encoding, Engine, ProvisionalEvent, TraceDiffResult};
use rprism_format::trace_to_bytes;
use rprism_workloads::casestudies;

mod common;
use common::tail_watch;

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

/// Checks the monotonic invalidation rule over the full event stream (pushes and the
/// final reconciliation concatenated), and returns the surviving matched pairs.
fn assert_monotone(context: &str, events: &[ProvisionalEvent]) -> HashSet<(usize, usize)> {
    let mut retracted: HashSet<(usize, usize)> = HashSet::new();
    let mut surviving: HashSet<(usize, usize)> = HashSet::new();
    for event in events {
        match *event {
            ProvisionalEvent::Match { left, right } => {
                assert!(
                    !retracted.contains(&(left, right)),
                    "{context}: pair ({left}, {right}) re-matched after retraction"
                );
                surviving.insert((left, right));
            }
            ProvisionalEvent::Invalidate { left, right } => {
                retracted.insert((left, right));
                surviving.remove(&(left, right));
            }
            ProvisionalEvent::Difference { .. } => {}
        }
    }
    surviving
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
