//! Helpers shared by the workspace test binaries (`mod common;` in each).

use std::collections::HashSet;

use rprism::{Engine, PreparedTrace, ProvisionalEvent, WatchOutcome, BATCH_ENTRIES};
use rprism_format::{TailBatch, TailDecoder};
use rprism_trace::EntryBatch;

/// The daemon's watch loop (`fold_chunk` in `rprism-server`): feed `bytes` in
/// `chunk`-byte pieces through a [`TailDecoder`], open the watch once the header has
/// named the trace, push every decodable batch, then drain strictly and finish.
/// Every provisional event is appended to `events`.
pub fn tail_watch(
    engine: &Engine,
    old: &PreparedTrace,
    bytes: &[u8],
    chunk: usize,
    events: &mut Vec<ProvisionalEvent>,
) -> WatchOutcome {
    let mut decoder = TailDecoder::new();
    let mut watch = None;
    let mut batch = EntryBatch::new();
    for piece in bytes.chunks(chunk) {
        decoder.push_bytes(piece).unwrap();
        loop {
            if watch.is_none() {
                match decoder.meta() {
                    Some(meta) => watch = Some(engine.watch(old, meta.clone())),
                    None => break,
                }
            }
            match decoder.read_refs(&mut batch, BATCH_ENTRIES).unwrap() {
                TailBatch::Entries(_) => {
                    events.extend(watch.as_mut().unwrap().push_batch(&batch));
                }
                TailBatch::Pending | TailBatch::End => break,
            }
        }
    }
    batch.clear();
    decoder.finish_refs(&mut batch).unwrap();
    let mut watch = watch.unwrap_or_else(|| engine.watch(old, decoder.meta().unwrap().clone()));
    if !batch.is_empty() {
        events.extend(watch.push_batch(&batch));
    }
    watch.finish().unwrap()
}

/// Checks the monotonic invalidation rule over the full event stream (pushes and the
/// final reconciliation concatenated), and returns the surviving matched pairs.
pub fn assert_monotone(context: &str, events: &[ProvisionalEvent]) -> HashSet<(usize, usize)> {
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
