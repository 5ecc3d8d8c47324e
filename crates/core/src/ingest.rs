//! Streaming trace ingestion: one bounded-memory pass from serialized bytes to
//! prepared analysis artifacts.
//!
//! The load-then-prepare path ([`rprism_format::read_trace`] into
//! [`PreparedTrace::new`](crate::PreparedTrace::new)) materializes a full
//! [`Trace`](rprism_trace::Trace) — every entry with its owned strings — and then
//! re-walks it to derive the [`KeyedTrace`] and [`ViewWeb`]. For multi-hundred-MB
//! traces that double-walks the data and, more importantly, keeps the whole decoded
//! trace resident for the lifetime of the handle.
//!
//! [`stream_prepare`] instead drives the [`TraceReader`] batch by batch and folds
//! **abstraction into ingestion** (the tracer-driver/TAAF design: produce only the
//! attributes the consumer asks for). Entries are decoded **at the level of symbols**
//! into an [`EntryBatch`]: each borrowed [`EntryRef`] holds interned names, object
//! identities and locations, never a string. Binary input never builds a
//! [`TraceEntry`](rprism_trace::TraceEntry) at all; JSONL entries are decoded and pass
//! through the batch's adapter. Each entry is keyed, appended to the incrementally
//! extended view web and reduced to its [`LeanTrace`] context — then dropped with its
//! batch. At no point does more than a bounded window of entries exist:
//!
//! * on a one-worker host (see [`rprism_trace::par::workers`]), everything runs on the
//!   calling thread and one batch of [`BATCH_ENTRIES`] entries is alive at a time;
//! * otherwise the decoder feeds a two-stage scoped-thread pipeline over bounded
//!   channels of entry batches — stage one builds the keyed trace and the lean
//!   context, then forwards the batch; stage two extends the web, then drops it — so
//!   at most `(2 × channel capacity + 3) × batch size` entries are in flight while
//!   decoding overlaps artifact construction.
//!
//! Peak memory is therefore O(accumulated artifacts) — lean contexts, keys, web —
//! rather than O(decoded trace); the counting-allocator test in `crates/core/tests`
//! pins the resulting ≥2× peak reduction down.
//!
//! Both builders produce artifacts *identical* to the load-then-prepare path: every
//! builder consumes [`EntryRef`]s, the web is extended in entry order
//! ([`ViewWeb::extend`]), keys are pushed in entry order, and the lean context
//! captures exactly the fields the differencer and the regression analysis read. The
//! workspace-level `streaming_equivalence` suite asserts identical matchings,
//! difference signatures and compare counts on all four case studies, and
//! `entryref_equivalence` asserts identical artifacts against the owned-entry
//! adapter on generated and corpus traces.
//!
//! **Interning.** Only names are interned — the strings in class, method, field and
//! init-class positions — and each one once per string id per stream: the decoder
//! resolves an id to its [`Symbol`](rprism_trace::Symbol) on its first mention in a
//! name position and reuses it after that. Printed values are never interned. One
//! deliberate trade-off remains: the load-then-prepare path defers interning until
//! after the checksum footer has validated the whole stream, whereas streaming
//! ingestion interns names *as they arrive* — a corrupt file that fails late can leave
//! the names read so far behind (bounded by the bytes read). Callers ingesting wholly
//! untrusted data who cannot accept that should load the whole trace with
//! [`rprism_format::read_trace`] and wrap it with
//! [`PreparedTrace::new`](crate::PreparedTrace::new).

use std::io::BufRead;
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

use rprism_format::{FormatError, TraceReader};
use rprism_trace::{par, EntryBatch, EntryRef, KeyedTrace, LeanTrace, TraceMeta};
use rprism_views::ViewWeb;

/// Entries decoded per batch. Batching amortizes channel traffic; the value bounds the
/// number of decoded entries alive at any instant.
pub const BATCH_ENTRIES: usize = 256;

/// Batches buffered per pipeline channel before the sender blocks (back-pressure).
const CHANNEL_BATCHES: usize = 2;

/// The artifacts one streaming pass accumulates: everything a prepared handle needs,
/// with the full trace replaced by its [`LeanTrace`] reduction.
#[derive(Debug)]
pub struct StreamedArtifacts {
    /// Trace identification from the stream header.
    pub meta: TraceMeta,
    /// Lean per-entry context (thread ids, interned names, object identities).
    pub lean: LeanTrace,
    /// Precomputed event keys, identical to `KeyedTrace::build` over the full trace.
    pub keyed: KeyedTrace,
    /// The view web, identical to `ViewWeb::build` over the full trace.
    pub web: ViewWeb,
}

impl StreamedArtifacts {
    /// Number of ingested entries.
    pub fn len(&self) -> usize {
        self.lean.len()
    }

    /// Returns `true` when the stream contained no entries.
    pub fn is_empty(&self) -> bool {
        self.lean.is_empty()
    }
}

/// Wall time the three ingest phases accumulated over one streaming pass. Timing is
/// per batch (two `Instant` reads per phase per 256 entries), so the cost of always
/// collecting it is noise; in the pipeline the phases overlap, so the components can
/// legitimately sum to more than the pass's elapsed wall time.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Decoding batches off the reader (checksums, varints, string table, symbols).
    pub decode: Duration,
    /// Keyed-trace and lean-context construction.
    pub key: Duration,
    /// View-web extension.
    pub web: Duration,
}

/// Drives a [`TraceReader`] to completion, building the prepared artifacts in one
/// bounded-memory pass. When the host has more than one worker, keyed/web/lean
/// construction runs on scoped threads fed by bounded channels of entry batches,
/// overlapping with decoding; the results are identical either way.
///
/// # Errors
///
/// Propagates the first [`FormatError`] of the stream (truncation, corruption,
/// checksum mismatch, …). Nothing is retained on error — the partial artifacts are
/// dropped with the call frame, so a failed ingest leaves no residue beyond interned
/// name strings (see the module docs).
pub fn stream_prepare<R: BufRead>(
    reader: TraceReader<R>,
) -> Result<StreamedArtifacts, FormatError> {
    stream_prepare_observed(reader, |_| {})
}

/// [`stream_prepare`] with a per-entry observer: `observe` is called once for every
/// decoded entry, as a borrowed [`EntryRef`], in entry order, on the calling thread —
/// before the pipeline consumes and drops its batch. This is how ingest-time
/// analyses (the `rprism-check` streaming checker behind
/// `EngineBuilder::check_on_ingest`) see every entry without a second decode pass and
/// without the ingest layer depending on them.
///
/// The observer shares the pass's memory bound: it borrows each entry transiently and
/// must not retain it.
///
/// # Errors
///
/// Propagates the first [`FormatError`] of the stream, like [`stream_prepare`].
pub fn stream_prepare_observed<R: BufRead>(
    reader: TraceReader<R>,
    observe: impl FnMut(EntryRef<'_>),
) -> Result<StreamedArtifacts, FormatError> {
    stream_prepare_timed(reader, observe).map(|(artifacts, _)| artifacts)
}

/// [`stream_prepare_observed`], additionally reporting how long each ingest phase
/// took ([`PhaseTimes`]). This is what the engine's pipeline instrumentation records
/// into the `pipeline.decode` / `pipeline.key` / `pipeline.web` histograms.
///
/// # Errors
///
/// Propagates the first [`FormatError`] of the stream, like [`stream_prepare`].
pub fn stream_prepare_timed<R: BufRead>(
    reader: TraceReader<R>,
    observe: impl FnMut(EntryRef<'_>),
) -> Result<(StreamedArtifacts, PhaseTimes), FormatError> {
    stream_on(reader, par::workers() > 1, observe)
}

/// The pass itself, with the choice between the two-stage pipeline and the calling
/// thread made explicit.
fn stream_on<R: BufRead>(
    mut reader: TraceReader<R>,
    pipelined: bool,
    mut observe: impl FnMut(EntryRef<'_>),
) -> Result<(StreamedArtifacts, PhaseTimes), FormatError> {
    let meta = reader.meta().clone();
    if pipelined {
        stream_pipelined(reader, meta, &mut observe)
    } else {
        stream_sequential(&mut reader, meta, &mut observe)
    }
}

fn stream_sequential<R: BufRead>(
    reader: &mut TraceReader<R>,
    meta: TraceMeta,
    observe: &mut impl FnMut(EntryRef<'_>),
) -> Result<(StreamedArtifacts, PhaseTimes), FormatError> {
    let mut lean = LeanTrace::new(meta.clone());
    let mut keyed = KeyedTrace::default();
    let mut web = ViewWeb::empty();
    let mut batch = EntryBatch::new();
    let mut index = 0usize;
    let mut times = PhaseTimes::default();
    loop {
        let decode_start = Instant::now();
        let n = reader.read_refs(&mut batch, BATCH_ENTRIES)?;
        times.decode += decode_start.elapsed();
        if n == 0 {
            break;
        }
        batch.iter().for_each(&mut *observe);
        let key_start = Instant::now();
        for entry in batch.iter() {
            lean.push(entry);
            keyed.push(entry);
        }
        times.key += key_start.elapsed();
        let web_start = Instant::now();
        for entry in batch.iter() {
            web.extend(index, entry);
            index += 1;
        }
        times.web += web_start.elapsed();
    }
    Ok((
        StreamedArtifacts {
            meta,
            lean,
            keyed,
            web,
        },
        times,
    ))
}

/// One decoded batch moving through the pipeline: the base entry index plus the
/// entries themselves, at the level of symbols. Each stage owns the batch while
/// working on it; the last stage drops it, reclaiming its memory.
type Batch = (usize, EntryBatch);

fn stream_pipelined<R: BufRead>(
    mut reader: TraceReader<R>,
    meta: TraceMeta,
    observe: &mut impl FnMut(EntryRef<'_>),
) -> Result<(StreamedArtifacts, PhaseTimes), FormatError> {
    let (stage1_tx, stage1_rx) = sync_channel::<Batch>(CHANNEL_BATCHES);
    let (stage2_tx, stage2_rx) = sync_channel::<Batch>(CHANNEL_BATCHES);
    let lean_meta = meta.clone();
    std::thread::scope(|scope| {
        // Stage 1: keys + lean context, then hand the batch on (no copy, no sharing).
        let keyed_builder = scope.spawn(move || {
            let mut keyed = KeyedTrace::default();
            let mut lean = LeanTrace::new(lean_meta);
            let mut busy = Duration::ZERO;
            while let Ok(batch) = stage1_rx.recv() {
                let start = Instant::now();
                for entry in batch.1.iter() {
                    keyed.push(entry);
                    lean.push(entry);
                }
                busy += start.elapsed();
                if stage2_tx.send(batch).is_err() {
                    break; // stage 2 panicked; the join below propagates it
                }
            }
            (keyed, lean, busy)
        });
        // Stage 2: view web, then drop the batch — the only place entries die.
        let web_builder = scope.spawn(move || {
            let mut web = ViewWeb::empty();
            let mut busy = Duration::ZERO;
            while let Ok(batch) = stage2_rx.recv() {
                let start = Instant::now();
                for (offset, entry) in batch.1.iter().enumerate() {
                    web.extend(batch.0 + offset, entry);
                }
                busy += start.elapsed();
            }
            (web, busy)
        });

        let mut base = 0usize;
        let mut decode = Duration::ZERO;
        let mut outcome: Result<(), FormatError> = Ok(());
        loop {
            let mut batch = EntryBatch::new();
            let decode_start = Instant::now();
            let read = reader.read_refs(&mut batch, BATCH_ENTRIES);
            decode += decode_start.elapsed();
            match read {
                Ok(0) => break,
                Ok(n) => {
                    // The observer runs on the decode thread, in entry order, before
                    // the batch enters the pipeline.
                    batch.iter().for_each(&mut *observe);
                    // A send only fails when a builder panicked; the join below
                    // propagates that panic.
                    if stage1_tx.send((base, batch)).is_err() {
                        break;
                    }
                    base += n;
                }
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }
        // Closing the channel lets the pipeline drain and finish.
        drop(stage1_tx);
        let (keyed, lean, key) = keyed_builder.join().expect("keyed/lean builder panicked");
        let (web, web_busy) = web_builder.join().expect("web builder panicked");
        outcome.map(|()| {
            (
                StreamedArtifacts {
                    meta,
                    lean,
                    keyed,
                    web,
                },
                PhaseTimes {
                    decode,
                    key,
                    web: web_busy,
                },
            )
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_format::{trace_to_bytes, Encoding};
    use rprism_trace::testgen::{arbitrary_trace, Rng};
    use std::io::BufReader;

    fn streamed(trace: &rprism_trace::Trace, pipelined: bool) -> StreamedArtifacts {
        let bytes = trace_to_bytes(trace, Encoding::Binary).unwrap();
        let reader = TraceReader::new(BufReader::new(bytes.as_slice())).unwrap();
        stream_on(reader, pipelined, |_| {}).unwrap().0
    }

    #[test]
    fn streamed_artifacts_match_whole_trace_builds() {
        let mut rng = Rng::new(0x1157);
        let trace = arbitrary_trace(&mut rng, 1500);
        let reference_keyed = KeyedTrace::build(&trace);
        let reference_web = ViewWeb::build(&trace);
        for pipelined in [false, true] {
            let artifacts = streamed(&trace, pipelined);
            assert_eq!(artifacts.meta, trace.meta);
            assert_eq!(artifacts.len(), trace.len());
            assert_eq!(artifacts.keyed.len(), reference_keyed.len());
            for i in 0..trace.len() {
                assert!(
                    artifacts.keyed.key_eq(i, &reference_keyed, i),
                    "key {i} diverged (pipelined={pipelined})"
                );
            }
            assert_eq!(artifacts.web.total_views(), reference_web.total_views());
            for (id, view) in reference_web.views_with_ids() {
                assert_eq!(
                    artifacts.web.view_by_id(id).entries,
                    view.entries,
                    "view {id:?} diverged (pipelined={pipelined})"
                );
            }
        }
    }

    #[test]
    fn truncated_streams_error_and_leave_nothing_behind() {
        let mut rng = Rng::new(0xdead);
        let trace = arbitrary_trace(&mut rng, 300);
        let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
        for pipelined in [false, true] {
            let cut = &bytes[..bytes.len() * 2 / 3];
            let reader = TraceReader::new(BufReader::new(cut)).unwrap();
            assert!(stream_on(reader, pipelined, |_| {}).is_err());
        }
    }
}
