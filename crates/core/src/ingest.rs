//! Trace ingestion: one fold from entries to a prepared handle's artifacts.
//!
//! Every [`PreparedTrace`](crate::PreparedTrace) gets its [`LeanTrace`] context, its
//! [`KeyedTrace`] and its [`ViewWeb`] from one [`SideArtifacts::push_batch`] fold over
//! [`EntryBatch`]es, run when the handle is made, on the calling thread (the
//! tracer-driver design: build what the consumer needs in the one pass that sees
//! each event). There are two producers of batches:
//!
//! * [`stream_prepare`] drives a [`TraceReader`] over serialized bytes. Entries are
//!   decoded **at the level of symbols**: each borrowed
//!   [`EntryRef`](rprism_trace::EntryRef) holds interned names, object identities and
//!   locations, never a string. Binary input never builds a
//!   [`TraceEntry`](rprism_trace::TraceEntry) at all; JSONL entries are decoded and
//!   pass through the batch's adapter. One batch of [`BATCH_ENTRIES`] entries is alive
//!   at a time, so peak memory is O(accumulated artifacts) rather than O(decoded
//!   trace); the counting-allocator test in `crates/core/tests` pins the resulting ≥2×
//!   peak reduction down.
//! * [`prepare_in_memory`] pushes an in-memory [`Trace`] through the
//!   [`EntryBatch::of`] adapter, batch by batch.
//!
//! A live watch's [`DiffSession`](rprism_diff::DiffSession) runs the same push. The
//! artifacts are therefore *identical* whatever the entries came from: the workspace
//! `streaming_equivalence` suite asserts identical matchings, difference signatures
//! and compare counts on all four case studies, and `entryref_equivalence` asserts
//! identical artifacts against the reference builders ([`KeyedTrace::build`],
//! [`ViewWeb::build`]) on generated and corpus traces.
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
//!
//! [`LeanTrace`]: rprism_trace::LeanTrace
//! [`KeyedTrace`]: rprism_trace::KeyedTrace
//! [`KeyedTrace::build`]: rprism_trace::KeyedTrace::build
//! [`ViewWeb`]: rprism_views::ViewWeb
//! [`ViewWeb::build`]: rprism_views::ViewWeb::build

use std::io::Read;
use std::time::{Duration, Instant};

use rprism_diff::SideArtifacts;
use rprism_format::{FormatError, TraceReader};
use rprism_trace::{EntryBatch, Trace};

/// Entries per batch: the number of decoded entries alive at any instant of a
/// streamed load.
pub const BATCH_ENTRIES: usize = 256;

/// Wall time the three ingest phases accumulated over one streamed load — what the
/// engine records into the `pipeline.decode` / `pipeline.key` / `pipeline.web`
/// histograms.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PhaseTimes {
    /// Decoding batches off the reader (checksums, varints, string table, symbols).
    pub(crate) decode: Duration,
    /// Keyed-trace and lean-context construction.
    pub(crate) key: Duration,
    /// View-web extension.
    pub(crate) web: Duration,
}

/// Drives a [`TraceReader`] to completion, building the artifacts in one
/// bounded-memory pass.
///
/// # Errors
///
/// Propagates the first [`FormatError`] of the stream (truncation, corruption,
/// checksum mismatch, …). Nothing is retained on error — the partial artifacts are
/// dropped with the call frame, so a failed ingest leaves no residue beyond interned
/// name strings (see the module docs).
pub(crate) fn stream_prepare<R: Read>(
    mut reader: TraceReader<R>,
) -> Result<(SideArtifacts, PhaseTimes), FormatError> {
    let mut artifacts = SideArtifacts::new(reader.meta().clone());
    let mut batch = EntryBatch::new();
    let mut times = PhaseTimes::default();
    loop {
        let decode_start = Instant::now();
        let n = reader.read_refs(&mut batch, BATCH_ENTRIES)?;
        times.decode += decode_start.elapsed();
        if n == 0 {
            return Ok((artifacts, times));
        }
        let pushed = artifacts.push_batch(&batch);
        times.key += pushed.key;
        times.web += pushed.web;
    }
}

/// The artifacts of an in-memory trace: its entries pushed through the
/// [`EntryBatch`] adapter, [`BATCH_ENTRIES`] at a time.
pub(crate) fn prepare_in_memory(trace: &Trace) -> SideArtifacts {
    let mut artifacts = SideArtifacts::new(trace.meta.clone());
    for chunk in trace.entries.chunks(BATCH_ENTRIES) {
        artifacts.push_batch(&EntryBatch::of(chunk));
    }
    artifacts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_format::{trace_to_bytes, Encoding};
    use rprism_trace::testgen::{arbitrary_trace, Rng};
    use rprism_trace::KeyedTrace;
    use rprism_views::ViewWeb;
    use std::io::BufReader;

    fn streamed(bytes: &[u8]) -> Result<SideArtifacts, FormatError> {
        let reader = TraceReader::new(BufReader::new(bytes)).unwrap();
        stream_prepare(reader).map(|(artifacts, _)| artifacts)
    }

    #[test]
    fn streamed_artifacts_match_whole_trace_builds() {
        let mut rng = Rng::new(0x1157);
        let trace = arbitrary_trace(&mut rng, 1500);
        let reference_keyed = KeyedTrace::build(&trace);
        let reference_web = ViewWeb::build(&trace);
        let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
        for (path, artifacts) in [
            ("streamed", streamed(&bytes).unwrap()),
            ("in-memory", prepare_in_memory(&trace)),
        ] {
            let side = artifacts.side();
            assert_eq!(artifacts.lean().meta, trace.meta);
            assert_eq!(side.len(), trace.len());
            assert_eq!(side.keyed().len(), reference_keyed.len());
            for i in 0..trace.len() {
                assert!(
                    side.keyed().key_eq(i, &reference_keyed, i),
                    "key {i} diverged ({path})"
                );
            }
            assert_eq!(side.web().total_views(), reference_web.total_views());
            for (id, view) in reference_web.views_with_ids() {
                assert_eq!(
                    side.web().view_by_id(id).entries,
                    view.entries,
                    "view {id:?} diverged ({path})"
                );
            }
        }
    }

    #[test]
    fn truncated_streams_error_and_leave_nothing_behind() {
        let mut rng = Rng::new(0xdead);
        let trace = arbitrary_trace(&mut rng, 300);
        let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
        assert!(streamed(&bytes[..bytes.len() * 2 / 3]).is_err());
    }
}
