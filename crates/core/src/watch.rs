//! Live (incremental) differencing: a fixed prepared *old* trace watched against a
//! *new* trace that is still being produced.
//!
//! [`Watch`] is the engine-level wrapper around [`rprism_diff::DiffSession`]: it owns a
//! clone of the old handle and folds key derivation, web extension and the suspended
//! lock-step scan into each push — the new trace is never materialized.
//! [`Watch::finish`] produces the authoritative verdict, byte-identical (matching,
//! difference sequences, compare counts) to [`Engine::diff`](crate::Engine::diff) of
//! the same two traces, plus a streamed [`PreparedTrace`] handle for the watched side
//! so reports render exactly like the batch path's.
//!
//! Construction goes through [`Engine::watch`](crate::Engine::watch); the caller pushes
//! entries as they arrive. For a serialized stream that is still growing, a
//! [`TailDecoder`](rprism_format::TailDecoder) takes the bytes in any chunks, names the
//! trace once its header has arrived, and yields [`EntryBatch`]es for
//! [`Watch::push_batch`] — the daemon's watch loop.
//!
//! Every push records a `watch.push` span and the finish a `watch.finish` span in the
//! engine's [`Obs`], so a daemon's metrics and self-trace split a streamed upload into
//! its incremental scans and its final verdict.

use rprism_diff::{DiffSession, ProvisionalEvent, TraceDiffResult};
use rprism_obs::Obs;
use rprism_trace::{EntryBatch, TraceEntry};

use crate::{PreparedTrace, Result};

/// An in-progress live diff: push new-trace entries as they arrive, collect
/// provisional events, then [`finish`](Watch::finish) for the authoritative verdict.
///
/// The provisional stream is monotone: a `(left, right)` pair retracted by an
/// `Invalidate` event is never re-reported as a `Match`, not even by the final
/// reconciliation. See [`rprism_diff::DiffSession`] for the exact event semantics.
pub struct Watch {
    old: PreparedTrace,
    session: DiffSession,
    /// The engine's observability domain: every push records a `watch.push` span and
    /// the finish a `watch.finish` span.
    obs: Obs,
}

/// Everything a finished watch produces.
#[derive(Debug)]
pub struct WatchOutcome {
    /// The authoritative diff, byte-identical to the batch
    /// [`Engine::diff`](crate::Engine::diff) of the same pair.
    pub result: TraceDiffResult,
    /// Final reconciliation events: `Match` for authoritative pairs never reported
    /// provisionally, then `Invalidate` for provisional pairs the verdict dropped.
    pub events: Vec<ProvisionalEvent>,
    /// The watched trace as a streamed prepared handle (keys and web already built),
    /// for rendering the final report or further queries.
    pub new_trace: PreparedTrace,
}

impl Watch {
    pub(crate) fn new(old: PreparedTrace, session: DiffSession, obs: Obs) -> Self {
        Watch { old, session, obs }
    }

    /// Number of new-trace entries consumed so far.
    pub fn right_len(&self) -> usize {
        self.session.right_len()
    }

    /// Appends a chunk of new-trace entries (in trace order, any chunk boundaries) and
    /// advances the incremental scan, returning the provisional events the chunk
    /// produced.
    ///
    /// # Errors
    ///
    /// None: every pushed entry is accepted. The `Result` keeps the engine's shape
    /// for its streaming entry points.
    pub fn push_entries(&mut self, entries: &[TraceEntry]) -> Result<Vec<ProvisionalEvent>> {
        Ok(self.push_batch(&EntryBatch::of(entries)))
    }

    /// [`Watch::push_entries`] for a batch already at the level of symbols — what
    /// [`TraceReader::read_refs_tail`](rprism_format::TraceReader::read_refs_tail) and
    /// the server's tail decoder produce.
    pub fn push_batch(&mut self, batch: &EntryBatch) -> Vec<ProvisionalEvent> {
        let _push = self.obs.span("watch.push");
        self.session.push_batch(&self.old.side(), batch)
    }

    /// Ends the stream: computes the authoritative verdict over the accumulated
    /// artifacts.
    ///
    /// # Errors
    ///
    /// None, as for [`Watch::push_entries`].
    pub fn finish(self) -> Result<WatchOutcome> {
        let _finish = self.obs.span("watch.finish");
        let finish = self.session.finish(&self.old.side());
        Ok(WatchOutcome {
            result: finish.result,
            events: finish.events,
            new_trace: PreparedTrace::from_streamed(finish.artifacts),
        })
    }
}
