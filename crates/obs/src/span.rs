//! Tracing spans: scoped timers that feed a latency histogram, a bounded in-memory
//! ring of recent span records (the raw material of [`crate::selftrace`]), and the
//! per-request phase breakdown used by the server's slow-request log.
//!
//! A [`crate::SpanGuard`] is obtained from [`crate::Obs::span`] and records on drop; the
//! begin/end pair plus a process-stable thread id is everything the self-tracer needs
//! to rebuild call nesting. Threads get small dense ids (1, 2, …) on first use so the
//! self-trace's thread ids are stable within a process run.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// A completed span: `name` ran on thread `thread` from `start_us` to `end_us`
/// (microseconds since the observer's epoch). Records are complete-on-drop, so a ring
/// never holds half a span; nesting is recoverable from interval containment per
/// thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span name (static, dot-separated taxonomy: `request.diff`, `repo.put`, …).
    pub name: &'static str,
    /// The process-stable observer thread id (dense, starting at 1).
    pub thread: u64,
    /// Begin time, microseconds since the observer's epoch.
    pub start_us: u64,
    /// End time, microseconds since the observer's epoch.
    pub end_us: u64,
}

/// The bounded ring of recent [`SpanRecord`]s: completed spans push at the tail and
/// evict at the head once `capacity` is reached.
#[derive(Debug)]
pub(crate) struct SpanRing {
    records: VecDeque<SpanRecord>,
    capacity: usize,
}

impl SpanRing {
    pub(crate) fn new(capacity: usize) -> SpanRing {
        SpanRing {
            records: VecDeque::with_capacity(capacity.min(1024)),
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn push(&mut self, record: SpanRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(record);
    }

    pub(crate) fn records(&self) -> Vec<SpanRecord> {
        self.records.iter().copied().collect()
    }
}

static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    /// The current request's phase accumulator: `Some` while a request scope is open
    /// on this thread. Spans and phase timers append `(name, us)` pairs.
    static PHASES: RefCell<Option<Vec<(&'static str, u64)>>> = const { RefCell::new(None) };
}

/// The process-stable id of the calling thread (dense, assigned on first use,
/// starting at 1; 0 is reserved for the self-trace's synthetic root thread).
pub fn current_thread_id() -> u64 {
    THREAD_ID.with(|slot| {
        let id = slot.get();
        if id != 0 {
            return id;
        }
        let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        slot.set(id);
        id
    })
}

/// Opens a phase-collection scope on the calling thread: until [`take_phases`], every
/// span ended and every phase timer recorded *on this thread* also lands in a
/// thread-local list. The server brackets each request with this pair to build the
/// slow-request phase breakdown without any cross-thread bookkeeping.
pub fn begin_phases() {
    PHASES.with(|slot| *slot.borrow_mut() = Some(Vec::new()));
}

/// Closes the scope opened by [`begin_phases`] and returns the `(phase, µs)` pairs
/// accumulated since, in recording order. Returns an empty list when no scope is
/// open.
pub fn take_phases() -> Vec<(&'static str, u64)> {
    PHASES.with(|slot| slot.borrow_mut().take().unwrap_or_default())
}

/// Appends to the open phase scope, if any.
pub(crate) fn note_phase(name: &'static str, us: u64) {
    PHASES.with(|slot| {
        if let Some(phases) = slot.borrow_mut().as_mut() {
            phases.push((name, us));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_keeps_the_newest_spans() {
        let mut ring = SpanRing::new(2);
        for i in 0..5u64 {
            ring.push(SpanRecord {
                name: "t",
                thread: 1,
                start_us: i,
                end_us: i + 1,
            });
        }
        let records = ring.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].start_us, 3);
        assert_eq!(records[1].start_us, 4);
    }

    #[test]
    fn thread_ids_are_stable_and_distinct() {
        let here = current_thread_id();
        assert_eq!(here, current_thread_id());
        assert!(here >= 1);
        let there = std::thread::spawn(current_thread_id).join().unwrap();
        assert_ne!(here, there);
    }

    #[test]
    fn phase_scopes_collect_and_clear() {
        assert!(take_phases().is_empty());
        note_phase("ignored", 1);
        begin_phases();
        note_phase("pipeline.decode", 10);
        note_phase("pipeline.scan", 20);
        assert_eq!(
            take_phases(),
            vec![("pipeline.decode", 10), ("pipeline.scan", 20)]
        );
        assert!(take_phases().is_empty());
    }
}
