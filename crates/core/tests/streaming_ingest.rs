//! Bounded-memory guarantees of streaming ingestion, enforced with a
//! live/peak-bytes tracking global allocator:
//!
//! * `Engine::load_prepared_reader` allocates O(accumulated artifacts) — its peak heap
//!   growth stays well below the load-then-prepare path, which must keep the whole
//!   decoded trace resident next to the same artifacts;
//! * the artifacts a streamed handle *retains* are a fraction of a full handle's
//!   footprint;
//! * truncation or corruption mid-stream surfaces as an error and leaves the engine
//!   clean and reusable: subsequent loads and diffs work, and the failed load retains
//!   no live memory beyond interner growth.
//!
//! The counters are process-global, so every measuring test holds [`MEASURE`] for its
//! whole run: a sibling test allocating concurrently would otherwise show up in the
//! measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Serializes the tests that read [`LIVE`] / [`PEAK`].
static MEASURE: Mutex<()> = Mutex::new(());

/// Takes [`MEASURE`]; a test that failed while holding it does not block the others.
fn measuring() -> MutexGuard<'static, ()> {
    MEASURE.lock().unwrap_or_else(PoisonError::into_inner)
}

struct TrackingAllocator;

impl TrackingAllocator {
    fn record_alloc(size: usize) {
        let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn live() -> u64 {
        LIVE.load(Ordering::SeqCst)
    }

    fn reset_peak() -> u64 {
        let live = Self::live();
        PEAK.store(live, Ordering::SeqCst);
        live
    }

    fn peak_since(baseline: u64) -> u64 {
        PEAK.load(Ordering::SeqCst).saturating_sub(baseline)
    }
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Self::record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            Self::record_alloc(new_size);
        }
        new_ptr
    }
}

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

use rprism::{Encoding, Engine, PreparedTrace};
use rprism_format::{read_trace_path, write_trace_path};
use rprism_trace::testgen::{arbitrary_trace, Rng};
use std::fs::File;
use std::path::{Path, PathBuf};

/// Streams the trace file at `path` into a prepared handle.
fn stream(engine: &Engine, path: &Path) -> rprism::Result<PreparedTrace> {
    engine.load_prepared_reader(File::open(path).unwrap())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rprism-stream-mem-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn streaming_ingest_allocates_artifacts_not_the_trace() {
    let _measure = measuring();
    let dir = temp_dir("bound");
    let path = dir.join("large.rtr");
    {
        let mut rng = Rng::new(0x900d);
        let trace = arbitrary_trace(&mut rng, 20_000);
        write_trace_path(&trace, &path, Encoding::Binary).unwrap();
        // The generated trace drops here; only the file remains.
    }
    let engine = Engine::new();

    // Warm the interner and the allocator once so both measured passes run on equal
    // footing (vocabulary interning is a one-time, process-level cost).
    drop(stream(&engine, &path).unwrap());

    let baseline = TrackingAllocator::reset_peak();
    let full = PreparedTrace::new(read_trace_path(&path).unwrap());
    let full_peak = TrackingAllocator::peak_since(baseline);
    let full_retained = TrackingAllocator::live() - baseline;
    drop(full);

    let baseline = TrackingAllocator::reset_peak();
    let streamed = stream(&engine, &path).unwrap();
    let streamed_peak = TrackingAllocator::peak_since(baseline);
    let streamed_retained = TrackingAllocator::live() - baseline;

    assert_eq!(streamed.len(), 20_000);
    // Peak: the streaming pass must stay well under load-then-prepare, which holds the
    // decoded trace *and* the artifacts simultaneously. The 2x bound is the acceptance
    // criterion; the one in-flight batch is a small constant on top of the artifacts.
    assert!(
        streamed_peak * 2 <= full_peak,
        "streaming peak {streamed_peak} not at least 2x below load-then-prepare peak {full_peak}"
    );
    // Retained: a streamed handle keeps only lean context + keys + web.
    assert!(
        streamed_retained * 2 <= full_retained,
        "streamed handle retains {streamed_retained}, full handle {full_retained}"
    );
    drop(streamed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_streaming_loads_leave_the_engine_clean_and_reusable() {
    let _measure = measuring();
    let dir = temp_dir("clean");
    let good = dir.join("good.rtr");
    let truncated = dir.join("truncated.rtr");
    let corrupt = dir.join("corrupt.rtr");
    let mut rng = Rng::new(0xc1ea);
    let trace = arbitrary_trace(&mut rng, 2_000);
    write_trace_path(&trace, &good, Encoding::Binary).unwrap();
    let bytes = std::fs::read(&good).unwrap();
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    let mut damaged = bytes.clone();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0xff;
    std::fs::write(&corrupt, &damaged).unwrap();

    let engine = Engine::new();
    // Warm the interner with one good pass, then measure that failed loads retain
    // nothing (partial artifacts are dropped with the call frame).
    drop(stream(&engine, &good).unwrap());

    for bad in [&truncated, &corrupt] {
        let live_before = TrackingAllocator::live();
        assert!(
            stream(&engine, bad).is_err(),
            "damaged stream {bad:?} must not load"
        );
        let leaked = TrackingAllocator::live().saturating_sub(live_before);
        // Nothing beyond incidental interner growth may survive a failed load; the
        // partial lean/keyed/web artifacts alone would be hundreds of kilobytes.
        assert!(
            leaked < 64 * 1024,
            "failed load of {bad:?} left {leaked} live bytes behind"
        );
    }

    // The engine (and its caches) remain fully usable after the failures.
    let a = stream(&engine, &good).unwrap();
    let b = stream(&engine, &good).unwrap();
    let diff = engine.diff(&a, &b).unwrap();
    assert_eq!(diff.num_differences(), 0);
    assert_eq!(engine.cached_correlations(), 1);
    std::fs::remove_dir_all(&dir).ok();
}
