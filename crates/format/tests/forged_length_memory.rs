//! A forged string length must not make the binary reader allocate it.
//!
//! A `sym` record declares its length before its bytes. The reader only grows its
//! window by bytes the input actually supplies, so a 64-byte stream that claims a
//! 1 TiB string reports truncation after a few kilobytes of buffers, whatever the
//! declared length.
//!
//! One test in its own binary: the counting allocator is process-global, and
//! concurrent tests would pollute each other's peak readings.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use rprism_format::varint;
use rprism_format::{trace_from_bytes, trace_to_bytes, BinaryTraceReader, Encoding, FormatError};
use rprism_trace::{Trace, TraceMeta};

/// The system allocator with live/peak byte counters.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                let grown = new_size - layout.size();
                let live = LIVE.fetch_add(grown, Ordering::Relaxed) + grown;
                PEAK.fetch_max(live, Ordering::Relaxed);
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result plus the peak heap growth (bytes above the level
/// live when it started) it caused.
fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let value = f();
    let peak = PEAK.load(Ordering::Relaxed);
    (value, peak.saturating_sub(baseline))
}

/// A 64-byte binary stream: a valid header, then a `sym` record declaring a
/// `2^40`-byte string, padded with string bytes to the stream's end.
fn forged_stream() -> Vec<u8> {
    let empty = trace_to_bytes(
        &Trace::new(TraceMeta::new("forged", "", "")),
        Encoding::Binary,
    )
    .unwrap();
    // Drop the footer: end tag, a one-byte entry count, the 8-byte checksum.
    let mut bytes = empty[..empty.len() - 10].to_vec();
    bytes.push(0x01); // the `sym` record tag
    varint::write_u64(&mut bytes, 1 << 40);
    bytes.resize(64, b'x');
    bytes
}

#[test]
fn a_forged_string_length_is_truncation_not_an_allocation() {
    let bytes = forged_stream();
    // The one buffer of the reader stack is the byte window, a few kilobytes. Nothing
    // here scales with the declared length.
    const BOUND: usize = 64 * 1024;

    let (result, peak) = peak_growth(|| trace_from_bytes(&bytes));
    assert!(
        matches!(result, Err(FormatError::Truncated { offset: 64 })),
        "{result:?}"
    );
    assert!(
        peak < BOUND,
        "decoding a 64-byte stream grew the heap by {peak} bytes"
    );

    let (result, peak) = peak_growth(|| {
        let mut reader = BinaryTraceReader::new(bytes.as_slice())?;
        reader.next_entry()
    });
    assert!(
        matches!(result, Err(FormatError::Truncated { offset: 64 })),
        "{result:?}"
    );
    assert!(
        peak < BOUND,
        "decoding a 64-byte stream grew the heap by {peak} bytes"
    );
}
