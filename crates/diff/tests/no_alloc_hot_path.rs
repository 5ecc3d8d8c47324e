//! Proof that the keyed diff hot path performs **zero heap allocation per comparison**:
//! a counting global allocator wraps the system allocator, and the tests assert that
//! millions of keyed `=e` comparisons (and the structural `event_eq` fallback) allocate
//! nothing after the keys are built, and that the views scan's mismatch step allocates
//! nothing per mismatch beyond the result's own difference sequences.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    // Per-thread, not process-global: the libtest harness runs tests on several
    // threads at once, and a global counter picks up allocations from whatever
    // *other* test happens to run during the measured window — a scheduling-
    // dependent flake (most visible on single-core machines, where the harness
    // interleaves test threads through the measured loop). Counting per thread
    // makes each test observe exactly its own allocations.
    //
    // `const`-initialized so reading the counter never allocates (a lazily
    // initialized TLS slot would recurse into the allocator).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Bump this thread's counter; silently skip during TLS teardown.
fn count_one() {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

use rprism_diff::{views_diff_sides_correlated, DiffSide, TraceDiffResult, ViewsDiffOptions};
use rprism_lang::parser::parse_program;
use rprism_trace::testgen::{arbitrary_entry, Rng};
use rprism_trace::{event_eq, par, KeyedTrace, LeanTrace, Trace, TraceMeta};
use rprism_views::{Correlation, ViewWeb};
use rprism_vm::{run_traced, VmConfig};

fn generated_trace(seed: u64, len: usize) -> Trace {
    let mut rng = Rng::new(seed);
    let mut trace = Trace::named("alloc-count");
    for _ in 0..len {
        trace.push(arbitrary_entry(&mut rng));
    }
    trace
}

#[test]
fn keyed_comparisons_do_not_allocate() {
    let left = generated_trace(1, 300);
    let right = generated_trace(2, 300);
    let lk = KeyedTrace::build(&left);
    let rk = KeyedTrace::build(&right);

    // Warm up any lazily initialized state before counting.
    let mut matches = 0u64;
    for i in 0..10 {
        if lk.key_eq(i, &rk, i) {
            matches += 1;
        }
    }

    let before = allocation_count();
    for i in 0..left.len() {
        for j in 0..right.len() {
            if lk.key_eq(i, &rk, j) {
                matches += 1;
            }
        }
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "keyed =e comparisons must not allocate ({} comparisons, {} matches)",
        left.len() * right.len(),
        matches
    );
    assert!(matches > 0, "generator should produce some equal events");
}

#[test]
fn structural_event_eq_fallback_does_not_allocate() {
    let left = generated_trace(3, 200);
    let right = generated_trace(4, 200);

    let mut matches = 0u64;
    // Warm-up.
    for i in 0..10 {
        if event_eq(&left[i], &right[i]) {
            matches += 1;
        }
    }

    let before = allocation_count();
    for le in left.iter() {
        for re in right.iter() {
            if event_eq(le, re) {
                matches += 1;
            }
        }
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "structural event_eq must compare in place without allocating"
    );
    assert!(matches > 0);
}

/// A trace of `calls` calls `c.work(i)`; the calls at multiples of `every` (when set)
/// pass a different value, so each is one scattered mismatch of the same trace length.
fn work_trace(calls: usize, every: Option<usize>) -> Trace {
    let mut body = String::from("let c = new C(0);\n");
    for i in 0..calls {
        let value = match every {
            Some(every) if i % every == every / 2 => i + 1_000_000,
            _ => i,
        };
        body.push_str(&format!("c.work({value});\n"));
    }
    let src = format!(
        "class C extends Object {{ Int t; Unit work(Int v) {{ this.t = v; }} }}\nmain {{ {body} }}"
    );
    run_traced(
        &parse_program(&src).unwrap(),
        TraceMeta::new("alloc", "v", "c"),
        VmConfig::default(),
    )
    .unwrap()
    .trace
}

/// Allocations made by one views diff of prepared sides (keys, webs and correlation are
/// built outside the count), run inline so the whole scan counts on this thread.
fn counted_diff(left: &Trace, right: &Trace) -> (u64, TraceDiffResult) {
    let (lk, rk) = (KeyedTrace::build(left), KeyedTrace::build(right));
    let (lw, rw) = (ViewWeb::build(left), ViewWeb::build(right));
    let (ll, rl) = (LeanTrace::build(left), LeanTrace::build(right));
    let correlation = Correlation::build(&lw, &rw);
    let (ls, rs) = (DiffSide::lean(&ll, &lk, &lw), DiffSide::lean(&rl, &rk, &rw));
    let options = ViewsDiffOptions::default();
    par::inline(|| {
        // Warm-up: any lazily initialized state is paid before counting.
        drop(views_diff_sides_correlated(
            &ls,
            &rs,
            &correlation,
            &options,
        ));
        let before = allocation_count();
        let result = views_diff_sides_correlated(&ls, &rs, &correlation, &options);
        (allocation_count() - before, result)
    })
}

/// The per-sequence `Vec`s a result owns: one per non-empty side of each sequence.
fn sequence_vecs(result: &TraceDiffResult) -> u64 {
    result
        .sequences
        .iter()
        .map(|s| u64::from(!s.left.is_empty()) + u64::from(!s.right.is_empty()))
        .sum()
}

#[test]
fn mismatch_step_allocates_only_the_result() {
    let base = work_trace(600, None);
    let few = work_trace(600, Some(60));
    let many = work_trace(600, Some(6));
    assert_eq!(
        few.len(),
        many.len(),
        "both pairs must have the same length"
    );

    let (few_allocs, few_result) = counted_diff(&base, &few);
    let (many_allocs, many_result) = counted_diff(&base, &many);
    assert!(
        many_result.sequences.len() >= 90 && few_result.sequences.len() <= 20,
        "expected ~100 and ~10 mismatches, got {} and {} sequences",
        many_result.sequences.len(),
        few_result.sequences.len()
    );
    // Ninety more mismatches may cost their own difference sequences and a few more
    // doublings of the growing result vectors, nothing per exploration.
    let extra = many_allocs.saturating_sub(few_allocs);
    let result_vecs = sequence_vecs(&many_result).saturating_sub(sequence_vecs(&few_result));
    println!("allocations: {few_allocs} (10 mismatches) vs {many_allocs} (100); sequence vecs +{result_vecs}");
    assert!(
        extra <= result_vecs + 16,
        "the mismatch step allocates per mismatch: {extra} more allocations for \
         {result_vecs} more sequence vecs ({few_allocs} vs {many_allocs})"
    );
}
