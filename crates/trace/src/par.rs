//! Fan-out of independent work: the one execution model behind every concurrent stage.
//!
//! The views differ correlates thread views and then diffs each correlated pair on
//! its own (§3.3); anchoring splits a diff into independent leaf segments; a batch
//! diffs independent trace pairs. All of it is "run independent items, merge in
//! input order", and this module is the only place that spawns threads for it.
//!
//! Whether a call fans out is decided here, never by a caller's option:
//!
//! * [`workers`] is the host's usable parallelism, read once per process;
//! * [`map_ordered`] and [`join`] run inline when there is one worker, fewer than two
//!   items, or the call is nested inside another fan-out or an [`inline`] scope —
//!   a worker thread never spawns workers of its own;
//! * otherwise the items are dealt round-robin to `min(workers, items)` scoped
//!   threads (the calling thread is one of them), and the results come back in
//!   input order.
//!
//! Because results always come back in input order, a caller that merges per-item
//! cost meters in that order gets the same statistics whichever side ran.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::OnceLock;

thread_local! {
    /// Worker count forced on this thread (0: none). Fan-out workers and [`inline`]
    /// scopes force 1, which is what keeps nested calls inline.
    static FORCED: Cell<usize> = const { Cell::new(0) };
}

/// The number of workers a fan-out started on this thread may use: the host's
/// available parallelism (read once, then cached), or 1 inside a fan-out or an
/// [`inline`] scope.
pub fn workers() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    match FORCED.get() {
        0 => {
            *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
        }
        forced => forced,
    }
}

/// Runs `f` with [`workers`] reporting `n` on this thread, restoring the previous
/// value afterwards (also when `f` panics). This lets tests force either side of
/// every fan-out on any host.
#[doc(hidden)]
pub fn with_workers<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.set(self.0);
        }
    }
    let _restore = Restore(FORCED.replace(n.max(1)));
    f()
}

/// Runs `f` on the calling thread with every fan-out inside it inline — for work that
/// is too small, or too frequent, to be worth a thread.
pub fn inline<R>(f: impl FnOnce() -> R) -> R {
    with_workers(1, f)
}

/// Applies `job` to every item, on up to [`workers`] threads, and returns the results
/// in input order. A panic in any job propagates to the caller once all workers have
/// stopped.
pub fn map_ordered<T: Sync, R: Send>(items: &[T], job: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = workers().min(items.len());
    if workers < 2 {
        return items.iter().map(job).collect();
    }
    let share = &|w: usize| -> Vec<R> {
        inline(|| items.iter().skip(w).step_by(workers).map(&job).collect())
    };
    let shares: Vec<Vec<R>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers)
            .map(|w| scope.spawn(move || share(w)))
            .collect();
        let mut shares = vec![share(0)];
        shares.extend(
            spawned
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))),
        );
        shares
    });
    // Item `i` went to worker `i % workers`, which produced it in order.
    let mut shares: Vec<_> = shares.into_iter().map(Vec::into_iter).collect();
    (0..items.len())
        .map(|i| {
            shares[i % workers]
                .next()
                .expect("every worker returns its share")
        })
        .collect()
}

/// Runs `a` and `b`, concurrently when a fan-out may use two workers (`a` on a scoped
/// thread, `b` on the calling one), and returns both results. A panic in either
/// propagates to the caller.
pub fn join<A: Send, B>(a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B) -> (A, B) {
    if workers() < 2 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let a = scope.spawn(|| inline(a));
        let b = inline(b);
        (a.join().unwrap_or_else(|p| resume_unwind(p)), b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    fn on_this_thread() -> ThreadId {
        std::thread::current().id()
    }

    #[test]
    fn results_and_errors_come_back_in_input_order() {
        let items: Vec<u32> = (0..23).collect();
        let job = |&x: &u32| if x % 7 == 3 { Err(x) } else { Ok(x * 2) };
        let inline_run = inline(|| map_ordered(&items, job));
        for n in [1, 2, 4, 64] {
            let forced = with_workers(n, || map_ordered(&items, job));
            assert_eq!(forced, inline_run, "{n} workers");
            assert_eq!(forced.into_iter().collect::<Result<Vec<_>, _>>(), Err(3));
        }
        assert_eq!(with_workers(4, || map_ordered(&[] as &[u32], job)), vec![]);
        assert_eq!(with_workers(4, || join(|| 1, || "two")), (1, "two"));
    }

    #[test]
    fn forced_workers_spread_items_over_threads() {
        let items: Vec<u32> = (0..8).collect();
        let threads = with_workers(4, || map_ordered(&items, |_| on_this_thread()));
        let distinct: std::collections::HashSet<_> = threads.iter().collect();
        assert_eq!(distinct.len(), 4);
        // The calling thread takes worker 0's share.
        assert_eq!(threads[0], on_this_thread());
        assert_eq!(threads[4], on_this_thread());
    }

    #[test]
    fn nested_calls_and_inline_scopes_run_on_the_calling_thread() {
        let items: Vec<u32> = (0..6).collect();
        let nested = with_workers(4, || {
            map_ordered(&items, |_| {
                let outer = on_this_thread();
                let inner = map_ordered(&items, |_| on_this_thread());
                let (a, b) = join(on_this_thread, on_this_thread);
                assert_eq!(workers(), 1);
                inner.into_iter().chain([a, b]).all(|t| t == outer)
            })
        });
        assert!(nested.iter().all(|&same| same));
        let scoped = with_workers(4, || inline(|| map_ordered(&items, |_| on_this_thread())));
        assert!(scoped.iter().all(|&t| t == on_this_thread()));
        // The scopes restore the caller's setting on the way out.
        assert_eq!(with_workers(4, || (inline(workers), workers())), (1, 4));
    }

    #[test]
    fn a_panicking_job_propagates_and_restores_the_caller() {
        let items: Vec<u32> = (0..8).collect();
        for n in [1, 4] {
            let outcome = std::panic::catch_unwind(|| {
                with_workers(n, || {
                    map_ordered(&items, |&x| assert_ne!(x, 5, "job five failed"))
                })
            });
            let payload = outcome.expect_err("the job panic reaches the caller");
            let message = payload.downcast_ref::<String>().expect("assert message");
            assert!(message.contains("job five failed"), "{message}");
        }
        let outcome =
            std::panic::catch_unwind(|| with_workers(4, || join(|| panic!("left side"), || 2)));
        assert!(outcome.is_err());
        assert_eq!(FORCED.get(), 0, "a panic must not leave the thread forced");
    }
}
