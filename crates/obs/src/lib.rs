//! # rprism-obs
//!
//! Observability for the rprism stack, std-only and lock-light:
//!
//! * a **metrics registry** ([`metrics`]) — atomic counters, gauges and log-scale
//!   histograms registered by static name, with snapshot rendering in the Prometheus
//!   text exposition format;
//! * **tracing spans** ([`span`]) — scoped timers feeding both a latency histogram
//!   per span name and a bounded in-memory ring of recent [`SpanRecord`]s;
//! * **self-tracing** ([`selftrace`]) — the ring replayed onto the trace model of the
//!   paper, so a running server can emit its own recent execution as a well-formed
//!   `.rtr` trace that `rprism check`/`rprism diff` analyze like any other
//!   (dogfooding the semantics-aware analysis on the analyzer itself).
//!
//! The entry point is [`Obs`]: a cheap cloneable handle that is either *enabled*
//! (shared registry + ring behind one `Arc`) or *disabled* (every operation free and
//! inert — the "stripped" configuration the overhead gate compares against). All
//! recording paths are safe to call from any thread.
//!
//! ```
//! use rprism_obs::Obs;
//!
//! let obs = Obs::enabled();
//! {
//!     let _request = obs.span("request.diff");
//!     obs.counter("cache.hits").inc();
//! } // span recorded on drop
//! let text = obs.snapshot().render_prometheus("rprism");
//! assert!(text.contains("rprism_cache_hits 1"));
//! assert!(text.contains("rprism_request_diff_count 1"));
//! let own_trace = obs.self_trace("demo");
//! assert!(own_trace.len() > 0);
//! ```

pub mod metrics;
pub mod selftrace;
pub mod span;

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, Registry, Snapshot,
    HISTOGRAM_BUCKETS,
};
pub use span::{begin_phases, current_thread_id, take_phases, SpanRecord};

use span::SpanRing;

/// Default capacity of the recent-span ring (complete span records).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

#[derive(Debug)]
struct ObsInner {
    registry: Registry,
    ring: Mutex<SpanRing>,
    epoch: Instant,
}

/// A handle onto one observability domain (one registry + one span ring), or the
/// inert disabled observer. Cloning shares the domain; `Obs` is `Send + Sync` and
/// never blocks a recording thread on more than a short ring/registry mutex.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl Obs {
    /// An enabled observer with the default ring capacity.
    pub fn enabled() -> Obs {
        Obs::with_ring_capacity(DEFAULT_RING_CAPACITY)
    }

    /// An enabled observer retaining up to `capacity` recent span records.
    pub fn with_ring_capacity(capacity: usize) -> Obs {
        Obs {
            inner: Some(Arc::new(ObsInner {
                registry: Registry::new(),
                ring: Mutex::new(SpanRing::new(capacity)),
                epoch: Instant::now(),
            })),
        }
    }

    /// The inert observer: every operation is free, every handle detached. This is
    /// the "stripped" configuration of the instrumentation-overhead gate.
    pub fn disabled() -> Obs {
        Obs { inner: None }
    }

    /// `true` when this observer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since this observer's epoch (0 when disabled).
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
            None => 0,
        }
    }

    /// Registers (or re-derives) a counter; detached when disabled.
    pub fn counter(&self, name: &'static str) -> Counter {
        match &self.inner {
            Some(inner) => inner.registry.counter(name),
            None => Counter::detached(),
        }
    }

    /// Registers (or re-derives) a gauge; detached when disabled.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        match &self.inner {
            Some(inner) => inner.registry.gauge(name),
            None => Gauge::detached(),
        }
    }

    /// Registers (or re-derives) a histogram; detached when disabled.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        match &self.inner {
            Some(inner) => inner.registry.histogram(name),
            None => Histogram::detached(),
        }
    }

    /// Opens a span: the returned guard records its duration into the histogram
    /// registered under the span name, the recent-span ring, and the calling
    /// thread's open phase scope (if any) when it drops. Inert when disabled.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard {
            inner: self.inner.clone(),
            name,
            start_us: self.now_us(),
        }
    }

    /// Records an accumulated phase duration (a timer that is *not* a contiguous
    /// span — e.g. per-batch decode time summed over a streaming ingest) into the
    /// histogram registered under `name` and the open phase scope.
    pub fn phase(&self, name: &'static str, elapsed: Duration) {
        let Some(inner) = &self.inner else { return };
        let us = elapsed.as_micros().min(u128::from(u64::MAX)) as u64;
        inner.registry.histogram(name).observe_us(us);
        span::note_phase(name, us);
    }

    /// A point-in-time copy of every registered metric (empty when disabled).
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            Some(inner) => inner.registry.snapshot(),
            None => Snapshot::default(),
        }
    }

    /// The recent completed spans, oldest first (empty when disabled).
    pub fn recent_spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(inner) => inner
                .ring
                .lock()
                .expect("span ring lock poisoned")
                .records(),
            None => Vec::new(),
        }
    }

    /// Serializes this observer's recent execution (the span ring plus a metric
    /// snapshot) as a well-formed trace — see [`selftrace::build_self_trace`].
    pub fn self_trace(&self, name: &str) -> rprism_trace::Trace {
        selftrace::build_self_trace(name, &self.recent_spans(), &self.snapshot())
    }
}

impl ObsInner {
    fn record_span(&self, record: SpanRecord) {
        self.registry
            .histogram(record.name)
            .observe_us(record.end_us.saturating_sub(record.start_us));
        self.ring
            .lock()
            .expect("span ring lock poisoned")
            .push(record);
    }
}

/// The guard returned by [`Obs::span`]: records a [`SpanRecord`] when dropped.
/// Completing (dropping) the guard is what publishes the span — a guard leaked with
/// `std::mem::forget` records nothing.
#[derive(Debug)]
#[must_use = "a span records when the guard drops; binding it to _ drops immediately"]
pub struct SpanGuard {
    inner: Option<Arc<ObsInner>>,
    name: &'static str,
    start_us: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let end_us = inner.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let record = SpanRecord {
            name: self.name,
            thread: current_thread_id(),
            start_us: self.start_us,
            end_us: end_us.max(self.start_us),
        };
        span::note_phase(self.name, record.end_us - record.start_us);
        inner.record_span(record);
    }
}

static GLOBAL: OnceLock<Obs> = OnceLock::new();

/// The process-global observer: where code without an obvious owner (the network
/// client's retry loop, ad-hoc tools) records. Enabled, with a small ring.
pub fn global() -> &'static Obs {
    GLOBAL.get_or_init(|| Obs::with_ring_capacity(1024))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_feed_histogram_ring_and_phases() {
        let obs = Obs::enabled();
        begin_phases();
        {
            let _outer = obs.span("request.diff");
            let _inner = obs.span("pipeline.scan");
        }
        let spans = obs.recent_spans();
        assert_eq!(spans.len(), 2);
        // Inner guard drops first.
        assert_eq!(spans[0].name, "pipeline.scan");
        assert_eq!(spans[1].name, "request.diff");
        assert!(spans[1].start_us <= spans[0].start_us);
        assert!(spans[1].end_us >= spans[0].end_us);
        assert_eq!(spans[0].thread, spans[1].thread);
        let phases = take_phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].0, "pipeline.scan");
        let snap = obs.snapshot();
        let rendered = snap.render_prometheus("rprism");
        assert!(
            rendered.contains("rprism_request_diff_count 1"),
            "{rendered}"
        );
    }

    #[test]
    fn disabled_observer_is_inert_but_usable() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        let counter = obs.counter("anything");
        counter.inc();
        assert_eq!(counter.get(), 1);
        {
            let _span = obs.span("request.diff");
        }
        assert!(obs.recent_spans().is_empty());
        assert!(obs.snapshot().entries.is_empty());
        assert_eq!(obs.snapshot().render_prometheus("rprism"), "");
        assert_eq!(obs.now_us(), 0);
    }

    #[test]
    fn phase_timers_accumulate_into_histograms() {
        let obs = Obs::enabled();
        obs.phase("pipeline.decode_us", Duration::from_micros(120));
        obs.phase("pipeline.decode_us", Duration::from_micros(80));
        let snap = obs.snapshot();
        let rendered = snap.render_prometheus("rprism");
        assert!(
            rendered.contains("rprism_pipeline_decode_us_count 2"),
            "{rendered}"
        );
        assert!(
            rendered.contains("rprism_pipeline_decode_us_sum 200"),
            "{rendered}"
        );
    }

    #[test]
    fn clones_share_the_domain() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.counter("shared").add(5);
        assert_eq!(obs.snapshot().counter("shared"), Some(5));
        drop(clone.span("s"));
        assert_eq!(obs.recent_spans().len(), 1);
    }

    #[test]
    fn the_global_observer_exists_and_is_enabled() {
        assert!(global().is_enabled());
        global().counter("client.test_counter").inc();
        assert!(global().snapshot().counter("client.test_counter").is_some());
    }
}
