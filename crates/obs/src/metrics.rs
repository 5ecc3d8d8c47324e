//! The lock-light metrics registry: counters, gauges and log-scale histograms.
//!
//! Registration (rare) takes a mutex; the hot path is an `Arc`'d atomic — no lock is
//! ever held while recording. Metric handles are `Clone + Send + Sync` and stay valid
//! for the life of the process, so call sites register once and stash the handle.
//!
//! Snapshots are *per-metric coherent*: every value in a [`Snapshot`] is one atomic
//! load, so repeated snapshots of the same counter can never go backwards (atomic
//! per-location coherence), which is the invariant monitoring math (rates, deltas)
//! needs. Cross-metric consistency is deliberately not promised — that would require
//! a global lock on the hot path.
//!
//! [`Snapshot::render_prometheus`] renders the Prometheus text exposition format with
//! metrics sorted by name, so two snapshots with equal values render byte-identically.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of log₂ buckets in a [`Histogram`]: bucket `i` counts observations whose
/// value in microseconds has bit length `i` (i.e. `value < 2^i`), so 40 buckets cover
/// sub-microsecond spans up to ~12.7 days.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (what a disabled observer hands out):
    /// fully functional, just never rendered.
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (cache bytes, stored blobs, …).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn detached() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log-scale histogram over microsecond durations. Recording is three
/// relaxed atomic adds; quantiles are estimated at snapshot time from the bucket
/// counts (each estimate is the inclusive upper bound of the bucket the quantile
/// falls in, so estimates are pessimistic by at most 2×).
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

fn bucket_of(us: u64) -> usize {
    ((u64::BITS - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn detached() -> Histogram {
        Histogram::default()
    }

    /// Records one observation of `us` microseconds.
    pub fn observe_us(&self, us: u64) {
        self.0.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Records one observation of a [`Duration`].
    pub fn observe(&self, d: Duration) {
        self.observe_us(d.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(self.0.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.0.count.load(Ordering::Relaxed),
            sum_us: self.0.sum_us.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values, in microseconds.
    pub sum_us: u64,
    /// Per-bucket observation counts (log₂ buckets, see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) in microseconds: the inclusive upper
    /// bound of the bucket the quantile falls in (`0` when empty).
    pub fn quantile_us(&self, q: f64) -> u64 {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Bucket i holds values with bit length i: upper bound 2^i - 1.
                return if i == 0 { 0 } else { (1u64 << i) - 1 };
            }
        }
        u64::MAX
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The value of one metric inside a [`Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter value.
    Counter(u64),
    /// A gauge value.
    Gauge(i64),
    /// A histogram copy (boxed: the fixed bucket array dwarfs the scalar variants).
    Histogram(Box<HistogramSnapshot>),
}

/// The metric registry: static names mapped to atomic handles. Registration is
/// idempotent — asking for the same name again returns a handle onto the same
/// atomics, so any layer can cheaply re-derive a handle it did not stash.
///
/// # Panics
///
/// Registering one name as two different metric kinds is a programming error and
/// panics (names are static, picked at compile time).
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<&'static str, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or re-derives) the counter `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut metrics = self.metrics.lock().expect("registry lock poisoned");
        match metrics
            .entry(name)
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a counter"),
        }
    }

    /// Registers (or re-derives) the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let mut metrics = self.metrics.lock().expect("registry lock poisoned");
        match metrics
            .entry(name)
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a gauge"),
        }
    }

    /// Registers (or re-derives) the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let mut metrics = self.metrics.lock().expect("registry lock poisoned");
        match metrics
            .entry(name)
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}, wanted a histogram"),
        }
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().expect("registry lock poisoned");
        Snapshot {
            entries: metrics
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                    };
                    ((*name).to_owned(), value)
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`Registry`]: `(name, value)` pairs sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// The metrics, sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

/// Maps a registry name onto a Prometheus metric name: `prefix_name` with every
/// non-`[a-zA-Z0-9_]` byte (the dots of `cache.hits` et al.) replaced by `_`.
fn prometheus_name(prefix: &str, name: &str) -> String {
    let mut out = String::with_capacity(prefix.len() + name.len() + 1);
    for c in prefix.chars().chain("_".chars()).chain(name.chars()) {
        out.push(if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        });
    }
    out
}

impl Snapshot {
    /// The value of metric `name`, when present.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find_map(|(n, v)| (n == name).then_some(v))
    }

    /// The value of counter `name`, when present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(*c),
            _ => None,
        })
    }

    /// The value of gauge `name`, when present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Gauge(g) if n == name => Some(*g),
            _ => None,
        })
    }

    /// Keeps only metrics whose registry name starts with `prefix`.
    pub fn retain_prefix(mut self, prefix: &str) -> Snapshot {
        self.entries.retain(|(name, _)| name.starts_with(prefix));
        self
    }

    /// Renders the Prometheus text exposition format. Counters and gauges become one
    /// sample each; histograms become a `summary` with `quantile` labels for
    /// p50/p90/p99 plus `_sum` (microseconds) and `_count` samples. Metrics appear
    /// sorted by name, so equal snapshots render byte-identically.
    pub fn render_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            let pname = prometheus_name(prefix, name);
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {pname} counter\n{pname} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {pname} gauge\n{pname} {v}\n"));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {pname} summary\n"));
                    for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                        out.push_str(&format!(
                            "{pname}{{quantile=\"{label}\"}} {}\n",
                            h.quantile_us(q)
                        ));
                    }
                    out.push_str(&format!("{pname}_sum {}\n", h.sum_us));
                    out.push_str(&format!("{pname}_count {}\n", h.count));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_register_once_and_share_state() {
        let registry = Registry::new();
        let a = registry.counter("hits");
        let b = registry.counter("hits");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        let g = registry.gauge("depth");
        g.set(7);
        g.add(-2);
        assert_eq!(registry.gauge("depth").get(), 5);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_panic() {
        let registry = Registry::new();
        registry.counter("x");
        registry.gauge("x");
    }

    #[test]
    fn histogram_quantiles_bound_observations() {
        let h = Histogram::detached();
        for us in [1u64, 2, 3, 100, 1000, 10_000] {
            h.observe_us(us);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum_us, 11_106);
        // p50 falls in the bucket holding 3 (values < 4): upper bound 3.
        assert_eq!(snap.quantile_us(0.5), 3);
        // p99 falls in the bucket holding 10_000 (values < 16384).
        assert_eq!(snap.quantile_us(0.99), 16_383);
        assert!(snap.quantile_us(1.0) >= 10_000);
        assert_eq!(
            HistogramSnapshot {
                count: 0,
                sum_us: 0,
                buckets: [0; HISTOGRAM_BUCKETS]
            }
            .quantile_us(0.5),
            0
        );
    }

    #[test]
    fn bucket_mapping_is_monotone_and_bounded() {
        let mut prev = 0;
        for us in [0u64, 1, 2, 4, 1000, u64::MAX] {
            let b = bucket_of(us);
            assert!(b >= prev);
            assert!(b < HISTOGRAM_BUCKETS);
            prev = b;
        }
    }

    #[test]
    fn snapshots_sort_by_name_and_filter_by_prefix() {
        let registry = Registry::new();
        registry.counter("z.last").inc();
        registry.counter("a.first").inc();
        registry.counter("client.retries").add(2);
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "client.retries", "z.last"]);
        let client = snap.retain_prefix("client.");
        assert_eq!(client.entries.len(), 1);
        assert_eq!(client.counter("client.retries"), Some(2));
    }

    #[test]
    fn golden_prometheus_exposition() {
        let registry = Registry::new();
        registry.counter("cache.hits").add(42);
        registry.gauge("repo.blobs").set(-3);
        let h = registry.histogram("pipeline.scan_us");
        h.observe_us(7);
        h.observe_us(900);
        let rendered = registry.snapshot().render_prometheus("rprism");
        let expected = "\
# TYPE rprism_cache_hits counter
rprism_cache_hits 42
# TYPE rprism_pipeline_scan_us summary
rprism_pipeline_scan_us{quantile=\"0.5\"} 7
rprism_pipeline_scan_us{quantile=\"0.9\"} 1023
rprism_pipeline_scan_us{quantile=\"0.99\"} 1023
rprism_pipeline_scan_us_sum 907
rprism_pipeline_scan_us_count 2
# TYPE rprism_repo_blobs gauge
rprism_repo_blobs -3
";
        assert_eq!(rendered, expected);
    }

    #[test]
    fn hammered_counters_never_go_backwards() {
        let registry = std::sync::Arc::new(Registry::new());
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let registry = std::sync::Arc::clone(&registry);
                let stop = std::sync::Arc::clone(&stop);
                scope.spawn(move || {
                    let names: [&'static str; 3] = ["obs.a", "obs.b", "obs.c"];
                    let counter = registry.counter(names[t % 3]);
                    let histogram = registry.histogram("obs.h_us");
                    while !stop.load(Ordering::Relaxed) {
                        counter.inc();
                        histogram.observe_us(t as u64);
                    }
                });
            }
            let mut last: BTreeMap<String, u64> = BTreeMap::new();
            let mut last_hist = 0u64;
            for _ in 0..500 {
                let snap = registry.snapshot();
                for (name, value) in &snap.entries {
                    match value {
                        MetricValue::Counter(v) => {
                            let prev = last.insert(name.clone(), *v).unwrap_or(0);
                            assert!(*v >= prev, "{name} went backwards: {prev} -> {v}");
                        }
                        MetricValue::Histogram(h) => {
                            assert!(h.count >= last_hist, "histogram count went backwards");
                            assert!(h.buckets.iter().sum::<u64>() <= h.count + 8);
                            last_hist = h.count;
                        }
                        MetricValue::Gauge(_) => {}
                    }
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}
