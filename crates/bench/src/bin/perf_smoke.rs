//! A `cargo bench`-free perf smoke check with two measurements on the `diff_scaling`
//! largest size:
//!
//! 1. **seed vs keyed** — one large scenario differenced by the frozen seed-style
//!    baseline (owned `EventKey`s, sequential) and by the keyed pipeline (interned
//!    `CompactEventKey`s, parallel view correlation), printing wall time and `CostMeter`
//!    compare/byte counts for both plus the wall-time speedup (the format recorded in
//!    `BENCH_1.json`);
//! 2. **prepared reuse** — the same trace pair diffed 3 times cold (each one-shot
//!    `views_diff` call re-deriving keys and webs) vs 3 times through an
//!    `rprism::Engine` whose `PreparedTrace` handles build both artifacts once and
//!    reuse them, printing the `prepared_reuse_speedup` (the headline number recorded
//!    in `BENCH_2.json`);
//! 3. **trace i/o** — the same large trace serialized and re-parsed through
//!    `rprism-format` in both encodings (in memory), printing bytes per entry and
//!    write/read throughput in entries per second — the ingestion budget of the
//!    on-disk pipeline;
//! 4. **streaming ingest** — the pair stored as `.rtr` files and brought back two
//!    ways: `load_trace` + artifact warm-up (the load-then-prepare path) vs
//!    `load_prepared` (the one-pass bounded-memory pipeline), printing wall time and
//!    peak heap growth for both plus the peak-memory reduction, and asserting the two
//!    kinds of handles diff identically (the numbers recorded in `BENCH_4.json`).
//!    Peaks come from a live/peak tracking global allocator.
//! 5. **server throughput** — an `rprism-server` daemon on a loopback port holding
//!    the stored pair; repeated remote diff requests (prepared/correlation cache hits
//!    doing the work) fired by 1 and by 4 concurrent clients over the same total
//!    request count, printing requests/second per configuration and the resulting
//!    concurrency speedup (the numbers recorded in `BENCH_5.json`). The speedup is
//!    hardware-dependent: the worker pool scales request throughput with available
//!    cores, so a single-core container pins it near 1×.
//! 6. **put durability** — the same batch of distinct blobs stored into a fresh
//!    repository with the crash-safe commit sequence (staging fsync → rename →
//!    directory fsync) and with `durable: false` (rename-commit only), printing
//!    puts per second for both and the fsync cost ratio — the price of the
//!    chaos-suite crash guarantees, and what `serve --no-fsync` buys back.
//! 7. **check throughput** — a large well-formed `gen` trace streamed through the
//!    `rprism-check` rule engine (`Engine::check_reader`: decode + all 20 rules,
//!    including the vector-clock race detector, in one bounded-memory pass),
//!    printing entries per second — the budget of a `check`-on-ingest gate (the
//!    number recorded in `BENCH_6.json`).
//! 8. **anchored scaling** — a 100k-entry well-formed `gen` trace against a copy with
//!    scattered mutations, differenced by the exact DP family (linear-space
//!    Hirschberg, the only exact configuration that fits in memory at this size) and
//!    by the anchored patience/histogram mode, printing wall time, matched pairs and
//!    compare ops for both plus the wall-time speedup and the fraction of the exact
//!    LCS the anchored matching recovers (the numbers recorded in `BENCH_7.json`;
//!    size override: `RPRISM_BENCH_ANCHORED_ENTRIES`).
//! 9. **watch latency** — the ordinary-evolution pair diffed live through
//!    `Engine::watch` (256-entry chunks, the streaming-ingest batch quantum):
//!    time to the first provisional event after the watch starts, verdict lag
//!    after the last entry arrives (`finish()` wall), and total watch wall vs
//!    the batch `Engine::diff` of the same pair, with identical matchings
//!    asserted (the numbers recorded in `BENCH_8.json`).
//! 10. **obs overhead** — the stored pair streamed in and diffed through an engine
//!     with the disabled observer (every recording call inert) vs one recording
//!     into an enabled `rprism-obs` domain (pipeline spans, phase timers,
//!     histograms, span ring), printing wall time for both and the overhead
//!     ratio, asserted ≤ 3% (above a small absolute jitter floor) with identical
//!     diffs (the numbers recorded in `BENCH_9.json`).
//!
//! The `--json` flag emits all numbers as one JSON object.
//!
//! Run with `cargo run -p rprism-bench --bin perf_smoke --release [-- --json] [iterations]`.

use std::time::Duration;

use rprism::Engine;
use rprism_bench::cold_views_diff;
use rprism_bench::measure::{sample_env, TrackingAllocator};
use rprism_bench::seed_baseline::seed_views_diff;
use rprism_diff::{TraceDiffResult, ViewsDiffOptions};
use rprism_lang::parser::parse_program;
use rprism_trace::{Trace, TraceMeta};
use rprism_vm::{run_traced, VmConfig};

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

/// The `diff_scaling` bench program shape at its largest configured size, parameterized
/// by the range lower bound and the iteration count of each side. `(32, n)` vs `(1, n)`
/// is the heavily-divergent regression of the seed-vs-keyed comparison; the
/// prepared-reuse measurement uses `(32, n)` vs `(32, n + 4)` — ordinary evolution that
/// appends a few calls, the §4.1 expected-differences shape where almost all of a cold
/// call's cost *is* the preparation.
fn trace_pair(sides: [(i64, usize); 2]) -> (Trace, Trace) {
    let src = |(min, iterations): (i64, usize)| {
        format!(
            r#"
            class Ctr extends Object {{ Int i; }}
            class Range extends Object {{ Int min; Int max; }}
            class App extends Object {{
                Range r;
                Int hits;
                Unit setup() {{ this.r = new Range({min}, 127); }}
                Unit check(Int c) {{
                    if ((c >= this.r.min) && (c <= this.r.max)) {{ this.hits = this.hits + 1; }}
                }}
            }}
            main {{
                let a = new App(null, 0);
                a.setup();
                let c = new Ctr(0);
                while (c.i < {iterations}) {{
                    a.check(c.i % 200);
                    c.i = c.i + 1;
                }}
            }}
            "#
        )
    };
    let run = |source: &str, label: &str| {
        run_traced(
            &parse_program(source).unwrap(),
            TraceMeta::new(label, "", ""),
            VmConfig::default(),
        )
        .unwrap()
        .trace
    };
    (run(&src(sides[0]), "old"), run(&src(sides[1]), "new"))
}

struct Measured {
    wall: Duration,
    result: TraceDiffResult,
}

fn measure(samples: usize, mut f: impl FnMut() -> TraceDiffResult) -> Measured {
    let mut best: Option<Measured> = None;
    for _ in 0..samples {
        let result = f();
        let wall = result.elapsed;
        if best.as_ref().is_none_or(|b| wall < b.wall) {
            best = Some(Measured { wall, result });
        }
    }
    best.expect("at least one sample")
}

struct ReuseMeasured {
    cold_wall: Duration,
    prepared_wall: Duration,
    repeats: usize,
}

/// Times `repeats` diffs of the same pair, cold (per-call preparation) vs through
/// engine-prepared handles (preparation paid once, on the first diff). Fresh handles are
/// created per sample so every sample's first diff pays the one-time preparation; best
/// sample wins on both sides, and the results are asserted identical.
fn measure_reuse(
    samples: usize,
    repeats: usize,
    old: &Trace,
    new: &Trace,
    options: &ViewsDiffOptions,
) -> ReuseMeasured {
    let engine = Engine::builder().views_options(options.clone()).build();
    let mut cold_wall = Duration::MAX;
    let mut prepared_wall = Duration::MAX;
    for _ in 0..samples {
        let start = std::time::Instant::now();
        let mut cold_last = None;
        for _ in 0..repeats {
            cold_last = Some(cold_views_diff(old, new, options));
        }
        cold_wall = cold_wall.min(start.elapsed());

        let (pold, pnew) = (
            engine.prepare(old.clone()),
            engine.prepare(new.clone()),
        );
        let start = std::time::Instant::now();
        let mut prepared_last = None;
        for _ in 0..repeats {
            prepared_last = Some(engine.diff(&pold, &pnew).expect("views never fails"));
        }
        prepared_wall = prepared_wall.min(start.elapsed());

        assert_eq!(pold.web_build_count(), 1, "web must be built exactly once");
        assert_eq!(
            cold_last.unwrap().matching.normalized_pairs(),
            prepared_last.unwrap().matching.normalized_pairs(),
            "prepared-handle diff diverged from the cold path"
        );
    }
    ReuseMeasured {
        cold_wall,
        prepared_wall,
        repeats,
    }
}

struct IoMeasured {
    encoding: rprism_format::Encoding,
    bytes: usize,
    write_wall: Duration,
    read_wall: Duration,
}

/// Times in-memory serialization and deserialization of `trace` in both encodings,
/// asserting exact round trips (best of `samples` on each side).
fn measure_trace_io(samples: usize, trace: &Trace) -> Vec<IoMeasured> {
    use rprism_format::{trace_from_bytes, trace_to_bytes, Encoding};
    [Encoding::Binary, Encoding::Jsonl]
        .into_iter()
        .map(|encoding| {
            let mut bytes = Vec::new();
            let mut write_wall = Duration::MAX;
            for _ in 0..samples {
                let start = std::time::Instant::now();
                bytes = trace_to_bytes(trace, encoding).expect("in-memory write");
                write_wall = write_wall.min(start.elapsed());
            }
            let mut read_wall = Duration::MAX;
            for _ in 0..samples {
                let start = std::time::Instant::now();
                let decoded = trace_from_bytes(&bytes).expect("round trip");
                read_wall = read_wall.min(start.elapsed());
                assert_eq!(&decoded, trace, "{encoding} round trip diverged");
            }
            IoMeasured {
                encoding,
                bytes: bytes.len(),
                write_wall,
                read_wall,
            }
        })
        .collect()
}

struct IngestMeasured {
    entries: usize,
    full_wall: Duration,
    full_peak: u64,
    streaming_wall: Duration,
    streaming_peak: u64,
}

impl IngestMeasured {
    fn peak_reduction(&self) -> f64 {
        self.full_peak as f64 / self.streaming_peak.max(1) as f64
    }
}

/// Stores the pair as binary `.rtr` files and measures load-then-prepare (whole trace +
/// `keyed()`/`web()` warm-up) against the streaming prepare pipeline: wall time and
/// peak heap growth per path (best wall / max peak over `samples`), with the resulting
/// handles asserted to diff identically.
fn measure_streaming_ingest(samples: usize, old: &Trace, new: &Trace) -> IngestMeasured {
    let dir = std::env::temp_dir().join(format!("rprism-perf-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let engine = Engine::new();
    let pa = dir.join("old.rtr");
    let pb = dir.join("new.rtr");
    engine.store_trace(&engine.prepare(old.clone()), &pa).unwrap();
    engine.store_trace(&engine.prepare(new.clone()), &pb).unwrap();

    let mut measured = IngestMeasured {
        entries: old.len() + new.len(),
        full_wall: Duration::MAX,
        full_peak: 0,
        streaming_wall: Duration::MAX,
        streaming_peak: 0,
    };
    for _ in 0..samples {
        let baseline = TrackingAllocator::reset_peak();
        let start = std::time::Instant::now();
        let fa = engine.load_trace(&pa).unwrap();
        let fb = engine.load_trace(&pb).unwrap();
        fa.keyed();
        fa.web();
        fb.keyed();
        fb.web();
        measured.full_wall = measured.full_wall.min(start.elapsed());
        measured.full_peak = measured
            .full_peak
            .max(TrackingAllocator::peak_since(baseline));

        let baseline = TrackingAllocator::reset_peak();
        let start = std::time::Instant::now();
        let sa = engine.load_prepared(&pa).unwrap();
        let sb = engine.load_prepared(&pb).unwrap();
        measured.streaming_wall = measured.streaming_wall.min(start.elapsed());
        measured.streaming_peak = measured
            .streaming_peak
            .max(TrackingAllocator::peak_since(baseline));

        // Equivalence: streamed handles must produce the exact diff of full handles.
        let full = engine.diff(&fa, &fb).expect("views never fails");
        let streamed = engine.diff(&sa, &sb).expect("views never fails");
        assert_eq!(
            full.matching.normalized_pairs(),
            streamed.matching.normalized_pairs(),
            "streaming-prepared diff diverged from load-then-prepare"
        );
        assert_eq!(full.cost.compare_ops, streamed.cost.compare_ops);
    }
    std::fs::remove_dir_all(&dir).ok();
    measured
}

struct ServerThroughputMeasured {
    total_requests: usize,
    threads: usize,
    one_client_wall: Duration,
    four_client_wall: Duration,
    /// Wall time of the same single-client request stream against a server whose
    /// prepared-handle budget fits nothing: every request re-streams both blobs and
    /// rebuilds the correlation — what each request would cost without the caches.
    cold_cache_wall: Duration,
}

impl ServerThroughputMeasured {
    fn requests_per_second(&self, wall: Duration) -> f64 {
        self.total_requests as f64 / wall.as_secs_f64().max(1e-12)
    }

    /// Throughput at 4 concurrent clients over throughput at 1 client (same total
    /// request count). Scales with available cores; ~1x on a single-core host.
    fn concurrency_speedup(&self) -> f64 {
        self.one_client_wall.as_secs_f64() / self.four_client_wall.as_secs_f64().max(1e-12)
    }

    /// Warm-cache throughput over cold-cache throughput (single client): how much of
    /// each request the prepared/correlation caches actually absorb.
    fn prepared_cache_speedup(&self) -> f64 {
        self.cold_cache_wall.as_secs_f64() / self.one_client_wall.as_secs_f64().max(1e-12)
    }
}

/// Stores the pair in a fresh repository behind an `rprism-server` daemon, warms its
/// prepared/correlation caches with one request, then fires the same total number of
/// repeated remote diffs from 1 and from 4 concurrent clients (best wall time of
/// `samples` runs each). Every request is a cache hit — the measurement isolates how
/// the shared-engine worker pool scales request throughput with concurrency.
fn measure_server_throughput(samples: usize, old: &Trace, new: &Trace) -> ServerThroughputMeasured {
    use rprism_server::{Client, Server, ServerConfig};

    const TIMEOUT: Duration = Duration::from_secs(120);
    const TOTAL_REQUESTS: usize = 48;
    // One worker per measured client plus one for the admin connection (a connected
    // client occupies a worker for its whole lifetime, so the pool must cover the
    // peak connection count or the extra clients queue).
    const THREADS: usize = 5;

    let dir = std::env::temp_dir().join(format!("rprism-perf-server-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create repo dir");
    let mut config = ServerConfig::new("127.0.0.1:0", &dir);
    config.threads = THREADS;
    let server = Server::bind(config).expect("bind server");
    let addr = server.local_addr().expect("local addr").to_string();
    let running = std::thread::spawn(move || server.run().expect("server run"));

    let mut admin = Client::connect(&addr, TIMEOUT).expect("connect");
    let left = admin
        .put_bytes(rprism_format::trace_to_bytes(old, rprism_format::Encoding::Binary).unwrap())
        .expect("put old")
        .hash;
    let right = admin
        .put_bytes(rprism_format::trace_to_bytes(new, rprism_format::Encoding::Binary).unwrap())
        .expect("put new")
        .hash;
    // Warm: stream both handles in and build the pair correlation once.
    let warm = admin.diff(left, right, 0).expect("warm diff");

    // One timed window per configuration: clients connect, a barrier releases them
    // together, a second barrier marks the last completed request.
    let timed = |clients: usize| -> Duration {
        let per_client = TOTAL_REQUESTS / clients;
        let mut best = Duration::MAX;
        for _ in 0..samples {
            let barrier = std::sync::Barrier::new(clients + 1);
            let mut wall = Duration::ZERO;
            std::thread::scope(|scope| {
                for _ in 0..clients {
                    let addr = &addr;
                    let barrier = &barrier;
                    let warm = &warm;
                    scope.spawn(move || {
                        let mut client = Client::connect(addr, TIMEOUT).expect("connect");
                        barrier.wait();
                        for _ in 0..per_client {
                            let diff = client.diff(left, right, 0).expect("remote diff");
                            assert_eq!(
                                diff.compare_ops, warm.compare_ops,
                                "remote diffs must be deterministic across clients"
                            );
                        }
                        barrier.wait();
                    });
                }
                barrier.wait(); // all clients connected and ready
                let start = std::time::Instant::now();
                barrier.wait(); // all clients finished their requests
                wall = start.elapsed();
            });
            best = best.min(wall);
        }
        best
    };

    let one_client_wall = timed(1);
    let four_client_wall = timed(4);

    let stats = admin.stats().expect("stats");
    assert_eq!(
        stats.correlation_builds, 1,
        "repeated diffs must be served by the correlation cache"
    );
    // The scaling gate, applied where it is physically measurable: with >= 4 cores
    // the 4-client configuration must reach >= 1.8x the single-client throughput
    // (anything less means the worker pool serializes — e.g. a lock held across the
    // diff). A single-core host pins the ratio at ~1x by construction, so the gate
    // would only measure the scheduler there; the artifact records host_cores so the
    // recorded ratio is interpretable either way.
    let cores = rprism_trace::par::workers();
    if cores >= 4 {
        let speedup = one_client_wall.as_secs_f64() / four_client_wall.as_secs_f64().max(1e-12);
        assert!(
            speedup >= 1.8,
            "4-client throughput speedup {speedup:.2}x < 1.8x on a {cores}-core host: \
             the worker pool is not serving requests concurrently"
        );
    }
    admin.shutdown().expect("shutdown");
    running.join().expect("server thread");

    // The cold-cache baseline: a server whose prepared budget holds nothing, so every
    // request streams both blobs back in and rebuilds the pair correlation — the
    // per-request cost the warm caches absorb.
    let mut cold_config = ServerConfig::new("127.0.0.1:0", &dir);
    cold_config.threads = THREADS;
    cold_config.cache_budget = 1;
    let cold_server = Server::bind(cold_config).expect("bind cold server");
    let cold_addr = cold_server.local_addr().expect("local addr").to_string();
    let cold_running = std::thread::spawn(move || cold_server.run().expect("cold server run"));
    // One timed pass: with nothing cached, every request costs the same, so repeated
    // sampling only re-measures the identical cold path.
    let mut client = Client::connect(&cold_addr, TIMEOUT).expect("connect");
    let start = std::time::Instant::now();
    for _ in 0..TOTAL_REQUESTS {
        let diff = client.diff(left, right, 0).expect("cold remote diff");
        assert_eq!(diff.compare_ops, warm.compare_ops);
    }
    let cold_wall = start.elapsed();
    client.shutdown().expect("shutdown request");
    cold_running.join().expect("cold server thread");
    std::fs::remove_dir_all(&dir).ok();

    ServerThroughputMeasured {
        total_requests: TOTAL_REQUESTS,
        threads: THREADS,
        one_client_wall,
        four_client_wall,
        cold_cache_wall: cold_wall,
    }
}

struct DurabilityMeasured {
    puts: usize,
    durable_wall: Duration,
    fast_wall: Duration,
}

impl DurabilityMeasured {
    fn puts_per_second(&self, wall: Duration) -> f64 {
        self.puts as f64 / wall.as_secs_f64().max(1e-12)
    }

    /// Durable put cost over non-durable: how much the fsync pair costs per commit.
    fn fsync_cost_ratio(&self) -> f64 {
        self.durable_wall.as_secs_f64() / self.fast_wall.as_secs_f64().max(1e-12)
    }
}

/// Stores a batch of distinct blobs into a fresh repository per sample, once with the
/// crash-safe commit sequence (`durable: true`: staging fsync → rename → directory
/// fsync) and once with `durable: false` (rename-commit only, the pre-chaos behavior
/// and `serve --no-fsync`). Best wall per mode; blobs are pre-encoded so only the
/// storage path is timed.
fn measure_put_durability(samples: usize, old: &Trace) -> DurabilityMeasured {
    use rprism_server::{RepoOptions, TraceRepo};

    const PUTS: usize = 16;
    let entries = old.len().min(400);
    let blobs: Vec<Vec<u8>> = (0..PUTS)
        .map(|i| {
            // Distinct labels give distinct content hashes over identical entries,
            // so every put commits a new blob instead of deduplicating.
            let mut trace = Trace::new(TraceMeta::new(format!("durability-{i}"), "", ""));
            for entry in old.iter().take(entries) {
                trace.push(entry.clone());
            }
            rprism_format::trace_to_bytes(&trace, rprism_format::Encoding::Binary).unwrap()
        })
        .collect();

    let timed = |durable: bool| -> Duration {
        let mut best = Duration::MAX;
        for sample in 0..samples {
            let dir = std::env::temp_dir().join(format!(
                "rprism-perf-durability-{}-{durable}-{sample}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create repo dir");
            let repo = TraceRepo::open_with(
                &dir,
                Engine::new(),
                RepoOptions {
                    durable,
                    ..RepoOptions::default()
                },
            )
            .expect("open repo");
            let start = std::time::Instant::now();
            for bytes in &blobs {
                let (_, deduped, _) = repo.put_bytes(bytes).expect("put");
                assert!(!deduped, "durability blobs must be distinct");
            }
            best = best.min(start.elapsed());
            drop(repo);
            std::fs::remove_dir_all(&dir).ok();
        }
        best
    };

    DurabilityMeasured {
        puts: PUTS,
        durable_wall: timed(true),
        fast_wall: timed(false),
    }
}

struct AnchoredMeasured {
    entries: [usize; 2],
    mutations: usize,
    exact_wall: Duration,
    exact_pairs: usize,
    exact_compare_ops: u64,
    anchored_wall: Duration,
    anchored_pairs: usize,
    anchored_compare_ops: u64,
}

impl AnchoredMeasured {
    fn speedup(&self) -> f64 {
        self.exact_wall.as_secs_f64() / self.anchored_wall.as_secs_f64().max(1e-12)
    }

    /// Fraction of the exact LCS the anchored matching recovered (anchors commit
    /// early, so the anchored matching is valid but may be smaller).
    fn recovery(&self) -> f64 {
        self.anchored_pairs as f64 / self.exact_pairs.max(1) as f64
    }
}

/// The `anchored_scaling` measurement (BENCH_7): a 100k-entry well-formed `gen` trace
/// against a copy with scattered mutations (every 997th entry dropped, every 1499th
/// duplicated — the "huge trace, sparse change" shape anchoring targets), differenced
/// by the exact DP family and by the anchored mode.
///
/// The exact baseline is the *linear-space* configuration (`lcs_diff` with
/// Hirschberg): the only exact DP-family configuration that fits in memory at this
/// size — the quadratic table would need `4 * n * m` ≈ 40 GB — and it is measured
/// once (it dominates wall time; its cost is deterministic). The anchored side runs
/// best-of-`samples` with default options. Override the size with
/// `RPRISM_BENCH_ANCHORED_ENTRIES` (CI uses a reduced size).
fn measure_anchored_scaling(samples: usize) -> AnchoredMeasured {
    use rprism_diff::{anchored_diff, lcs_diff, AnchoredDiffOptions, LcsDiffOptions};
    use rprism_trace::testgen::{GenProfile, Rng};

    let entries = std::env::var("RPRISM_BENCH_ANCHORED_ENTRIES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000usize);
    let base = GenProfile::WellFormed.generate(&mut Rng::new(41), entries);
    let mut new = Trace::new(TraceMeta::new("anchored-new", "", ""));
    let mut mutations = 0usize;
    for (i, entry) in base.iter().enumerate() {
        if i % 997 == 996 {
            mutations += 1; // deletion
            continue;
        }
        new.push(entry.clone());
        if i % 1499 == 1498 {
            mutations += 1; // insertion
            new.push(entry.clone());
        }
    }

    let exact = measure(1, || {
        lcs_diff(
            &base,
            &new,
            &LcsDiffOptions::builder().linear_space(true).build(),
        )
        .expect("linear-space LCS fits in memory")
    });
    let anchored = measure(samples, || {
        anchored_diff(&base, &new, &AnchoredDiffOptions::default())
    });

    let exact_pairs = exact.result.matching.normalized_pairs().len();
    let anchored_pairs = anchored.result.matching.normalized_pairs().len();
    assert!(
        anchored_pairs <= exact_pairs,
        "anchored matched more pairs ({anchored_pairs}) than the exact LCS ({exact_pairs})"
    );

    AnchoredMeasured {
        entries: [base.len(), new.len()],
        mutations,
        exact_wall: exact.wall,
        exact_pairs,
        exact_compare_ops: exact.result.cost.compare_ops,
        anchored_wall: anchored.wall,
        anchored_pairs,
        anchored_compare_ops: anchored.result.cost.compare_ops,
    }
}

struct CheckMeasured {
    entries: usize,
    bytes: usize,
    wall: Duration,
}

impl CheckMeasured {
    fn entries_per_second(&self) -> f64 {
        self.entries as f64 / self.wall.as_secs_f64().max(1e-12)
    }
}

/// Streams a large well-formed `gen` trace (serialized binary, in memory) through
/// `Engine::check_reader` — one decode + rule-engine fold per sample, best wall wins.
/// The trace must check clean: a diagnostic here would mean the generator or a rule
/// regressed, which would also skew the measurement with diagnostic formatting.
fn measure_check_throughput(samples: usize) -> CheckMeasured {
    use rprism_trace::testgen::{GenProfile, Rng};

    const ENTRIES: usize = 100_000;
    let trace = GenProfile::WellFormed.generate(&mut Rng::new(6), ENTRIES);
    let bytes =
        rprism_format::trace_to_bytes(&trace, rprism_format::Encoding::Binary).unwrap();
    let engine = Engine::new();
    let mut wall = Duration::MAX;
    for _ in 0..samples {
        let start = std::time::Instant::now();
        let report = engine.check_reader(&bytes[..]).expect("check streams");
        wall = wall.min(start.elapsed());
        assert!(report.is_clean(), "the well-formed profile must check clean");
        assert_eq!(report.entries, ENTRIES);
    }
    CheckMeasured {
        entries: ENTRIES,
        bytes: bytes.len(),
        wall,
    }
}

struct WatchLatencyMeasured {
    entries: usize,
    chunk: usize,
    batch_wall: Duration,
    first_event_wall: Duration,
    verdict_lag: Duration,
    total_wall: Duration,
    provisional_events: usize,
}

/// The `watch_latency` measurement (BENCH_8): the ordinary-evolution pair streamed
/// through a live [`Engine::watch`] in 256-entry chunks. Three numbers per sample —
/// time from watch start to the first provisional event, verdict lag after the last
/// entry (the `finish()` reconciliation), total watch wall — against the batch diff
/// of the same pair; best total wins, matchings are asserted identical.
fn measure_watch_latency(samples: usize, old: &Trace, new: &Trace) -> WatchLatencyMeasured {
    const CHUNK: usize = 256;
    let engine = Engine::new();
    let pold = engine.prepare(old.clone());
    let pnew = engine.prepare(new.clone());
    let batch = measure(samples, || engine.diff(&pold, &pnew).expect("views never fails"));

    let mut measured = WatchLatencyMeasured {
        entries: new.len(),
        chunk: CHUNK,
        batch_wall: batch.wall,
        first_event_wall: Duration::MAX,
        verdict_lag: Duration::MAX,
        total_wall: Duration::MAX,
        provisional_events: 0,
    };
    for _ in 0..samples {
        let start = std::time::Instant::now();
        let mut watch = engine.watch(&pold, new.meta.clone());
        let mut first_event = None;
        let mut provisional = 0usize;
        for slice in new.entries.chunks(CHUNK) {
            provisional += watch.push_entries(slice).expect("no ingest gate").len();
            if first_event.is_none() && provisional > 0 {
                first_event = Some(start.elapsed());
            }
        }
        let eof = start.elapsed();
        let outcome = watch.finish().expect("no ingest gate");
        let total = start.elapsed();
        assert_eq!(
            outcome.result.matching.normalized_pairs(),
            batch.result.matching.normalized_pairs(),
            "live watch diverged from the batch diff"
        );
        assert!(provisional > 0, "the evolution pair must stream events");
        if total < measured.total_wall {
            measured.total_wall = total;
            measured.first_event_wall = first_event.unwrap_or(total);
            measured.verdict_lag = total - eof;
            measured.provisional_events = provisional;
        }
    }
    measured
}

struct ObsOverheadMeasured {
    entries: usize,
    stripped_wall: Duration,
    instrumented_wall: Duration,
}

impl ObsOverheadMeasured {
    /// Fractional wall-time cost of full instrumentation: `instrumented/stripped - 1`.
    fn overhead_ratio(&self) -> f64 {
        self.instrumented_wall.as_secs_f64() / self.stripped_wall.as_secs_f64().max(1e-12)
            - 1.0
    }
}

/// The `obs_overhead` measurement (BENCH_9): the stored pair streamed in
/// (`load_prepared`) and diffed per sample, through an engine with the disabled
/// observer vs one recording into an enabled [`rprism::Obs`] domain — the full
/// instrumentation path: `engine.load` spans, per-phase decode/key/web timers,
/// log-scale histograms and the bounded span ring. Best wall per side over
/// `samples`, identical diffs asserted, and the overhead gated at 3% (beyond a
/// 2 ms absolute jitter floor, below which the ratio measures scheduler noise,
/// not instrumentation).
fn measure_obs_overhead(samples: usize, old: &Trace, new: &Trace) -> ObsOverheadMeasured {
    use rprism::Obs;

    let dir = std::env::temp_dir().join(format!("rprism-perf-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let store = Engine::new();
    let pa = dir.join("old.rtr");
    let pb = dir.join("new.rtr");
    store.store_trace(&store.prepare(old.clone()), &pa).unwrap();
    store.store_trace(&store.prepare(new.clone()), &pb).unwrap();

    let obs = Obs::enabled();
    let stripped = Engine::builder().build();
    let instrumented = Engine::builder().obs(obs.clone()).build();
    let timed = |engine: &Engine| -> (Duration, Vec<_>) {
        let mut wall = Duration::MAX;
        let mut pairs = Vec::new();
        for _ in 0..samples {
            let start = std::time::Instant::now();
            let la = engine.load_prepared(&pa).expect("load old");
            let lb = engine.load_prepared(&pb).expect("load new");
            let diff = engine.diff(&la, &lb).expect("views never fails");
            wall = wall.min(start.elapsed());
            pairs = diff.matching.normalized_pairs().to_vec();
        }
        (wall, pairs)
    };

    let (stripped_wall, stripped_pairs) = timed(&stripped);
    let (instrumented_wall, instrumented_pairs) = timed(&instrumented);
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(
        stripped_pairs, instrumented_pairs,
        "instrumentation must not change the diff"
    );
    // Sanity: the instrumented side actually recorded — every sample's two loads
    // landed in the `engine.load` span histogram.
    let recorded = obs
        .snapshot()
        .entries
        .iter()
        .any(|(name, _)| name == "engine.load");
    assert!(recorded, "instrumented engine recorded no engine.load spans");

    let measured = ObsOverheadMeasured {
        entries: old.len() + new.len(),
        stripped_wall,
        instrumented_wall,
    };
    let delta = measured
        .instrumented_wall
        .saturating_sub(measured.stripped_wall);
    assert!(
        measured.overhead_ratio() <= 0.03 || delta <= Duration::from_millis(2),
        "observability overhead {:.2}% exceeds the 3% budget \
         (stripped {:?}, instrumented {:?})",
        measured.overhead_ratio() * 100.0,
        measured.stripped_wall,
        measured.instrumented_wall
    );
    measured
}

fn main() {
    let mut json = false;
    let mut iterations = 400usize;
    for arg in std::env::args().skip(1) {
        if arg == "--json" {
            json = true;
        } else if let Ok(n) = arg.parse() {
            iterations = n;
        }
    }
    let samples = sample_env(5);

    let (old, new) = trace_pair([(32, iterations), (1, iterations)]);
    let options = ViewsDiffOptions::default();

    let seed = measure(samples, || seed_views_diff(&old, &new, &options));
    let keyed = measure(samples, || cold_views_diff(&old, &new, &options));

    assert_eq!(
        seed.result.matching.normalized_pairs(),
        keyed.result.matching.normalized_pairs(),
        "refactored pipeline diverged from the seed algorithm"
    );

    let (reuse_old, reuse_new) = trace_pair([(32, iterations), (32, iterations + 4)]);
    let reuse = measure_reuse(samples, 3, &reuse_old, &reuse_new, &options);
    let io = measure_trace_io(samples, &old);
    let ingest = measure_streaming_ingest(samples, &old, &new);
    let server = measure_server_throughput(samples, &reuse_old, &reuse_new);
    let durability = measure_put_durability(samples, &old);
    let check = measure_check_throughput(samples);
    let anchored = measure_anchored_scaling(samples);
    let watch = measure_watch_latency(samples, &reuse_old, &reuse_new);
    let obs = measure_obs_overhead(samples, &reuse_old, &reuse_new);

    let speedup = seed.wall.as_secs_f64() / keyed.wall.as_secs_f64().max(1e-12);
    let reuse_speedup =
        reuse.cold_wall.as_secs_f64() / reuse.prepared_wall.as_secs_f64().max(1e-12);
    if json {
        println!("{{");
        println!("  \"scenario\": \"diff_scaling largest size (iterations={iterations})\",");
        println!("  \"trace_entries\": [{}, {}],", old.len(), new.len());
        println!("  \"samples\": {samples},");
        println!(
            "  \"seed_baseline\": {{ \"wall_seconds\": {:.6}, \"compare_ops\": {}, \"peak_bytes\": {} }},",
            seed.wall.as_secs_f64(),
            seed.result.cost.compare_ops,
            seed.result.cost.peak_bytes
        );
        println!(
            "  \"keyed_parallel\": {{ \"wall_seconds\": {:.6}, \"compare_ops\": {}, \"peak_bytes\": {} }},",
            keyed.wall.as_secs_f64(),
            keyed.result.cost.compare_ops,
            keyed.result.cost.peak_bytes
        );
        println!("  \"wall_time_speedup\": {speedup:.2},");
        println!(
            "  \"prepared_reuse\": {{ \"trace_entries\": [{}, {}], \"repeats\": {}, \"cold_wall_seconds\": {:.6}, \"prepared_wall_seconds\": {:.6}, \"prepared_reuse_speedup\": {:.2} }},",
            reuse_old.len(),
            reuse_new.len(),
            reuse.repeats,
            reuse.cold_wall.as_secs_f64(),
            reuse.prepared_wall.as_secs_f64(),
            reuse_speedup
        );
        let io_json: Vec<String> = io
            .iter()
            .map(|m| {
                format!(
                    "{{ \"encoding\": \"{}\", \"bytes\": {}, \"bytes_per_entry\": {:.1}, \"write_wall_seconds\": {:.6}, \"read_wall_seconds\": {:.6} }}",
                    m.encoding,
                    m.bytes,
                    m.bytes as f64 / old.len().max(1) as f64,
                    m.write_wall.as_secs_f64(),
                    m.read_wall.as_secs_f64()
                )
            })
            .collect();
        println!("  \"trace_io\": [{}],", io_json.join(", "));
        println!(
            "  \"streaming_ingest\": {{ \"trace_entries\": {}, \"full\": {{ \"wall_seconds\": {:.6}, \"peak_bytes\": {} }}, \"streaming\": {{ \"wall_seconds\": {:.6}, \"peak_bytes\": {} }}, \"peak_memory_reduction\": {:.2} }},",
            ingest.entries,
            ingest.full_wall.as_secs_f64(),
            ingest.full_peak,
            ingest.streaming_wall.as_secs_f64(),
            ingest.streaming_peak,
            ingest.peak_reduction()
        );
        println!(
            "  \"server_throughput\": {{ \"total_requests\": {}, \"server_threads\": {}, \"host_cores\": {}, \"one_client\": {{ \"wall_seconds\": {:.6}, \"requests_per_second\": {:.1} }}, \"four_clients\": {{ \"wall_seconds\": {:.6}, \"requests_per_second\": {:.1} }}, \"concurrency_speedup\": {:.2}, \"cold_cache\": {{ \"wall_seconds\": {:.6}, \"requests_per_second\": {:.1} }}, \"prepared_cache_speedup\": {:.2} }},",
            server.total_requests,
            server.threads,
            rprism_trace::par::workers(),
            server.one_client_wall.as_secs_f64(),
            server.requests_per_second(server.one_client_wall),
            server.four_client_wall.as_secs_f64(),
            server.requests_per_second(server.four_client_wall),
            server.concurrency_speedup(),
            server.cold_cache_wall.as_secs_f64(),
            server.requests_per_second(server.cold_cache_wall),
            server.prepared_cache_speedup()
        );
        println!(
            "  \"put_durability\": {{ \"puts\": {}, \"durable\": {{ \"wall_seconds\": {:.6}, \"puts_per_second\": {:.1} }}, \"no_fsync\": {{ \"wall_seconds\": {:.6}, \"puts_per_second\": {:.1} }}, \"fsync_cost_ratio\": {:.2} }},",
            durability.puts,
            durability.durable_wall.as_secs_f64(),
            durability.puts_per_second(durability.durable_wall),
            durability.fast_wall.as_secs_f64(),
            durability.puts_per_second(durability.fast_wall),
            durability.fsync_cost_ratio()
        );
        println!(
            "  \"check_throughput\": {{ \"trace_entries\": {}, \"bytes\": {}, \"wall_seconds\": {:.6}, \"entries_per_second\": {:.0} }},",
            check.entries,
            check.bytes,
            check.wall.as_secs_f64(),
            check.entries_per_second()
        );
        println!(
            "  \"anchored_scaling\": {{ \"trace_entries\": [{}, {}], \"mutations\": {}, \"exact_linear_space\": {{ \"wall_seconds\": {:.6}, \"pairs\": {}, \"compare_ops\": {} }}, \"anchored\": {{ \"wall_seconds\": {:.6}, \"pairs\": {}, \"compare_ops\": {} }}, \"matching_recovery\": {:.6}, \"wall_time_speedup\": {:.2} }},",
            anchored.entries[0],
            anchored.entries[1],
            anchored.mutations,
            anchored.exact_wall.as_secs_f64(),
            anchored.exact_pairs,
            anchored.exact_compare_ops,
            anchored.anchored_wall.as_secs_f64(),
            anchored.anchored_pairs,
            anchored.anchored_compare_ops,
            anchored.recovery(),
            anchored.speedup()
        );
        println!(
            "  \"watch_latency\": {{ \"trace_entries\": {}, \"chunk_entries\": {}, \"provisional_events\": {}, \"batch_wall_seconds\": {:.6}, \"first_event_seconds\": {:.6}, \"verdict_lag_seconds\": {:.6}, \"watch_total_wall_seconds\": {:.6} }},",
            watch.entries,
            watch.chunk,
            watch.provisional_events,
            watch.batch_wall.as_secs_f64(),
            watch.first_event_wall.as_secs_f64(),
            watch.verdict_lag.as_secs_f64(),
            watch.total_wall.as_secs_f64()
        );
        println!(
            "  \"obs_overhead\": {{ \"trace_entries\": {}, \"stripped\": {{ \"wall_seconds\": {:.6} }}, \"instrumented\": {{ \"wall_seconds\": {:.6} }}, \"overhead_ratio\": {:.4}, \"budget\": 0.03 }}",
            obs.entries,
            obs.stripped_wall.as_secs_f64(),
            obs.instrumented_wall.as_secs_f64(),
            obs.overhead_ratio()
        );
        println!("}}");
    } else {
        println!(
            "perf_smoke — diff_scaling largest size ({iterations} iterations, {} / {} trace entries, best of {samples})\n",
            old.len(),
            new.len()
        );
        println!(
            "  seed baseline (owned EventKeys):   wall {:>10.3?}  compare_ops {:>12}  peak_bytes {:>10}",
            seed.wall, seed.result.cost.compare_ops, seed.result.cost.peak_bytes
        );
        println!(
            "  keyed pipeline (interned, parallel): wall {:>10.3?}  compare_ops {:>12}  peak_bytes {:>10}",
            keyed.wall, keyed.result.cost.compare_ops, keyed.result.cost.peak_bytes
        );
        println!("\n  wall-time speedup: {speedup:.2}x");
        println!(
            "  results identical: {} similar pairs, {} differences",
            keyed.result.num_similar(),
            keyed.result.num_differences()
        );
        println!(
            "\n  prepared reuse ({}x same pair): cold {:>10.3?}  engine-prepared {:>10.3?}  speedup {reuse_speedup:.2}x",
            reuse.repeats, reuse.cold_wall, reuse.prepared_wall
        );
        println!(
            "\n  streaming ingest ({} entries across both sides):",
            ingest.entries
        );
        println!(
            "    load-then-prepare: wall {:>10.3?}  peak heap growth {:>12} bytes",
            ingest.full_wall, ingest.full_peak
        );
        println!(
            "    streaming prepare: wall {:>10.3?}  peak heap growth {:>12} bytes",
            ingest.streaming_wall, ingest.streaming_peak
        );
        println!(
            "    peak-memory reduction: {:.2}x (identical diffs asserted)",
            ingest.peak_reduction()
        );
        println!(
            "\n  server throughput ({} repeated remote diffs, {} worker threads, {} host cores):",
            server.total_requests,
            server.threads,
            rprism_trace::par::workers()
        );
        println!(
            "    1 client:  wall {:>10.3?}  {:>8.1} requests/s",
            server.one_client_wall,
            server.requests_per_second(server.one_client_wall)
        );
        println!(
            "    4 clients: wall {:>10.3?}  {:>8.1} requests/s  (concurrency speedup {:.2}x; scales with cores)",
            server.four_client_wall,
            server.requests_per_second(server.four_client_wall),
            server.concurrency_speedup()
        );
        println!(
            "    cold caches: wall {:>9.3?}  {:>8.1} requests/s  (prepared-cache speedup {:.2}x)",
            server.cold_cache_wall,
            server.requests_per_second(server.cold_cache_wall),
            server.prepared_cache_speedup()
        );
        println!(
            "\n  put durability ({} distinct blobs into a fresh repo):",
            durability.puts
        );
        println!(
            "    durable (fsync + rename + dir fsync): wall {:>9.3?}  {:>8.1} puts/s",
            durability.durable_wall,
            durability.puts_per_second(durability.durable_wall)
        );
        println!(
            "    --no-fsync (rename-commit only):      wall {:>9.3?}  {:>8.1} puts/s  (fsync cost {:.2}x)",
            durability.fast_wall,
            durability.puts_per_second(durability.fast_wall),
            durability.fsync_cost_ratio()
        );
        println!(
            "\n  check throughput ({} entries, {} bytes, all 20 rules):",
            check.entries, check.bytes
        );
        println!(
            "    streaming check: wall {:>10.3?}  {:>10.0} entries/s",
            check.wall,
            check.entries_per_second()
        );
        println!(
            "\n  anchored scaling ({} / {} entries, {} scattered mutations):",
            anchored.entries[0], anchored.entries[1], anchored.mutations
        );
        println!(
            "    exact (linear-space DP): wall {:>10.3?}  {:>8} pairs  compare_ops {:>14}",
            anchored.exact_wall, anchored.exact_pairs, anchored.exact_compare_ops
        );
        println!(
            "    anchored:                wall {:>10.3?}  {:>8} pairs  compare_ops {:>14}",
            anchored.anchored_wall, anchored.anchored_pairs, anchored.anchored_compare_ops
        );
        println!(
            "    wall-time speedup: {:.2}x  (matching recovery {:.4})",
            anchored.speedup(),
            anchored.recovery()
        );
        println!(
            "\n  watch latency ({} streamed entries, {}-entry chunks, {} provisional events):",
            watch.entries, watch.chunk, watch.provisional_events
        );
        println!(
            "    batch diff wall {:>10.3?}   watch total {:>10.3?}",
            watch.batch_wall, watch.total_wall
        );
        println!(
            "    first provisional event after {:>10.3?}   verdict lag after EOF {:>10.3?}",
            watch.first_event_wall, watch.verdict_lag
        );
        println!(
            "\n  obs overhead ({} entries, load + diff per sample):",
            obs.entries
        );
        println!(
            "    disabled observer: wall {:>10.3?}   enabled (spans + histograms): wall {:>10.3?}",
            obs.stripped_wall, obs.instrumented_wall
        );
        println!(
            "    overhead: {:.2}% (budget 3%)",
            obs.overhead_ratio() * 100.0
        );
        println!("\n  trace i/o ({} entries):", old.len());
        for m in &io {
            let entries_per_sec =
                |wall: Duration| old.len() as f64 / wall.as_secs_f64().max(1e-12);
            println!(
                "    {:>6}: {:>9} bytes ({:>5.1} B/entry)  write {:>10.0} entries/s  read {:>10.0} entries/s",
                m.encoding.to_string(),
                m.bytes,
                m.bytes as f64 / old.len().max(1) as f64,
                entries_per_sec(m.write_wall),
                entries_per_sec(m.read_wall)
            );
        }
    }
}
