//! A `cargo bench`-free perf smoke check with five measurements on the `diff_scaling`
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
//! 4. **anchored scaling** — a 100k-entry well-formed `gen` trace against a copy with
//!    scattered mutations, differenced by the exact DP family (linear-space
//!    Hirschberg, the only exact configuration that fits in memory at this size) and
//!    by the anchored patience/histogram mode, printing wall time, matched pairs and
//!    compare ops for both plus the wall-time speedup and the fraction of the exact
//!    LCS the anchored matching recovers (the numbers recorded in `BENCH_7.json`;
//!    size override: `RPRISM_BENCH_ANCHORED_ENTRIES`).
//! 5. **obs overhead** — the stored pair streamed in and diffed through an engine
//!    with the disabled observer (every recording call inert) vs one recording
//!    into an enabled `rprism-obs` domain (pipeline spans, phase timers,
//!    histograms, span ring), printing wall time for both and the overhead
//!    ratio, asserted ≤ 3% (above a small absolute jitter floor) with identical
//!    diffs (the numbers recorded in `BENCH_9.json`).
//!
//! The streaming-ingest, server-throughput, put-durability, check-throughput and
//! watch-latency blocks recorded in `BENCH_4.json`–`BENCH_8.json` are carried by
//! `perfbench` (see `perfbench/README.md`).
//!
//! The `--json` flag emits all numbers as one JSON object.
//!
//! Run with `cargo run -p rprism-bench --bin perf_smoke --release [-- --json] [iterations]`.

use std::time::Duration;

use rprism::{Engine, PreparedTrace};
use rprism_bench::cold_views_diff;
use rprism_bench::measure::sample_env;
use rprism_bench::seed_baseline::seed_views_diff;
use rprism_diff::{TraceDiffResult, ViewsDiffOptions};
use rprism_lang::parser::parse_program;
use rprism_trace::{Trace, TraceMeta};
use rprism_vm::{run_traced, VmConfig};

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
/// engine-prepared handles (preparation paid once, when the handles are made). Fresh
/// handles are made inside each sample's timer so every sample pays the one-time
/// preparation; best sample wins on both sides, and the results are asserted identical.
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
    for sample in 1..=samples {
        let start = std::time::Instant::now();
        let mut cold_last = None;
        for _ in 0..repeats {
            cold_last = Some(cold_views_diff(old, new, options));
        }
        cold_wall = cold_wall.min(start.elapsed());

        let (old_copy, new_copy) = (old.clone(), new.clone());
        let start = std::time::Instant::now();
        let (pold, pnew) = (PreparedTrace::new(old_copy), PreparedTrace::new(new_copy));
        let mut prepared_last = None;
        for _ in 0..repeats {
            prepared_last = Some(engine.diff(&pold, &pnew).expect("views never fails"));
        }
        prepared_wall = prepared_wall.min(start.elapsed());

        assert_eq!(
            engine.correlation_builds(),
            sample as u64,
            "each fresh pair's correlation must be built exactly once"
        );
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
            &LcsDiffOptions {
                linear_space: true,
                ..Default::default()
            },
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

struct ObsOverheadMeasured {
    entries: usize,
    stripped_wall: Duration,
    instrumented_wall: Duration,
}

impl ObsOverheadMeasured {
    /// Fractional wall-time cost of full instrumentation: `instrumented/stripped - 1`.
    fn overhead_ratio(&self) -> f64 {
        self.instrumented_wall.as_secs_f64() / self.stripped_wall.as_secs_f64().max(1e-12) - 1.0
    }
}

/// The `obs_overhead` measurement (BENCH_9): the serialized pair streamed in
/// (`load_prepared_reader`) and diffed per sample, through an engine with the disabled
/// observer vs one recording into an enabled [`rprism::Obs`] domain — the full
/// instrumentation path: `engine.load` spans, per-phase decode/key/web timers,
/// log-scale histograms and the bounded span ring. Best wall per side over
/// `samples`, identical diffs asserted, and the overhead gated at 3% (beyond a
/// 2 ms absolute jitter floor, below which the ratio measures scheduler noise,
/// not instrumentation).
fn measure_obs_overhead(samples: usize, old: &Trace, new: &Trace) -> ObsOverheadMeasured {
    use rprism::Obs;

    let encode = |trace| rprism_format::trace_to_bytes(trace, rprism_format::Encoding::Binary);
    let (ba, bb) = (encode(old).unwrap(), encode(new).unwrap());

    let obs = Obs::enabled();
    let stripped = Engine::builder().build();
    let instrumented = Engine::builder().obs(obs.clone()).build();
    let timed = |engine: &Engine| -> (Duration, Vec<_>) {
        let mut wall = Duration::MAX;
        let mut pairs = Vec::new();
        for _ in 0..samples {
            let start = std::time::Instant::now();
            let la = engine.load_prepared_reader(&ba[..]).expect("load old");
            let lb = engine.load_prepared_reader(&bb[..]).expect("load new");
            let diff = engine.diff(&la, &lb).expect("views never fails");
            wall = wall.min(start.elapsed());
            pairs = diff.matching.normalized_pairs().to_vec();
        }
        (wall, pairs)
    };

    let (stripped_wall, stripped_pairs) = timed(&stripped);
    let (instrumented_wall, instrumented_pairs) = timed(&instrumented);

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
    assert!(
        recorded,
        "instrumented engine recorded no engine.load spans"
    );

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
    let anchored = measure_anchored_scaling(samples);
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
            let entries_per_sec = |wall: Duration| old.len() as f64 / wall.as_secs_f64().max(1e-12);
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
