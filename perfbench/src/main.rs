//! The rprism benchmark: one seeded load generator driving an in-process
//! `rprism-server` daemon on loopback.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload remote-warm|cold-ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing but the daemon's own
//! instrumentation running. `--trace 1` is a separate run with the same seed:
//! three passes of `S / 3` seconds each — untraced against the default daemon,
//! untraced against a daemon with `Obs::disabled()`, and traced, where every
//! operation's layer calls are replayed and timed against a local mirror (see
//! `replay.rs`) — reporting the per-layer metrics. Human-readable lines come
//! first; the last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Work files live under `.bench_work/` in
//! the current directory; the traced run leaves its spans there.

mod corpus;
mod cpu;
mod daemon;
mod host;
mod oracle;
mod replay;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use corpus::Corpus;
use daemon::{set_up_median, Daemon};
use oracle::WarmRefs;
use replay::{Breakdown, Mirror};
use workload::{run_pass, Ctx, Pass, Workload, COLD_CACHE_BUDGET};

/// Sequence bound of every rendered diff and report.
pub const MAX_SEQUENCES: u64 = 10;

/// Set-ups per untraced run; `setup_s` is their median.
const SET_UPS: usize = 25;

/// Seed-differencer runs behind the calibration figure.
const CALIBRATION_RUNS: usize = 5;

/// The end-to-end metrics (`--trace 0`) and their units. Every time among them
/// is process CPU time at the nominal host speed (see `host.rs`); the raw CPU
/// and wall-clock figures are printed apart.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_norm_p50_ms", "ms"),
    ("op_norm_tail_ms", "ms"),
    ("ops_per_norm_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Layers only one workload calls. Their busy time per operation (`<layer>_us`)
/// is printed; the JSON carries `<layer>_share`, their share of end-to-end time,
/// which reads 0 (a ratio, not a time) on the workload that never calls them.
const ONE_WORKLOAD_LAYERS: [&str; 12] = [
    "format.content_hash",
    "format.tail_push",
    "trace.keyed",
    "views.web",
    "views.correlate",
    "diff.anchored",
    "regress.analyze",
    "regress.render",
    "core.load",
    "core.watch_push",
    "core.watch_finish",
    "server.repo.put",
];

/// The per-layer metrics (`--trace 1`) and their units. A `_us` metric whose name
/// (less the suffix) is a replay span is that span's busy time per operation; a
/// `_share` metric over such a span is its time over all end-to-end time. The
/// `obs.daemon.*_mean_us` figures are the daemon's own span means (sum ÷ count).
const PER_LAYER: [(&str, &str); 41] = [
    ("format.decode_us", "us"),
    ("format.frame_us", "us"),
    ("format.content_hash_share", "ratio"),
    ("format.tail_push_share", "ratio"),
    ("trace.keyed_share", "ratio"),
    ("views.web_share", "ratio"),
    ("views.correlate_share", "ratio"),
    ("views.correlation_builds", "count"),
    ("diff.scan_us", "us"),
    ("diff.anchored_share", "ratio"),
    ("diff.compare_ops", "count"),
    ("diff.render_us", "us"),
    ("regress.analyze_share", "ratio"),
    ("regress.render_share", "ratio"),
    ("check.fold_us", "us"),
    ("check.entries_per_s", "1/s"),
    ("core.load_share", "ratio"),
    ("core.diff_us", "us"),
    ("core.watch_push_share", "ratio"),
    ("core.watch_finish_share", "ratio"),
    ("server.repo.put_share", "ratio"),
    ("server.repo.get_us", "us"),
    ("server.repo.prepared_us", "us"),
    ("server.repo.cache_hit_ratio", "ratio"),
    ("server.proto.encode_us", "us"),
    ("server.proto.decode_us", "us"),
    ("server.proto.response_bytes", "bytes"),
    ("server.wire_us", "us"),
    ("server.rtt_us", "us"),
    ("server.retries", "count"),
    ("server.busy", "count"),
    ("obs.overhead_share", "ratio"),
    ("obs.daemon.request_diff_mean_us", "us"),
    ("obs.daemon.request_analyze_mean_us", "us"),
    ("obs.daemon.request_check_mean_us", "us"),
    ("obs.daemon.request_put_mean_us", "us"),
    ("obs.daemon.pipeline_scan_mean_us", "us"),
    ("unattributed_share", "ratio"),
    ("trace_overhead_share", "ratio"),
    ("attributed_ingest_share", "ratio"),
    ("attributed_watch_share", "ratio"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let get = |flag: &str| flags.get(flag).ok_or(format!("missing {flag}"));
    let workload = get("--workload")?;
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace: match number("--trace")? {
            0 => false,
            1 => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() {
    let outcome = parse_args().and_then(|args| {
        // The host's cores, counted before the process gives all but one up.
        let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pinned = cpu::pin_to_one_cpu()?;
        println!("meta host_cores={host_cores} pinned_cpu={pinned}");
        let work = PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            args.workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
        let result = run(&args, &work);
        let _ = std::fs::remove_dir_all(&work);
        result
    });
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn run(args: &Args, work: &Path) -> Result<(), String> {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let started = Instant::now();
    let corpus = Corpus::build();
    let input_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let refs = WarmRefs::build(&corpus);
    let oracle_s = started.elapsed().as_secs_f64();
    println!(
        "meta calibration_ms={:.3} input_s={input_s:.3} oracle_s={oracle_s:.3}",
        calibration_ms()
    );
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        corpus: &corpus,
        refs: &refs,
    };
    let (metrics, attempted, failed) = if args.trace {
        traced(&ctx, args, work)?
    } else {
        untraced(&ctx, args, work)?
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    std::io::stdout().flush().map_err(|e| e.to_string())
}

/// Host normalization: the median wall time of the frozen seed differencer on
/// the `diff_scaling` (32,400)/(1,400) pair. Run metadata, not a metric.
fn calibration_ms() -> f64 {
    let (old, new) = corpus::diff_scaling_pair([(32, 400), (1, 400)]);
    let options = rprism::ViewsDiffOptions::default();
    let runs: Vec<f64> = (0..CALIBRATION_RUNS)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(rprism_bench::seed_baseline::seed_views_diff(
                &old, &new, &options,
            ));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&runs)
}

/// VmHWM of this process (client and daemon together), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn report_failures(pass: &Pass) {
    for error in &pass.samples.failures {
        println!("failure {error}");
    }
}

fn untraced(ctx: &Ctx, args: &Args, work: &Path) -> Result<(Vec<Metric>, usize, usize), String> {
    let (daemon, setup) = set_up_median(work, SET_UPS, ctx.workload.flavor(false), ctx.corpus)?;
    let pass = run_pass(ctx, &daemon, args.seconds, None)?;
    drop(daemon);
    let samples = &pass.samples;
    let (attempted, failed) = (samples.op_ms.len(), samples.failed);
    if attempted == 0 {
        return Err("no operation completed".into());
    }
    report_failures(&pass);
    let norm_ms = &samples.op_norm_ms;
    let tail = stats::tail(norm_ms);
    let norm_s = norm_ms.iter().sum::<f64>() / 1e3;
    let values = [
        setup.norm_s,
        stats::median(norm_ms),
        tail.value,
        attempted as f64 / norm_s,
        peak_rss_mb(),
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    for m in &metrics {
        println!("e2e {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "e2e op_norm_tail is p{} of n={} operations",
        tail.percentile, tail.n
    );
    let readings = &pass.reference_ms;
    println!(
        "host reference_ms median={} min={} max={} n={} (nominal {})",
        stats::median(readings),
        stats::sorted(readings)[0],
        stats::sorted(readings)[readings.len() - 1],
        readings.len(),
        host::NOMINAL_MS
    );
    let cpu_tail = stats::tail(&samples.op_cpu_ms);
    println!("cpu setup_cpu_s {} s", setup.cpu_s);
    println!("cpu op_cpu_p50_ms {} ms", stats::median(&samples.op_cpu_ms));
    println!(
        "cpu op_cpu_tail_ms {} ms (p{})",
        cpu_tail.value, cpu_tail.percentile
    );
    // Wall-clock figures: what a caller waits, steal included. Not gated, as
    // they move with the host's load.
    let wall_tail = stats::tail(&samples.op_ms);
    println!("wall setup_wall_s {} s", setup.wall_s);
    println!("wall op_p50_ms {} ms", stats::median(&samples.op_ms));
    println!(
        "wall op_tail_ms {} ms (p{} of n={})",
        wall_tail.value, wall_tail.percentile, wall_tail.n
    );
    println!("wall ops_per_s {} 1/s", attempted as f64 / pass.busy_s);
    println!(
        "e2e error_ratio {} ratio ({failed}/{attempted})",
        failed as f64 / attempted as f64
    );
    // The per-kind wall-clock latencies that apply to this workload. They are
    // not gated: every gated metric must be reported by every workload.
    for (kind, samples) in &samples.parts {
        let name = match *kind {
            "first_event" | "verdict_lag" => format!("{kind}_ms"),
            _ => format!("{kind}_p50_ms"),
        };
        println!(
            "wall {name} {} ms (n={})",
            stats::median(samples),
            samples.len()
        );
    }
    Ok((metrics, attempted, failed))
}

fn traced(ctx: &Ctx, args: &Args, work: &Path) -> Result<(Vec<Metric>, usize, usize), String> {
    let third = args.seconds / 3.0;
    let counter = |name: &'static str| rprism_obs::global().counter(name).get();
    let (retries, busy) = (counter("client.retries"), counter("client.busy_backoffs"));

    let daemon = Daemon::set_up(
        &work.join("default"),
        ctx.workload.flavor(false),
        ctx.corpus,
    )?;
    let plain = run_pass(ctx, &daemon, third, None)?;
    drop(daemon);
    let daemon = Daemon::set_up(&work.join("obs-off"), ctx.workload.flavor(true), ctx.corpus)?;
    let obs_off = run_pass(ctx, &daemon, third, None)?;
    drop(daemon);
    let daemon = Daemon::set_up(&work.join("traced"), ctx.workload.flavor(false), ctx.corpus)?;
    let mirror_dir = work.join("mirror");
    std::fs::create_dir_all(&mirror_dir).map_err(|e| e.to_string())?;
    let budget = match ctx.workload {
        Workload::ColdIngest => COLD_CACHE_BUDGET,
        _ => rprism_server::DEFAULT_CACHE_BUDGET,
    };
    let mirror = Mirror::open(&mirror_dir, budget, ctx.corpus);
    let pass = run_pass(ctx, &daemon, third, Some(&mirror))?;
    drop(daemon);
    drop(mirror);

    let passes = [&plain, &obs_off, &pass];
    let attempted: usize = passes.iter().map(|p| p.samples.op_ms.len()).sum();
    let failed: usize = passes.iter().map(|p| p.samples.failed).sum();
    for p in passes {
        report_failures(p);
        if p.samples.op_ms.is_empty() {
            return Err("a pass completed no operation".into());
        }
    }
    write_spans(ctx, args, &pass)?;

    let b = Breakdown::of(&pass.tracers);
    let [before, after] = pass.stats;
    let ops = b.ops.max(1) as f64;
    let rtt_us = stats::median(&pass.rtt_us);
    let p50 = |p: &Pass| stats::median(&p.samples.op_norm_ms);
    let hits = (after.prepared_hits - before.prepared_hits) as f64;
    let misses = (after.prepared_misses - before.prepared_misses) as f64;
    let fold_s = b.layers.get("check.fold").map_or(0, |l| l.0) as f64 / 1e9;
    let transport_ns = rtt_us * 1e3 * b.requests as f64;
    let attributed = b.attributed_ns as f64 + transport_ns;
    // Ingest work on the operation's blocking path: puts (hash, write, commit),
    // repository loads (streaming decode, key, web), the check's decode, and
    // the correlation build inside the diff.
    let ingest_ns = ["server.repo.put", "server.repo.prepared", "format.decode"]
        .iter()
        .map(|name| b.attributed.get(name).copied().unwrap_or(0))
        .sum::<u64>() as f64
        + b.layers.get("views.correlate").map_or(0, |l| l.0) as f64;
    let watch_ns: f64 = ["format.tail_push", "core.watch_push", "core.watch_finish"]
        .iter()
        .map(|name| b.attributed.get(name).copied().unwrap_or(0) as f64)
        .sum();
    let daemon = |metric: &str, quantity| prometheus_summary(&pass.metrics_text, metric, quantity);

    let value = |name: &str| -> f64 {
        match name {
            "views.correlation_builds" => {
                (after.correlation_builds - before.correlation_builds) as f64 / ops
            }
            "diff.compare_ops" => b.count_per_op("diff.compare_ops"),
            "check.entries_per_s" if fold_s > 0.0 => {
                b.counts.get("check.entries").copied().unwrap_or(0) as f64 / fold_s
            }
            "check.entries_per_s" => 0.0,
            "server.repo.cache_hit_ratio" => hits / (hits + misses),
            "server.proto.response_bytes" => b.count_per_op("server.proto.response_bytes"),
            "server.rtt_us" => rtt_us,
            "server.retries" => (counter("client.retries") - retries) as f64,
            "server.busy" => (counter("client.busy_backoffs") - busy) as f64,
            "obs.overhead_share" => p50(&plain) / p50(&obs_off) - 1.0,
            "unattributed_share" => 1.0 - attributed / b.e2e_ns as f64,
            "trace_overhead_share" => p50(&pass) / p50(&plain) - 1.0,
            "attributed_ingest_share" => ingest_ns / attributed,
            "attributed_watch_share" => watch_ns / attributed,
            daemon_mean if daemon_mean.starts_with("obs.daemon.") => {
                let span = daemon_mean["obs.daemon.".len()..].trim_end_matches("_mean_us");
                daemon(&format!("rprism_{span}"), Quantity::Mean)
            }
            share if share.ends_with("_share") => {
                let span = share.trim_end_matches("_share");
                b.layers.get(span).map_or(0, |l| l.0) as f64 / b.e2e_ns as f64
            }
            span => b.per_op_us(span.strip_suffix("_us").expect("span metrics end in _us")),
        }
    };
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: value(name),
            unit,
        })
        .collect();
    for m in &metrics {
        println!("layer {} {} {}", m.name, m.value, m.unit);
    }
    for span in ONE_WORKLOAD_LAYERS {
        println!("layer {span}_us {} us", b.per_op_us(span));
    }
    println!(
        "trace ops={} requests={} e2e_ms_per_op={:.4} attributed_ms_per_op={:.4} (transport {:.4}) op_norm_p50_ms untraced={:.4} obs_off={:.4} traced={:.4}",
        b.ops,
        b.requests,
        b.e2e_ns as f64 / 1e6 / ops,
        attributed / 1e6 / ops,
        transport_ns / 1e6 / ops,
        p50(&plain),
        p50(&obs_off),
        p50(&pass)
    );
    let split: Vec<String> = b
        .attributed
        .iter()
        .map(|(name, ns)| format!("{name}={:.3}", *ns as f64 / attributed))
        .collect();
    println!(
        "attributed-split {} transport={:.3}",
        split.join(" "),
        transport_ns / attributed
    );
    for kind in [
        "diff",
        "analyze",
        "check",
        "put",
        "put_stream",
        "watch_start",
    ] {
        let metric = format!("rprism_request_{kind}");
        println!(
            "cross-check daemon request.{kind} p50<={} mean={:.1} us",
            daemon(&metric, Quantity::P50),
            daemon(&metric, Quantity::Mean)
        );
    }
    println!(
        "cross-check daemon pipeline.scan p50<={} mean={:.1} us | outside-in per op: core.diff_us={:.1} diff.scan_us={:.1} (daemon p50s are log2-bucket upper bounds)",
        daemon("rprism_pipeline_scan", Quantity::P50),
        daemon("rprism_pipeline_scan", Quantity::Mean),
        value("core.diff_us"),
        value("diff.scan_us")
    );
    Ok((metrics, attempted, failed))
}

/// A figure of one span summary in the daemon's Prometheus text scrape.
#[derive(Clone, Copy)]
enum Quantity {
    /// The `quantile="0.5"` sample (a log2-bucket upper bound).
    P50,
    /// `_sum ÷ _count`.
    Mean,
}

/// `quantity` of summary `metric` in a Prometheus text scrape (0 when the daemon
/// never recorded it).
fn prometheus_summary(text: &str, metric: &str, quantity: Quantity) -> f64 {
    let sample = |suffix: &str| -> f64 {
        let prefix = format!("{metric}{suffix} ");
        text.lines()
            .find_map(|line| line.strip_prefix(&prefix))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0.0)
    };
    match quantity {
        Quantity::P50 => sample("{quantile=\"0.5\"}"),
        Quantity::Mean => {
            let count = sample("_count");
            if count > 0.0 {
                sample("_sum") / count
            } else {
                0.0
            }
        }
    }
}

/// Writes the traced pass's spans, one per line:
/// `op id parent name start_ns end_ns` (parent `-` for an operation's root).
fn write_spans(ctx: &Ctx, args: &Args, pass: &Pass) -> Result<(), String> {
    let dir = PathBuf::from(".bench_work").join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-seed{}.tsv", ctx.workload.name(), args.seed));
    let mut out = String::from("op\tid\tparent\tname\tstart_ns\tend_ns\n");
    for t in &pass.tracers {
        for s in &t.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{}\t{}\t{parent}\t{}\t{}\t{}\n",
                s.op, s.id, s.name, s.start_ns, s.end_ns
            ));
        }
    }
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("spans {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the program prints is declared in `BENCHMARK.json`, and
    /// nothing else is.
    #[test]
    fn benchmark_json_declares_exactly_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        let names = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|m| m.0.to_string()).collect()
        };
        assert_eq!(section("end_to_end"), names(&END_TO_END));
        assert_eq!(section("per_layer"), names(&PER_LAYER));
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(section("workloads"), workloads);
    }

    #[test]
    fn prometheus_summary_reads_the_median_and_the_mean() {
        let text = "# TYPE rprism_request_diff summary\nrprism_request_diff{quantile=\"0.5\"} 511\nrprism_request_diff{quantile=\"0.9\"} 1023\nrprism_request_diff_sum 1500\nrprism_request_diff_count 4\n";
        assert_eq!(
            prometheus_summary(text, "rprism_request_diff", Quantity::P50),
            511.0
        );
        assert_eq!(
            prometheus_summary(text, "rprism_request_diff", Quantity::Mean),
            375.0
        );
        assert_eq!(
            prometheus_summary(text, "rprism_request_check", Quantity::Mean),
            0.0
        );
    }
}
