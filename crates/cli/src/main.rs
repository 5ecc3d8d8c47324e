//! The `rprism` command-line tool: record, inspect, difference and analyze on-disk
//! execution traces.
//!
//! ```text
//! rprism record <source.rp> --out <file> [--label L] [--encoding binary|jsonl]
//! rprism record --scenario <name|all> --dir <dir> [--encoding binary|jsonl]
//! rprism gen --out <file> [--entries N] [--seed S] [--profile P] [--encoding binary|jsonl]
//! rprism check <file ...> [--deny error|warning|info] [--format human|json] [--severity rule=sev …]
//! rprism diff <a> <b> [<c> <d> …] [--algorithm views|lcs|anchored] [--lcs] [--max-seqs N] [--quiet] [--full]
//! rprism analyze <or> <nr> <op> <np> [… groups of four] [--mode intersect|subtract] [--algorithm A] [--full]
//! rprism convert <in> <out> [--encoding binary|jsonl]
//! rprism corpus --dir <dir> [--check]
//! rprism serve --addr <host:port> --repo <dir> [--threads N] [--cache-bytes B]
//!              [--backlog N] [--cache-low-watermark B] [--busy-retry-ms MS] [--no-fsync]
//!              [--slow-ms MS] [--obs-trace <file>]
//! rprism remote put|get|list|diff|analyze|stats|metrics|obs-trace|shutdown ... --addr <host:port> [--retries N]
//! ```
//!
//! Trace files are read with content sniffing (binary `.rtr` or JSONL text, regardless
//! of extension). `diff` and `analyze` ingest their inputs with the **streaming prepare
//! pipeline** (`Engine::load_prepared_reader` over the opened file): keys and view webs
//! are built in one bounded-memory pass and the full traces are never materialized, so
//! trace files far larger than memory can be differenced. `--full` switches back to
//! whole-trace loading (`rprism_format::read_trace_path` into `PreparedTrace::new`),
//! whose reports render complete entry text (streamed reports render compact context
//! lines). `check` streams each file through `Engine::check_reader`. Batch invocations — several `diff` pairs, several `analyze` quadruples — fan
//! out through the session engine's `diff_many`/`analyze_many`, so a directory of
//! recorded traces is one command away from a full batch analysis.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use rprism::{
    AnalysisMode, AnchoredDiffOptions, DiffAlgorithm, Encoding, Engine, LcsDiffOptions,
    PreparedTrace, RegressionInput, RenderOptions, ViewsDiffOptions,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("rprism: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  rprism record <source.rp> --out <file> [--label <name>] [--encoding binary|jsonl]
      Parse and trace a program source file, storing its trace.
  rprism record --scenario <name|all> --dir <dir> [--encoding binary|jsonl]
      Export the four traces of a built-in case study (daikon, xalan-1725,
      xalan-1802, derby-1633) or of all of them.
  rprism gen --out <file> [--entries <n>] [--seed <s>] [--profile <p>] [--encoding binary|jsonl]
      Generate a deterministic synthetic trace (load testing, format smoke tests).
      Profiles: arbitrary (default; random soup), well-formed (passes every check
      rule), and four adversarial shapes that each violate exactly one rule:
      unbalanced-call, orphan-fork, use-after-death, racy-interleaving.
  rprism check <file ...> [--deny error|warning|info] [--format human|json]
               [--severity <rule>=<sev> ...]
      Run the semantics-aware static analysis (well-formedness rules + the
      happens-before race detector) over stored traces, streamed in one
      bounded-memory pass. --deny sets the exit threshold (default warning);
      --severity overrides one rule's severity (repeatable); --format json emits
      one machine-readable report per line. Exit codes are pinned: 0 when no
      diagnostic reaches the deny threshold, 1 when one does, 2 when a trace
      cannot be read or decoded.
  rprism diff <a> <b> [<c> <d> ...] [--algorithm views|lcs|anchored] [--lcs]
              [--max-seqs <n>] [--quiet] [--full]
      Semantically difference stored trace pairs (batched via diff_many).
      Inputs are streamed through the bounded-memory prepare pipeline; --full
      loads whole traces instead (complete entry text in the rendered diff).
      --algorithm picks the differencing family: views (default; the exact
      §3.3 linear scan), lcs (exact §3.2 baseline; --lcs is shorthand), or
      anchored (patience/histogram anchors — near-linear on huge traces,
      same verdicts as the exact modes but matchings may differ).
  rprism analyze <or> <nr> <op> <np> [...] [--mode intersect|subtract]
                 [--algorithm views|lcs|anchored] [--max-seqs <n>] [--full]
      Run the regression-cause analysis over stored trace quadruples
      (old-regressing, new-regressing, old-passing, new-passing; batched,
      streamed like diff unless --full).
  rprism convert <in> <out> [--encoding binary|jsonl]
      Re-encode a stored trace (default: encoding implied by <out>'s extension).
  rprism corpus --dir <dir> [--check]
      Regenerate the golden case-study corpus (or verify it, failing on drift).
  rprism serve --addr <host:port> --repo <dir> [--threads <n>] [--cache-bytes <b>]
               [--max-frame-bytes <b>] [--backlog <n>] [--cache-low-watermark <b>]
               [--busy-retry-ms <ms>] [--no-fsync] [--slow-ms <ms>] [--obs-trace <file>]
      Run the trace-repository daemon: content-addressed storage plus remote
      diff/analyze over a framed TCP protocol, served by a bounded thread pool
      sharing one analysis engine. Puts are crash-safe (fsync + rename-commit) by
      default; --no-fsync trades that durability for put throughput. When the
      accept backlog (--backlog, default 2x threads) is full, connections are shed
      with an explicit Busy frame hinting --busy-retry-ms, and the prepared cache
      is shrunk to --cache-low-watermark bytes to relieve memory pressure.
      --slow-ms logs every request slower than the threshold to stderr as one
      structured line with a per-phase time breakdown; --obs-trace writes the
      daemon's self-trace (its own recent execution as a binary .rtr trace) to
      the given path on shutdown.
  rprism remote put <file ...> --addr <host:port>
      Upload traces (either encoding); prints each trace's content hash.
      Re-uploads of content the server already holds are deduplicated.
      Every remote verb also accepts [--timeout <seconds>] (default 60; raise it
      for long server-side computations), [--max-frame-bytes <b>] (match the
      server's value when shipping traces beyond the 64 MiB default), and
      [--retries <n>] (retry idempotent requests up to n times with jittered
      exponential backoff on connection failures and Busy sheds; default 0).
  rprism remote get <hash> --out <file> --addr <host:port>
      Download a stored blob by content hash.
  rprism remote list --addr <host:port>
      List the server's stored traces.
  rprism remote check <trace ...> [--addr] [--deny <sev>] [--format human|json]
                      [--severity <rule>=<sev> ...]
      Run the static analysis on the server over stored traces (hashes or files,
      like diff). Output and exit codes match local `check` exactly — checking
      the same blob locally and remotely prints byte-identical reports.
  rprism remote diff <a> <b> [--addr <host:port>] [--algorithm views|lcs|anchored]
                     [--max-seqs <n>] [--quiet]
      Diff two stored traces on the server. <a>/<b> are 16-digit content hashes
      or local files (files are uploaded first). --algorithm overrides the
      server engine's differencing family (older servers reject the override).
  rprism remote analyze <or> <nr> <op> <np> [--addr] [--mode ...]
                        [--algorithm views|lcs|anchored] [--max-seqs <n>]
      Run the regression-cause analysis on the server (hashes or files, like diff).
  rprism remote watch <old> <file|-> [--addr] [--max-seqs <n>] [--quiet]
                      [--follow] [--poll-ms <ms>] [--idle-ms <ms>]
      Diff a growing trace live against the stored trace <old>: the file (or
      stdin with `-`) is streamed to the server in chunks as it is produced, and
      provisional match/retract/diverge events print as the server's incremental
      differ advances (lines prefixed `~`). At end of input the final report
      prints, byte-identical to `remote diff` of the same pair. --follow keeps
      tailing a file that is still being written, polling every --poll-ms
      (default 200) until it stops growing for --idle-ms (default 5000); without
      it the watch ends at the first end-of-file.
  rprism remote stats --addr <host:port>
      Repository/cache statistics of the daemon.
  rprism remote metrics --addr <host:port> [--watch] [--interval-ms <ms>]
      Scrape the daemon's metrics in Prometheus text exposition format: every
      counter, gauge and span-latency summary (p50/p90/p99), plus this client's
      own retry/backoff/deadline counters. --watch re-scrapes every
      --interval-ms (default 2000) until interrupted.
  rprism remote obs-trace <out.rtr> --addr <host:port>
      Fetch the daemon's self-trace: its recent execution (request spans,
      repository I/O, pipeline phases) replayed onto the trace model and
      written as a binary .rtr file that `rprism check`/`rprism diff` analyze
      like any other trace.
  rprism remote shutdown --addr <host:port>
      Gracefully stop the daemon (in-flight requests drain first).";

/// Default timeout of every remote operation (connect, each read, each write);
/// override with `--timeout <seconds>` for long server-side computations (e.g. a
/// cold-cache analyze over very large traces).
const REMOTE_TIMEOUT_SECS: u64 = 60;

/// One parsed flag set: positionals plus `--key value` / bare `--switch` options.
struct Args {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

/// Flags that take a value; everything else starting with `--` is a switch.
const VALUE_FLAGS: &[&str] = &[
    "--out",
    "--label",
    "--encoding",
    "--scenario",
    "--dir",
    "--max-seqs",
    "--mode",
    "--entries",
    "--seed",
    "--addr",
    "--repo",
    "--threads",
    "--cache-bytes",
    "--max-frame-bytes",
    "--timeout",
    "--backlog",
    "--cache-low-watermark",
    "--busy-retry-ms",
    "--retries",
    "--profile",
    "--deny",
    "--format",
    "--severity",
    "--algorithm",
    "--poll-ms",
    "--idle-ms",
    "--slow-ms",
    "--obs-trace",
    "--interval-ms",
];

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut options = Vec::new();
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(flag) = arg.strip_prefix("--") {
                let key = format!("--{flag}");
                if VALUE_FLAGS.contains(&key.as_str()) {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("flag {key} expects a value"))?;
                    options.push((key, Some(value.clone())));
                } else {
                    options.push((key, None));
                }
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Args {
            positional,
            options,
        })
    }

    fn value(&self, key: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn switch(&self, key: &str) -> bool {
        self.options.iter().any(|(k, _)| k == key)
    }

    /// Every value given for a repeatable flag, in order.
    fn values<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.options
            .iter()
            .filter(move |(k, _)| k == key)
            .filter_map(|(_, v)| v.as_deref())
    }

    fn reject_unknown(&self, allowed: &[&str]) -> Result<(), String> {
        for (key, _) in &self.options {
            if !allowed.contains(&key.as_str()) {
                return Err(format!("unknown flag {key} (see `rprism help`)"));
            }
        }
        Ok(())
    }

    fn encoding(&self) -> Result<Option<Encoding>, String> {
        self.value("--encoding").map(str::parse).transpose()
    }

    fn max_seqs(&self) -> Result<usize, String> {
        match self.value("--max-seqs") {
            None => Ok(5),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--max-seqs expects a number, got {text:?}")),
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return Err("missing subcommand".into());
    };
    let parsed = Args::parse(rest)?;
    // `check` owns its exit code (pinned 0/1/2 semantics); every other subcommand
    // maps success to 0 and any error to the generic failure code 1.
    let done = |result: Result<(), String>| result.map(|()| ExitCode::SUCCESS);
    match command.as_str() {
        "record" => done(record(&parsed)),
        "gen" => done(gen(&parsed)),
        "check" => check(&parsed),
        "diff" => done(diff(&parsed)),
        "analyze" => done(analyze(&parsed)),
        "convert" => done(convert(&parsed)),
        "corpus" => done(corpus(&parsed)),
        "serve" => done(serve(&parsed)),
        "remote" => remote(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => {
            eprintln!("{USAGE}");
            Err(format!("unknown subcommand {other:?}"))
        }
    }
}

/// Opens a trace file; a failure reports like any other trace format error.
fn open(path: &str) -> rprism::Result<File> {
    Ok(File::open(path).map_err(rprism::FormatError::Io)?)
}

/// Loads one trace input: streamed through the bounded-memory prepare pipeline by
/// default, as a whole in-memory trace with `full`.
fn load(engine: &Engine, path: &str, full: bool) -> Result<PreparedTrace, String> {
    if full {
        rprism_format::read_trace_path(path)
            .map(PreparedTrace::new)
            .map_err(rprism::Error::from)
    } else {
        open(path).and_then(|file| engine.load_prepared_reader(file))
    }
    .map_err(|e| format!("cannot load {path}: {e}"))
}

fn gen(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--out", "--entries", "--seed", "--profile", "--encoding"])?;
    if !args.positional.is_empty() {
        return Err("gen takes no positional arguments (use --out <file>)".into());
    }
    let out = PathBuf::from(args.value("--out").ok_or("gen expects --out <file>")?);
    let parse_num = |key: &str, default: u64| -> Result<u64, String> {
        match args.value(key) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{key} expects a number, got {text:?}")),
        }
    };
    let entries = parse_num("--entries", 10_000)?;
    let seed = parse_num("--seed", 0x5eed)?;
    let profile: rprism::trace::testgen::GenProfile =
        args.value("--profile").unwrap_or("arbitrary").parse()?;
    let mut rng = rprism::trace::testgen::Rng::new(seed);
    let trace = profile.generate(&mut rng, entries as usize);
    let encoding = args.encoding()?.unwrap_or_else(|| Encoding::for_path(&out));
    rprism_format::write_trace_path(&trace, &out, encoding)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "wrote {} ({} entries, seed {seed}, {profile} profile, {} encoding)",
        out.display(),
        trace.len(),
        encoding
    );
    Ok(())
}

/// Parses the shared `check` flag set: the deny threshold, the output format, and any
/// per-rule severity overrides. Used by both local `check` and `remote check` so the
/// two accept identical configurations.
fn check_options(args: &Args) -> Result<(rprism::CheckConfig, rprism::Severity, bool), String> {
    let deny: rprism::Severity = match args.value("--deny") {
        None => rprism::Severity::Warning,
        Some(text) => text.parse().map_err(|e| format!("--deny: {e}"))?,
    };
    let json = match args.value("--format") {
        None | Some("human") => false,
        Some("json") => true,
        Some(other) => {
            return Err(format!(
                "unknown check format {other:?} (expected `human` or `json`)"
            ))
        }
    };
    let mut config = rprism::CheckConfig::default();
    for spec in args.values("--severity") {
        let (rule, sev) = spec
            .split_once('=')
            .ok_or_else(|| format!("--severity expects <rule>=<severity>, got {spec:?}"))?;
        let sev: rprism::Severity = sev.parse().map_err(|e| format!("--severity {rule}: {e}"))?;
        config = config.with_severity(rule, sev)?;
    }
    Ok((config, deny, json))
}

/// Renders one check report in the chosen format. The human rendering is the report's
/// own (path-free, deterministic) text, so checking the same blob locally and via
/// `remote check` prints byte-identical output.
fn print_report(report: &rprism::CheckReport, json: bool) {
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
}

fn check(args: &Args) -> Result<ExitCode, String> {
    args.reject_unknown(&["--deny", "--format", "--severity"])?;
    if args.positional.is_empty() {
        return Err("check expects at least one trace file".into());
    }
    let (config, deny, json) = check_options(args)?;
    let engine = Engine::new();
    let mut denied = 0usize;
    for path in &args.positional {
        let checked = open(path).and_then(|file| engine.check_reader_with(file, config.clone()));
        let report = match checked {
            Ok(report) => report,
            Err(e) => {
                // Exit code 2 is pinned to "could not read or decode a trace".
                eprintln!("rprism: cannot check {path}: {e}");
                return Ok(ExitCode::from(2));
            }
        };
        print_report(&report, json);
        denied += report.count_at_least(deny);
    }
    if args.positional.len() > 1 && !json {
        println!(
            "checked {} trace(s): {} diagnostic(s) at or above {deny}",
            args.positional.len(),
            denied
        );
    }
    Ok(if denied > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn record(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--out", "--label", "--encoding", "--scenario", "--dir"])?;
    let encoding = args.encoding()?;
    if let Some(scenario) = args.value("--scenario") {
        if !args.positional.is_empty()
            || args.value("--out").is_some()
            || args.value("--label").is_some()
        {
            return Err(
                "record --scenario exports a built-in case study and cannot be combined \
                 with a source file, --out or --label"
                    .into(),
            );
        }
        let dir = args
            .value("--dir")
            .ok_or("record --scenario expects --dir <dir>")?;
        let written =
            rprism_workloads::corpus::export_scenario(scenario, dir, encoding.unwrap_or_default())
                .map_err(|e| e.to_string())?;
        for path in &written {
            println!("wrote {}", path.display());
        }
        return Ok(());
    }
    if args.value("--dir").is_some() {
        return Err("record --dir only applies to --scenario exports (use --out <file>)".into());
    }
    let [source] = args.positional.as_slice() else {
        return Err("record expects one source file (or --scenario)".into());
    };
    let out = args.value("--out").ok_or("record expects --out <file>")?;
    let out = PathBuf::from(out);
    let label = args.value("--label").map(str::to_owned).unwrap_or_else(|| {
        Path::new(source)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "trace".to_owned())
    });
    let src = std::fs::read_to_string(source).map_err(|e| format!("cannot read {source}: {e}"))?;
    let engine = Engine::new();
    let prepared = engine
        .trace_source(&src, &label)
        .map_err(|e| format!("cannot trace {source}: {e}"))?;
    if let Some(err) = prepared.run_error() {
        eprintln!("note: traced run ended with a runtime error: {err}");
    }
    let encoding = encoding.unwrap_or_else(|| Encoding::for_path(&out));
    rprism_format::write_trace_path(prepared.trace(), &out, encoding)
        .map_err(|e| format!("cannot write {}: {}", out.display(), rprism::Error::from(e)))?;
    println!(
        "wrote {} ({} entries, {} encoding)",
        out.display(),
        prepared.len(),
        encoding
    );
    Ok(())
}

/// Parses an `--algorithm` value into the engine configuration for that family
/// (with the family's default options).
fn parse_algorithm(name: &str) -> Result<DiffAlgorithm, String> {
    match name {
        "views" => Ok(DiffAlgorithm::Views(ViewsDiffOptions::default())),
        "lcs" => Ok(DiffAlgorithm::Lcs(LcsDiffOptions::default())),
        "anchored" => Ok(DiffAlgorithm::Anchored(AnchoredDiffOptions::default())),
        other => Err(format!(
            "unknown diff algorithm {other:?} (expected `views`, `lcs` or `anchored`)"
        )),
    }
}

/// The `--algorithm` override of a remote verb, in wire form (`None` = server default).
fn parse_wire_algorithm(args: &Args) -> Result<Option<rprism_server::WireAlgorithm>, String> {
    use rprism_server::WireAlgorithm;
    Ok(match args.value("--algorithm") {
        None => None,
        Some("views") => Some(WireAlgorithm::Views),
        Some("lcs") => Some(WireAlgorithm::Lcs),
        Some("anchored") => Some(WireAlgorithm::Anchored),
        Some(other) => {
            return Err(format!(
                "unknown diff algorithm {other:?} (expected `views`, `lcs` or `anchored`)"
            ))
        }
    })
}

fn diff(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--algorithm", "--lcs", "--max-seqs", "--quiet", "--full"])?;
    let paths = &args.positional;
    if paths.len() < 2 || !paths.len().is_multiple_of(2) {
        return Err(format!(
            "diff expects an even number of trace files (pairs), got {}",
            paths.len()
        ));
    }
    let max_seqs = args.max_seqs()?;
    let full = args.switch("--full");
    let mut builder = Engine::builder();
    if let Some(name) = args.value("--algorithm") {
        if args.switch("--lcs") && name != "lcs" {
            return Err(format!(
                "--lcs conflicts with --algorithm {name} (drop one of the two)"
            ));
        }
        builder = builder.algorithm(parse_algorithm(name)?);
    } else if args.switch("--lcs") {
        builder = builder.lcs_baseline(LcsDiffOptions::default());
    }
    let engine = builder.build();
    let mut pairs = Vec::new();
    for chunk in paths.chunks(2) {
        pairs.push((
            load(&engine, &chunk[0], full)?,
            load(&engine, &chunk[1], full)?,
        ));
    }
    let results = engine
        .diff_many(&pairs)
        .map_err(|e| format!("differencing failed: {e}"))?;
    for (result, (pair, (left, right))) in results.iter().zip(paths.chunks(2).zip(&pairs)) {
        println!(
            "{} vs {}: {} differences in {} sequences ({} similar entries, {} compare ops, {})",
            pair[0],
            pair[1],
            result.num_differences(),
            result.num_sequences(),
            result.num_similar(),
            result.cost.compare_ops,
            result.algorithm,
        );
        if !args.switch("--quiet") {
            print!("{}", engine.render_diff(result, left, right, max_seqs));
        }
    }
    Ok(())
}

fn analyze(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--algorithm", "--mode", "--max-seqs", "--full"])?;
    let paths = &args.positional;
    if paths.is_empty() || !paths.len().is_multiple_of(4) {
        return Err(format!(
            "analyze expects groups of four trace files \
             (old-regressing new-regressing old-passing new-passing), got {}",
            paths.len()
        ));
    }
    let mode = match args.value("--mode") {
        None => None,
        Some("intersect") => Some(AnalysisMode::Intersect),
        Some("subtract") => Some(AnalysisMode::SubtractRegressionSet),
        Some(other) => {
            return Err(format!(
                "unknown analysis mode {other:?} (expected `intersect` or `subtract`)"
            ))
        }
    };
    let mut builder = Engine::builder().render_options(RenderOptions {
        max_regression_sequences: args.max_seqs()?,
        ..RenderOptions::default()
    });
    if let Some(name) = args.value("--algorithm") {
        builder = builder.algorithm(parse_algorithm(name)?);
    }
    let engine = builder.build();
    let full = args.switch("--full");
    let mut inputs = Vec::new();
    for group in paths.chunks(4) {
        let mut input = RegressionInput::new(
            load(&engine, &group[0], full)?,
            load(&engine, &group[1], full)?,
            load(&engine, &group[2], full)?,
            load(&engine, &group[3], full)?,
        );
        if let Some(mode) = mode {
            input = input.with_mode(mode);
        }
        inputs.push(input);
    }
    let reports = engine
        .analyze_many(&inputs)
        .map_err(|e| format!("analysis failed: {e}"))?;
    for (report, (group, input)) in reports.iter().zip(paths.chunks(4).zip(&inputs)) {
        println!(
            "analysis of {} vs {} (expected {} / {}):",
            group[0], group[1], group[2], group[3]
        );
        println!(
            "  suspected {} / expected {} / regression {} -> {} candidate causes, \
             {} regression sequences ({:?} mode, {} compare ops)",
            report.suspected.len(),
            report.expected.len(),
            report.regression.len(),
            report.candidates.len(),
            report.num_regression_sequences(),
            report.mode,
            report.compare_ops,
        );
        print!("{}", engine.render_report(report, input));
    }
    Ok(())
}

fn convert(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--encoding"])?;
    let [input, output] = args.positional.as_slice() else {
        return Err("convert expects <in> <out>".into());
    };
    let output = PathBuf::from(output);
    let encoding = args
        .encoding()?
        .unwrap_or_else(|| Encoding::for_path(&output));
    let trace =
        rprism_format::read_trace_path(input).map_err(|e| format!("cannot load {input}: {e}"))?;
    rprism_format::write_trace_path(&trace, &output, encoding)
        .map_err(|e| format!("cannot write {}: {e}", output.display()))?;
    println!(
        "converted {} -> {} ({} entries, {} encoding)",
        input,
        output.display(),
        trace.len(),
        encoding
    );
    Ok(())
}

fn serve(args: &Args) -> Result<(), String> {
    args.reject_unknown(&[
        "--addr",
        "--repo",
        "--threads",
        "--cache-bytes",
        "--max-frame-bytes",
        "--backlog",
        "--cache-low-watermark",
        "--busy-retry-ms",
        "--no-fsync",
        "--slow-ms",
        "--obs-trace",
    ])?;
    if !args.positional.is_empty() {
        return Err("serve takes no positional arguments".into());
    }
    let addr = args
        .value("--addr")
        .ok_or("serve expects --addr <host:port>")?;
    let repo = args.value("--repo").ok_or("serve expects --repo <dir>")?;
    let mut config = rprism_server::ServerConfig::new(addr, repo);
    if let Some(threads) = args.value("--threads") {
        config.threads = threads
            .parse()
            .map_err(|_| format!("--threads expects a number, got {threads:?}"))?;
    }
    if let Some(budget) = args.value("--cache-bytes") {
        config.cache_budget = budget
            .parse()
            .map_err(|_| format!("--cache-bytes expects a byte count, got {budget:?}"))?;
    }
    if let Some(max_frame) = args.value("--max-frame-bytes") {
        config.max_frame = max_frame
            .parse()
            .map_err(|_| format!("--max-frame-bytes expects a byte count, got {max_frame:?}"))?;
    }
    if let Some(backlog) = args.value("--backlog") {
        config.backlog = backlog
            .parse()
            .map_err(|_| format!("--backlog expects a number, got {backlog:?}"))?;
    }
    if let Some(watermark) = args.value("--cache-low-watermark") {
        config.cache_low_watermark = watermark.parse().map_err(|_| {
            format!("--cache-low-watermark expects a byte count, got {watermark:?}")
        })?;
    }
    if let Some(retry_ms) = args.value("--busy-retry-ms") {
        config.busy_retry_ms = retry_ms
            .parse()
            .map_err(|_| format!("--busy-retry-ms expects milliseconds, got {retry_ms:?}"))?;
    }
    if let Some(slow_ms) = args.value("--slow-ms") {
        config.slow_request_ms = Some(
            slow_ms
                .parse()
                .map_err(|_| format!("--slow-ms expects milliseconds, got {slow_ms:?}"))?,
        );
    }
    if let Some(path) = args.value("--obs-trace") {
        config.obs_trace_path = Some(PathBuf::from(path));
    }
    // Trade crash-durability for put throughput (useful for ephemeral repos).
    config.durable = !args.switch("--no-fsync");
    let server = rprism_server::Server::bind(config).map_err(|e| e.to_string())?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    println!("rprism-server listening on {bound} (repo {repo})");
    server.run().map_err(|e| e.to_string())
}

/// Connects to the daemon named by `--addr`. `--max-frame-bytes` raises the frame
/// bound on both sides of the conversation (pass the same value to `serve` when
/// shipping traces beyond the 64 MiB default); `--timeout <seconds>` stretches the
/// wait for long server-side computations.
fn remote_client(args: &Args) -> Result<rprism_server::Client, String> {
    let addr = args
        .value("--addr")
        .ok_or("remote commands expect --addr <host:port>")?;
    let timeout = match args.value("--timeout") {
        None => REMOTE_TIMEOUT_SECS,
        Some(text) => text
            .parse()
            .map_err(|_| format!("--timeout expects a number of seconds, got {text:?}"))?,
    };
    let mut retry = rprism_server::RetryPolicy::none();
    if let Some(text) = args.value("--retries") {
        let retries: u32 = text
            .parse()
            .map_err(|_| format!("--retries expects a number, got {text:?}"))?;
        retry = rprism_server::RetryPolicy {
            max_attempts: retries.saturating_add(1),
            ..rprism_server::RetryPolicy::default()
        };
    }
    let mut client = rprism_server::Client::connect_with_retry(
        addr,
        std::time::Duration::from_secs(timeout),
        retry,
    )
    .map_err(|e| e.to_string())?;
    if let Some(max_frame) = args.value("--max-frame-bytes") {
        client.set_max_frame(
            max_frame.parse().map_err(|_| {
                format!("--max-frame-bytes expects a byte count, got {max_frame:?}")
            })?,
        );
    }
    Ok(client)
}

/// Resolves one trace argument for a remote request: a 16-digit hex content hash is
/// used as-is; anything that names an existing local file is uploaded first (the
/// server deduplicates re-uploads, so this is cheap for content it already holds).
fn remote_trace_arg(client: &mut rprism_server::Client, arg: &str) -> Result<u64, String> {
    if arg.len() == 16 && arg.bytes().all(|b| b.is_ascii_hexdigit()) && !Path::new(arg).exists() {
        return u64::from_str_radix(arg, 16).map_err(|e| e.to_string());
    }
    let put = client
        .put_path(arg)
        .map_err(|e| format!("cannot upload {arg}: {e}"))?;
    Ok(put.hash)
}

fn remote(args: &[String]) -> Result<ExitCode, String> {
    let Some((verb, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return Err("remote expects a subcommand \
             (put|get|list|check|diff|watch|analyze|stats|metrics|obs-trace|shutdown)"
            .into());
    };
    let parsed = Args::parse(rest)?;
    let done = |result: Result<(), String>| result.map(|()| ExitCode::SUCCESS);
    match verb.as_str() {
        "put" => done(remote_put(&parsed)),
        "get" => done(remote_get(&parsed)),
        "list" => done(remote_list(&parsed)),
        "check" => remote_check(&parsed),
        "diff" => done(remote_diff(&parsed)),
        "watch" => done(remote_watch(&parsed)),
        "analyze" => done(remote_analyze(&parsed)),
        "stats" => done(remote_stats(&parsed)),
        "metrics" => done(remote_metrics(&parsed)),
        "obs-trace" => done(remote_obs_trace(&parsed)),
        "shutdown" => done(remote_shutdown(&parsed)),
        other => {
            eprintln!("{USAGE}");
            Err(format!("unknown remote subcommand {other:?}"))
        }
    }
}

fn remote_check(args: &Args) -> Result<ExitCode, String> {
    args.reject_unknown(&[
        "--addr",
        "--max-frame-bytes",
        "--timeout",
        "--retries",
        "--deny",
        "--format",
        "--severity",
    ])?;
    if args.positional.is_empty() {
        return Err("remote check expects at least one trace (content hash or file)".into());
    }
    let (config, deny, json) = check_options(args)?;
    let overrides: Vec<(String, rprism::Severity)> = config.overrides().to_vec();
    let mut client = remote_client(args)?;
    let mut denied = 0usize;
    for arg in &args.positional {
        let hash = remote_trace_arg(&mut client, arg)?;
        let report = match client.check(hash, &overrides) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("rprism: cannot check {arg}: {e}");
                return Ok(ExitCode::from(2));
            }
        };
        print_report(&report, json);
        denied += report.count_at_least(deny);
    }
    if args.positional.len() > 1 && !json {
        println!(
            "checked {} trace(s): {} diagnostic(s) at or above {deny}",
            args.positional.len(),
            denied
        );
    }
    Ok(if denied > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn remote_put(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--addr", "--max-frame-bytes", "--timeout", "--retries"])?;
    if args.positional.is_empty() {
        return Err("remote put expects at least one trace file".into());
    }
    let mut client = remote_client(args)?;
    for path in &args.positional {
        let put = client
            .put_path(path)
            .map_err(|e| format!("cannot upload {path}: {e}"))?;
        println!(
            "{:016x}  {path} ({} entries{})",
            put.hash,
            put.entries,
            if put.deduped { ", deduplicated" } else { "" }
        );
    }
    Ok(())
}

fn remote_get(args: &Args) -> Result<(), String> {
    args.reject_unknown(&[
        "--addr",
        "--max-frame-bytes",
        "--timeout",
        "--retries",
        "--out",
    ])?;
    let [hash] = args.positional.as_slice() else {
        return Err("remote get expects one content hash".into());
    };
    let out = args
        .value("--out")
        .ok_or("remote get expects --out <file>")?;
    let hash = u64::from_str_radix(hash, 16)
        .map_err(|_| format!("remote get expects a hex content hash, got {hash:?}"))?;
    let mut client = remote_client(args)?;
    let bytes = client.get(hash).map_err(|e| e.to_string())?;
    std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out} ({} bytes)", bytes.len());
    Ok(())
}

fn remote_list(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--addr", "--max-frame-bytes", "--timeout", "--retries"])?;
    if !args.positional.is_empty() {
        return Err("remote list takes no positional arguments".into());
    }
    let mut client = remote_client(args)?;
    let entries = client.list().map_err(|e| e.to_string())?;
    for entry in &entries {
        println!(
            "{:016x}  {:>8} entries  {:>10} bytes  {}",
            entry.hash, entry.entries, entry.bytes, entry.name
        );
    }
    println!("{} trace(s) stored", entries.len());
    Ok(())
}

fn remote_diff(args: &Args) -> Result<(), String> {
    args.reject_unknown(&[
        "--addr",
        "--max-frame-bytes",
        "--timeout",
        "--retries",
        "--max-seqs",
        "--quiet",
        "--algorithm",
    ])?;
    let [left, right] = args.positional.as_slice() else {
        return Err("remote diff expects two traces (content hashes or files)".into());
    };
    let max_seqs = args.max_seqs()?;
    let algorithm = parse_wire_algorithm(args)?;
    let mut client = remote_client(args)?;
    let left_hash = remote_trace_arg(&mut client, left)?;
    let right_hash = remote_trace_arg(&mut client, right)?;
    let diff = client
        .diff_with_algorithm(left_hash, right_hash, max_seqs as u64, algorithm)
        .map_err(|e| format!("remote differencing failed: {e}"))?;
    // Same summary shape as the local `diff` subcommand, so outputs are comparable.
    println!(
        "{} vs {}: {} differences in {} sequences ({} similar entries, {} compare ops, {})",
        left,
        right,
        diff.num_differences,
        diff.num_sequences(),
        diff.pairs.len(),
        diff.compare_ops,
        diff.algorithm,
    );
    if !args.switch("--quiet") {
        print!("{}", diff.rendered);
    }
    Ok(())
}

/// How much of the watched source is sent per `PutStream` frame. Small enough to
/// keep provisional events flowing while a trace is still being written, large
/// enough that a finished file costs only a handful of round trips.
const WATCH_CHUNK: usize = 64 * 1024;

fn remote_watch(args: &Args) -> Result<(), String> {
    args.reject_unknown(&[
        "--addr",
        "--max-frame-bytes",
        "--timeout",
        "--retries",
        "--max-seqs",
        "--quiet",
        "--follow",
        "--poll-ms",
        "--idle-ms",
    ])?;
    let [old, source] = args.positional.as_slice() else {
        return Err(
            "remote watch expects an old trace (hash or file) and a source (file or -)".into(),
        );
    };
    let max_seqs = args.max_seqs()?;
    let quiet = args.switch("--quiet");
    let follow = args.switch("--follow");
    let poll_ms: u64 = match args.value("--poll-ms") {
        None => 200,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--poll-ms expects milliseconds, got {v:?}"))?,
    };
    let idle_ms: u64 = match args.value("--idle-ms") {
        None => 5_000,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--idle-ms expects milliseconds, got {v:?}"))?,
    };
    if follow && source.as_str() == "-" {
        return Err("--follow applies to files; stdin is already tailed until EOF".into());
    }

    let mut client = remote_client(args)?;
    let old_hash = remote_trace_arg(&mut client, old)?;
    client
        .watch_start(old_hash, max_seqs as u64)
        .map_err(|e| format!("cannot start watch: {e}"))?;

    // Deliver one chunk and render the provisional events it produced.
    let push = |client: &mut rprism_server::Client, bytes: Vec<u8>| -> Result<(), String> {
        let events = client
            .watch_chunk(bytes)
            .map_err(|e| format!("watch failed: {e}"))?;
        if !quiet {
            print_watch_events(&events);
        }
        Ok(())
    };

    if source.as_str() == "-" {
        let mut stdin = std::io::stdin().lock();
        loop {
            let mut buf = vec![0u8; WATCH_CHUNK];
            let n = std::io::Read::read(&mut stdin, &mut buf)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            if n == 0 {
                break;
            }
            buf.truncate(n);
            push(&mut client, buf)?;
        }
    } else {
        let mut file =
            std::fs::File::open(source).map_err(|e| format!("cannot open {source}: {e}"))?;
        let poll = std::time::Duration::from_millis(poll_ms.max(1));
        let mut idled = std::time::Duration::ZERO;
        loop {
            let mut buf = vec![0u8; WATCH_CHUNK];
            let n = std::io::Read::read(&mut file, &mut buf)
                .map_err(|e| format!("cannot read {source}: {e}"))?;
            if n > 0 {
                buf.truncate(n);
                push(&mut client, buf)?;
                idled = std::time::Duration::ZERO;
                continue;
            }
            // At end-of-file. Keep tailing under --follow until the file has
            // stopped growing for --idle-ms; otherwise the trace is complete.
            if !follow || idled.as_millis() >= u128::from(idle_ms) {
                break;
            }
            std::thread::sleep(poll);
            idled += poll;
        }
    }

    let (events, diff) = client
        .watch_finish(Vec::new())
        .map_err(|e| format!("watch failed: {e}"))?;
    if !quiet {
        print_watch_events(&events);
    }
    // Same summary shape as `remote diff`, so at end of input the verdict is
    // byte-identical to diffing the finished pair.
    println!(
        "{} vs {}: {} differences in {} sequences ({} similar entries, {} compare ops, {})",
        old,
        source,
        diff.num_differences,
        diff.num_sequences(),
        diff.pairs.len(),
        diff.compare_ops,
        diff.algorithm,
    );
    if !quiet {
        print!("{}", diff.rendered);
    }
    Ok(())
}

/// Renders the provisional events of one watch batch, one `~`-prefixed line each,
/// so live progress is visually distinct from the final report.
fn print_watch_events(events: &[rprism_server::WireWatchEvent]) {
    for event in events {
        match event {
            rprism_server::WireWatchEvent::Match { left, right } => {
                println!("~ match    seq {left} = seq {right}");
            }
            rprism_server::WireWatchEvent::Invalidate { left, right } => {
                println!("~ retract  seq {left} = seq {right}");
            }
            rprism_server::WireWatchEvent::Difference { left, right } => {
                println!(
                    "~ diverge  {} left / {} right sequence(s) provisionally unmatched",
                    left.len(),
                    right.len()
                );
            }
        }
    }
}

fn remote_analyze(args: &Args) -> Result<(), String> {
    args.reject_unknown(&[
        "--addr",
        "--max-frame-bytes",
        "--timeout",
        "--retries",
        "--mode",
        "--max-seqs",
        "--algorithm",
    ])?;
    let [or, nr, op, np] = args.positional.as_slice() else {
        return Err("remote analyze expects four traces \
             (old-regressing new-regressing old-passing new-passing)"
            .into());
    };
    let mode = match args.value("--mode") {
        None => None,
        Some("intersect") => Some(AnalysisMode::Intersect),
        Some("subtract") => Some(AnalysisMode::SubtractRegressionSet),
        Some(other) => {
            return Err(format!(
                "unknown analysis mode {other:?} (expected `intersect` or `subtract`)"
            ))
        }
    };
    let algorithm = parse_wire_algorithm(args)?;
    let mut client = remote_client(args)?;
    let mut hashes = [0u64; 4];
    for (slot, arg) in hashes.iter_mut().zip([or, nr, op, np]) {
        *slot = remote_trace_arg(&mut client, arg)?;
    }
    let report = client
        .analyze_with_algorithm(hashes, mode, args.max_seqs()? as u64, algorithm)
        .map_err(|e| format!("remote analysis failed: {e}"))?;
    let regression_sequences = report.verdicts().iter().filter(|&&v| v).count();
    println!("analysis of {or} vs {nr} (expected {op} / {np}):");
    println!(
        "  suspected {} / expected {} / regression {} -> {} candidate causes, \
         {} regression sequences ({:?} mode, {} compare ops)",
        report.suspected.len(),
        report.expected.len(),
        report.regression.len(),
        report.candidates.len(),
        regression_sequences,
        report.mode,
        report.compare_ops,
    );
    print!("{}", report.rendered);
    Ok(())
}

fn remote_stats(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--addr", "--max-frame-bytes", "--timeout", "--retries"])?;
    let mut client = remote_client(args)?;
    let stats = client.stats().map_err(|e| e.to_string())?;
    println!(
        "repository: {} blob(s), {} bytes on disk",
        stats.blobs, stats.blob_bytes
    );
    println!(
        "prepared cache: {} handle(s), {} / {} bytes, {} hit(s), {} miss(es), {} eviction(s)",
        stats.prepared_cached,
        stats.prepared_cached_bytes,
        stats.cache_budget_bytes,
        stats.prepared_hits,
        stats.prepared_misses,
        stats.evictions
    );
    println!(
        "uploads deduplicated: {}; requests served: {}",
        stats.dedup_hits, stats.requests_served
    );
    println!(
        "resilience: {} orphaned staging file(s) removed at startup, {} blob(s) \
         quarantined, {} overload cache shrink(s)",
        stats.orphans_removed, stats.quarantined, stats.cache_shrinks
    );
    println!(
        "engine: {} correlation build(s), {} pair(s) cached",
        stats.correlation_builds, stats.cached_correlations
    );
    Ok(())
}

fn remote_metrics(args: &Args) -> Result<(), String> {
    args.reject_unknown(&[
        "--addr",
        "--max-frame-bytes",
        "--timeout",
        "--retries",
        "--watch",
        "--interval-ms",
    ])?;
    if !args.positional.is_empty() {
        return Err("remote metrics takes no positional arguments".into());
    }
    let watch = args.switch("--watch");
    let interval_ms: u64 = match args.value("--interval-ms") {
        None => 2_000,
        Some(v) => v
            .parse()
            .map_err(|_| format!("--interval-ms expects milliseconds, got {v:?}"))?,
    };
    let mut client = remote_client(args)?;
    loop {
        let text = client.metrics().map_err(|e| e.to_string())?;
        print!("{text}");
        // This client's own counters (retries, Busy backoffs, deadline expiries)
        // live process-locally, not on the server — append them so one scrape
        // shows both sides of the conversation.
        let mine = rprism_obs::global()
            .snapshot()
            .retain_prefix("client.")
            .render_prometheus("rprism");
        print!("{mine}");
        if !watch {
            return Ok(());
        }
        println!("--- re-scraping in {interval_ms} ms ---");
        std::thread::sleep(std::time::Duration::from_millis(interval_ms.max(1)));
    }
}

fn remote_obs_trace(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--addr", "--max-frame-bytes", "--timeout", "--retries"])?;
    let [out] = args.positional.as_slice() else {
        return Err("remote obs-trace expects one output file".into());
    };
    let mut client = remote_client(args)?;
    let bytes = client.obs_trace().map_err(|e| e.to_string())?;
    let summary = rprism_format::content_summary(&bytes[..])
        .map_err(|e| format!("server sent an undecodable self-trace: {e}"))?;
    std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {out} ({} entries, {} bytes) — analyze it like any trace, e.g. \
         `rprism check {out}`",
        summary.entries,
        bytes.len()
    );
    Ok(())
}

fn remote_shutdown(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--addr", "--max-frame-bytes", "--timeout", "--retries"])?;
    let mut client = remote_client(args)?;
    client.shutdown().map_err(|e| e.to_string())?;
    println!("server shutting down (in-flight requests drain first)");
    Ok(())
}

fn corpus(args: &Args) -> Result<(), String> {
    args.reject_unknown(&["--dir", "--check"])?;
    let dir = args.value("--dir").ok_or("corpus expects --dir <dir>")?;
    if args.switch("--check") {
        let drifted = rprism_workloads::check_corpus(dir).map_err(|e| e.to_string())?;
        if drifted.is_empty() {
            println!("corpus in {dir} matches the workloads (no drift)");
            Ok(())
        } else {
            Err(format!(
                "corpus drift in {dir}: {} file(s) differ from the regenerated \
                 workload traces: {}",
                drifted.len(),
                drifted.join(", ")
            ))
        }
    } else {
        let names = rprism_workloads::write_corpus(dir).map_err(|e| e.to_string())?;
        println!("wrote {} corpus files to {dir}", names.len());
        Ok(())
    }
}
