//! Remote ≡ local equivalence: on all four §5.2 case studies, under both on-disk
//! encodings, `remote diff` and `remote analyze` through the `rprism-server` daemon
//! produce exactly the matchings, difference sequences, `DiffSignature` sets and
//! sequence verdicts a local `Engine` computes over the same trace files — the wire
//! protocol, the content-addressed repository and the shared server engine add
//! nothing and lose nothing.
//!
//! Two seeded cases run on generated traces — every `GenProfile` at 40 and 300
//! entries. One runs `remote analyze` on quadruples of a base trace plus mutated
//! copies, under both analysis modes, against a local `Engine::analyze`: the four
//! sets, every verdict, the compare count and the rendered report apart from its
//! timing line. The other runs `remote diff` under each diff family on a base trace
//! against a mutated copy and against an independent trace, against a local
//! `Engine::diff` (pairs, sequences, compare count, difference count and rendering),
//! and `remote check` of each trace against a local `check_reader` — once under the
//! default rules and once under a seeded random set of severity overrides, against
//! `check_reader_with`. The generator is seeded from the clock and the seed is
//! printed; `RPRISM_FUZZ_SEED=<n>` replays a run.

use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Duration;

use rprism::check::RULES;
use rprism::{
    AnalysisMode, AnchoredDiffOptions, CheckConfig, DiffAlgorithm, Encoding, Engine,
    LcsDiffOptions, PreparedTrace, RegressionInput, RenderOptions, Severity, ViewsDiffOptions,
};
use rprism_format::trace_to_bytes;
use rprism_server::{Client, Server, ServerConfig, WireAlgorithm};
use rprism_trace::testgen::{fuzz_seed, mutated, GenProfile, Rng};
use rprism_workloads::casestudies;

const TIMEOUT: Duration = Duration::from_secs(120);

/// A daemon over a fresh repository in a temporary directory, and a client of it.
struct Daemon {
    dir: PathBuf,
    running: JoinHandle<()>,
    client: Client,
}

impl Daemon {
    fn start(tag: &str) -> Daemon {
        let dir = std::env::temp_dir().join(format!("rprism-remote-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let server = Server::bind(ServerConfig::new("127.0.0.1:0", &dir)).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let running = std::thread::spawn(move || server.run().unwrap());
        let client = Client::connect(&addr, TIMEOUT).unwrap();
        Daemon {
            dir,
            running,
            client,
        }
    }

    fn stop(mut self) {
        self.client.shutdown().unwrap();
        self.running.join().unwrap();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

#[test]
fn remote_diff_and_analyze_match_the_local_engine_on_all_case_studies() {
    let mut daemon = Daemon::start("eq");
    let client = &mut daemon.client;

    // One local session across the whole test, mirroring the server's one engine.
    let engine = Engine::new();

    for encoding in [Encoding::Binary, Encoding::Jsonl] {
        // The repository scanned its directory when it opened; exports beside its
        // blobs are not part of it.
        let export_dir = daemon.dir.join(format!("traces-{encoding}"));
        std::fs::create_dir_all(&export_dir).unwrap();
        for scenario in casestudies::all() {
            let traces = scenario.trace_all().unwrap();
            let paths = traces
                .export(&export_dir, &scenario.name, encoding)
                .unwrap();

            // Upload the four roles; the binary pass stores them, the JSONL pass must
            // deduplicate against the binary blobs (same content, other encoding).
            let mut hashes = [0u64; 4];
            for (slot, path) in hashes.iter_mut().zip(&paths) {
                let put = client.put_path(path).unwrap();
                *slot = put.hash;
                if encoding == Encoding::Jsonl {
                    assert!(
                        put.deduped,
                        "{}: JSONL upload must deduplicate against the binary blob",
                        scenario.name
                    );
                }
            }

            // The same files through the local streaming-ingest path.
            let local: Vec<PreparedTrace> = paths
                .iter()
                .map(|p| {
                    engine
                        .load_prepared_reader(std::fs::File::open(p).unwrap())
                        .unwrap()
                })
                .collect();

            // --- diff of the suspected pair -------------------------------------
            let remote = client.diff(hashes[0], hashes[1], 3).unwrap();
            let local_diff = engine.diff(&local[0], &local[1]).unwrap();
            assert_eq!(
                remote.pairs_local(),
                local_diff.matching.normalized_pairs(),
                "{} ({encoding}): remote matching diverged",
                scenario.name
            );
            assert_eq!(
                remote.sequences, local_diff.sequences,
                "{} ({encoding}): remote difference sequences diverged",
                scenario.name
            );
            assert_eq!(remote.compare_ops, local_diff.cost.compare_ops);
            assert_eq!(
                remote.num_differences as usize,
                local_diff.num_differences()
            );
            assert_eq!(remote.left_len as usize, local[0].len());

            // --- full regression-cause analysis ---------------------------------
            let mode = scenario.analysis_mode();
            let remote_report = client.analyze(hashes, Some(mode), 3).unwrap();
            let input = RegressionInput::new(
                local[0].clone(),
                local[1].clone(),
                local[2].clone(),
                local[3].clone(),
            )
            .with_mode(mode);
            let local_report = engine.analyze(&input).unwrap();

            assert_eq!(remote_report.mode, local_report.mode);
            for (wire, local_set, which) in [
                (&remote_report.suspected, &local_report.suspected, "A"),
                (&remote_report.expected, &local_report.expected, "B"),
                (&remote_report.regression, &local_report.regression, "C"),
                (&remote_report.candidates, &local_report.candidates, "D"),
            ] {
                assert_eq!(
                    wire.as_slice(),
                    local_set.as_slice(),
                    "{} ({encoding}): DiffSignature set {which} diverged",
                    scenario.name
                );
            }
            assert_eq!(
                remote_report.verdicts(),
                local_report.verdicts,
                "{} ({encoding}): sequence verdicts diverged",
                scenario.name
            );
            assert_eq!(remote_report.compare_ops, local_report.compare_ops);
        }
    }

    // Eight traces, each uploaded twice (once per encoding): the repository must hold
    // each exactly once.
    let stats = client.stats().unwrap();
    assert_eq!(stats.blobs, 16, "4 scenarios x 4 roles, deduplicated");
    assert_eq!(stats.dedup_hits, 16);
    daemon.stop();
}

/// A rendered report without its timing line, which differs run to run.
fn untimed(rendered: &str) -> String {
    (rendered.lines())
        .filter(|line| !line.starts_with("  analysis: "))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn remote_analyze_matches_the_local_engine_on_generated_quadruples() {
    const MAX_SEQUENCES: u64 = 5;
    let mut daemon = Daemon::start("gen");
    let client = &mut daemon.client;
    let engine = Engine::builder()
        .render_options(RenderOptions {
            max_regression_sequences: MAX_SEQUENCES as usize,
            ..RenderOptions::default()
        })
        .build();

    let mut rng = Rng::new(fuzz_seed() ^ 0x4e70_7e00);
    for &profile in GenProfile::ALL {
        for entries in [40, 300] {
            let base = profile.generate(&mut rng, entries);
            let other = mutated(&mut rng, &base);
            let quad = [
                mutated(&mut rng, &base),
                mutated(&mut rng, &other),
                base,
                other,
            ];
            let mut hashes = [0u64; 4];
            let mut local = Vec::new();
            for (slot, trace) in hashes.iter_mut().zip(&quad) {
                let bytes = trace_to_bytes(trace, Encoding::Binary).unwrap();
                local.push(engine.load_prepared_reader(bytes.as_slice()).unwrap());
                *slot = client.put_bytes(bytes).unwrap().hash;
            }
            for mode in [AnalysisMode::Intersect, AnalysisMode::SubtractRegressionSet] {
                let context = format!("{profile}-{entries} {mode:?}");
                let remote = client.analyze(hashes, Some(mode), MAX_SEQUENCES).unwrap();
                let input = RegressionInput::new(
                    local[0].clone(),
                    local[1].clone(),
                    local[2].clone(),
                    local[3].clone(),
                )
                .with_mode(mode);
                let report = engine.analyze(&input).unwrap();
                for (wire, local_set, which) in [
                    (&remote.suspected, &report.suspected, "A"),
                    (&remote.expected, &report.expected, "B"),
                    (&remote.regression, &report.regression, "C"),
                    (&remote.candidates, &report.candidates, "D"),
                ] {
                    assert_eq!(
                        wire.as_slice(),
                        local_set.as_slice(),
                        "{context}: set {which}"
                    );
                }
                assert_eq!(remote.verdicts(), report.verdicts, "{context}: verdicts");
                assert_eq!(
                    remote.compare_ops, report.compare_ops,
                    "{context}: compare ops"
                );
                assert_eq!(
                    untimed(&remote.rendered),
                    untimed(&engine.render_report(&report, &input)),
                    "{context}: rendered report"
                );
            }
        }
    }
    daemon.stop();
}

#[test]
fn remote_diff_and_check_match_the_local_engine_on_generated_traces() {
    const MAX_SEQUENCES: u64 = 5;
    let mut daemon = Daemon::start("gen-diff");
    let client = &mut daemon.client;
    let engine = Engine::new();

    let seed = fuzz_seed();
    let mut rng = Rng::new(seed ^ 0xd1ff_c4ec);
    // Overrides draw from their own stream, so the traces stay those of the seed.
    let mut override_rng = Rng::new(seed ^ 0x5e7e_0c4e);
    for &profile in GenProfile::ALL {
        for entries in [40, 300] {
            let base = profile.generate(&mut rng, entries);
            let traces = [
                mutated(&mut rng, &base),
                profile.generate(&mut rng, entries),
                base,
            ];
            let mut hashes = [0u64; 3];
            let mut local = Vec::new();
            for (slot, trace) in hashes.iter_mut().zip(&traces) {
                let bytes = trace_to_bytes(trace, Encoding::Binary).unwrap();
                local.push(engine.load_prepared_reader(bytes.as_slice()).unwrap());
                let want = engine.check_reader(bytes.as_slice()).unwrap();
                let overrides: Vec<(String, Severity)> = (0..override_rng.usize(1, 5))
                    .map(|_| {
                        let rule = override_rng.pick(RULES).id.to_owned();
                        (rule, *override_rng.pick(&Severity::ALL))
                    })
                    .collect();
                let config = overrides
                    .iter()
                    .try_fold(CheckConfig::default(), |config, (rule, severity)| {
                        config.with_severity(rule, *severity)
                    })
                    .unwrap();
                let want_overridden = engine.check_reader_with(bytes.as_slice(), config).unwrap();
                *slot = client.put_bytes(bytes).unwrap().hash;
                assert_eq!(
                    client.check(*slot, &[]).unwrap(),
                    want,
                    "{profile}-{entries} trace {}: check report",
                    local.len() - 1
                );
                assert_eq!(
                    client.check(*slot, &overrides).unwrap(),
                    want_overridden,
                    "{profile}-{entries} trace {}: check report under {overrides:?}",
                    local.len() - 1
                );
            }
            // The base (last) against its mutated copy and against an independent trace.
            for (other, kind) in [(0, "mutated"), (1, "independent")] {
                for wire in [
                    WireAlgorithm::Views,
                    WireAlgorithm::Lcs,
                    WireAlgorithm::Anchored,
                ] {
                    let algorithm = &match wire {
                        WireAlgorithm::Views => DiffAlgorithm::Views(ViewsDiffOptions::default()),
                        WireAlgorithm::Lcs => DiffAlgorithm::Lcs(LcsDiffOptions::default()),
                        WireAlgorithm::Anchored => {
                            DiffAlgorithm::Anchored(AnchoredDiffOptions::default())
                        }
                    };
                    let context = format!("{profile}-{entries} {kind} {}", algorithm.label());
                    let remote = client
                        .diff_with_algorithm(hashes[2], hashes[other], MAX_SEQUENCES, Some(wire))
                        .unwrap();
                    let (left, right) = (&local[2], &local[other]);
                    let want = engine.diff_with_algorithm(left, right, algorithm).unwrap();
                    let pairs: Vec<(u64, u64)> = (want.matching.normalized_pairs().iter())
                        .map(|&(l, r)| (l as u64, r as u64))
                        .collect();
                    assert_eq!(remote.pairs, pairs, "{context}: pairs");
                    assert_eq!(remote.sequences, want.sequences, "{context}: sequences");
                    assert_eq!(
                        remote.compare_ops, want.cost.compare_ops,
                        "{context}: compare ops"
                    );
                    assert_eq!(
                        remote.num_differences,
                        want.num_differences() as u64,
                        "{context}: differences"
                    );
                    let rendered = want.render_with(
                        MAX_SEQUENCES as usize,
                        |i| left.describe_entry(i),
                        |i| right.describe_entry(i),
                    );
                    assert_eq!(remote.rendered, rendered, "{context}: rendered");
                }
            }
        }
    }
    daemon.stop();
}
