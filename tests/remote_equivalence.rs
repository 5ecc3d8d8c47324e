//! Remote ≡ local equivalence: on all four §5.2 case studies, under both on-disk
//! encodings, `remote diff` and `remote analyze` through the `rprism-server` daemon
//! produce exactly the matchings, difference sequences, `DiffSignature` sets and
//! sequence verdicts a local `Engine` computes over the same trace files — the wire
//! protocol, the content-addressed repository and the shared server engine add
//! nothing and lose nothing.
//!
//! A second, seeded case runs `remote analyze` on generated quadruples — every
//! `GenProfile` at 40 and 300 entries, a base trace plus mutated copies, under both
//! analysis modes — against a local `Engine::analyze`: the four sets, every verdict,
//! the compare count and the rendered report apart from its timing line. The generator
//! is seeded from the clock and the seed is printed; `RPRISM_FUZZ_SEED=<n>` replays a
//! run.

use std::time::Duration;

use rprism::{AnalysisMode, Encoding, Engine, PreparedTrace, RegressionInput, RenderOptions};
use rprism_format::trace_to_bytes;
use rprism_server::{Client, Server, ServerConfig};
use rprism_trace::testgen::{fuzz_seed, mutated, GenProfile, Rng};
use rprism_workloads::casestudies;

const TIMEOUT: Duration = Duration::from_secs(120);

#[test]
fn remote_diff_and_analyze_match_the_local_engine_on_all_case_studies() {
    let dir = std::env::temp_dir().join(format!("rprism-remote-eq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let repo = dir.join("repo");
    std::fs::create_dir_all(&repo).unwrap();

    let server = Server::bind(ServerConfig::new("127.0.0.1:0", &repo)).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let running = std::thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect(&addr, TIMEOUT).unwrap();

    // One local session across the whole test, mirroring the server's one engine.
    let engine = Engine::new();

    for encoding in [Encoding::Binary, Encoding::Jsonl] {
        let export_dir = dir.join(format!("traces-{encoding}"));
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
                remote.sequences_local(),
                local_diff.sequences,
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
            let local_verdicts: Vec<bool> = local_report
                .sequences
                .iter()
                .map(|v| v.regression_related)
                .collect();
            assert_eq!(
                remote_report.verdicts(),
                local_verdicts,
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

    client.shutdown().unwrap();
    running.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
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
    let dir = std::env::temp_dir().join(format!("rprism-remote-gen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = Server::bind(ServerConfig::new("127.0.0.1:0", &dir)).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let running = std::thread::spawn(move || server.run().unwrap());
    let mut client = Client::connect(&addr, TIMEOUT).unwrap();
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
                let verdicts: Vec<bool> = report
                    .sequences
                    .iter()
                    .map(|v| v.regression_related)
                    .collect();
                assert_eq!(remote.verdicts(), verdicts, "{context}: verdicts");
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

    client.shutdown().unwrap();
    running.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
