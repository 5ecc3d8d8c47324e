//! Remote ≡ local equivalence: on all four §5.2 case studies, under both on-disk
//! encodings, `remote diff` and `remote analyze` through the `rprism-server` daemon
//! produce exactly the matchings, difference sequences, `DiffSignature` sets and
//! sequence verdicts a local `Engine` computes over the same trace files — the wire
//! protocol, the content-addressed repository and the shared server engine add
//! nothing and lose nothing.

use std::time::Duration;

use rprism::{Encoding, Engine, PreparedTrace, RegressionInput};
use rprism_server::proto::WireReport;
use rprism_server::{Client, Server, ServerConfig};
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
                    &WireReport::set_local(wire),
                    local_set,
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
