//! End-to-end equivalence of the streaming prepare pipeline: on all four §5.2 case
//! studies, handles produced by `Engine::load_prepared_reader` (one bounded-memory pass,
//! no materialized trace) are indistinguishable from load-then-prepare handles — same
//! matchings, same difference sequences, same `DiffSignature` sets, same deterministic
//! compare counts — for plain diffs and for the full regression-cause analysis, under
//! both on-disk encodings, with the diff fan-outs forced on and with everything inline.

use rprism::format::read_trace_path;
use rprism::{Encoding, Engine, PreparedTrace, RegressionInput};
use rprism_trace::par;
use rprism_workloads::casestudies;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rprism-stream-eq-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn streamed_handles_match_load_then_prepare_on_all_case_studies() {
    for encoding in [Encoding::Binary, Encoding::Jsonl] {
        let dir = temp_dir(&encoding.to_string());
        for workers in [4, 1] {
            let engine = Engine::new();
            for scenario in casestudies::all() {
                // Forcing the worker count runs every fan-out (4) or everything inline
                // (1), whatever the host's core count.
                par::with_workers(workers, || {
                    let traces = scenario.trace_all().unwrap();
                    let paths = traces.export(&dir, &scenario.name, encoding).unwrap();

                    let full: Vec<PreparedTrace> = paths
                        .iter()
                        .map(|p| PreparedTrace::new(read_trace_path(p).unwrap()))
                        .collect();
                    let streamed: Vec<PreparedTrace> = paths
                        .iter()
                        .map(|p| {
                            engine
                                .load_prepared_reader(std::fs::File::open(p).unwrap())
                                .unwrap()
                        })
                        .collect();
                    for (f, s) in full.iter().zip(&streamed) {
                        assert!(s.is_streamed());
                        assert_eq!(f.len(), s.len());
                        assert_eq!(f.meta(), s.meta());
                    }

                    // Plain diff of the suspected pair.
                    let full_diff = engine.diff(&full[0], &full[1]).unwrap();
                    let streamed_diff = engine.diff(&streamed[0], &streamed[1]).unwrap();
                    assert_eq!(
                        full_diff.matching.normalized_pairs(),
                        streamed_diff.matching.normalized_pairs(),
                        "{} ({encoding}, workers={workers}): matchings diverged",
                        scenario.name
                    );
                    assert_eq!(
                        full_diff.sequences, streamed_diff.sequences,
                        "{} ({encoding}, workers={workers}): sequences diverged",
                        scenario.name
                    );
                    assert_eq!(
                        full_diff.cost.compare_ops, streamed_diff.cost.compare_ops,
                        "{} ({encoding}, workers={workers}): compare counts diverged",
                        scenario.name
                    );

                    // Full regression-cause analysis over all four roles: identical
                    // difference-signature sets (A, B, C, D), verdicts and costs.
                    let as_input = |handles: &[PreparedTrace]| {
                        RegressionInput::new(
                            handles[0].clone(),
                            handles[1].clone(),
                            handles[2].clone(),
                            handles[3].clone(),
                        )
                        .with_mode(scenario.analysis_mode())
                    };
                    let full_report = engine.analyze(&as_input(&full)).unwrap();
                    let streamed_report = engine.analyze(&as_input(&streamed)).unwrap();
                    assert_eq!(
                        full_report.suspected, streamed_report.suspected,
                        "{} ({encoding}, workers={workers}): suspected sets diverged",
                        scenario.name
                    );
                    assert_eq!(full_report.expected, streamed_report.expected);
                    assert_eq!(full_report.regression, streamed_report.regression);
                    assert_eq!(
                        full_report.candidates, streamed_report.candidates,
                        "{} ({encoding}, workers={workers}): candidate causes diverged",
                        scenario.name
                    );
                    assert_eq!(full_report.compare_ops, streamed_report.compare_ops);
                    assert_eq!(
                        full_report.verdicts, streamed_report.verdicts,
                        "{} ({encoding}, workers={workers}): sequence verdicts diverged",
                        scenario.name
                    );

                    // Reports remain renderable without the full traces.
                    let rendered = engine.render_report(&streamed_report, &as_input(&streamed));
                    assert!(rendered.contains("|A| suspected"));
                });
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
