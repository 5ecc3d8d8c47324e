//! Round-trip-then-diff equivalence: serializing traces to disk, loading them back and
//! diffing/analyzing them is indistinguishable from working on the in-memory originals
//! — same matchings, same difference signatures, same deterministic cost-meter compare
//! counts — on all four §5.2 case studies, under both encodings.

use rprism::{Engine, PreparedTrace, RegressionInput};
use rprism_format::{read_trace_path, Encoding};
use rprism_workloads::casestudies;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rprism-rtd-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn loaded_traces_diff_identically_to_originals() {
    for encoding in [Encoding::Binary, Encoding::Jsonl] {
        let dir = temp_dir(&encoding.to_string());
        let engine = Engine::new();
        for scenario in casestudies::all() {
            let traces = scenario.trace_all().unwrap();
            let [old_path, new_path] = traces
                .export_suspected_pair(&dir, &scenario.name, encoding)
                .unwrap();
            let loaded_old = PreparedTrace::new(read_trace_path(&old_path).unwrap());
            let loaded_new = PreparedTrace::new(read_trace_path(&new_path).unwrap());

            let original = engine
                .diff(&traces.traces.old_regressing, &traces.traces.new_regressing)
                .unwrap();
            let loaded = engine.diff(&loaded_old, &loaded_new).unwrap();

            // Same regions: matchings and difference sequences.
            assert_eq!(
                original.matching.normalized_pairs(),
                loaded.matching.normalized_pairs(),
                "{} ({encoding}): matchings diverged",
                scenario.name
            );
            assert_eq!(
                original.sequences, loaded.sequences,
                "{} ({encoding}): difference sequences diverged",
                scenario.name
            );
            // Same signatures: the canonical trace-independent difference identities of
            // the pair's unmatched entries, i.e. the suspected set A of the pair.
            let signatures = |old: &PreparedTrace, new: &PreparedTrace| {
                let input =
                    RegressionInput::new(old.clone(), new.clone(), old.clone(), new.clone());
                engine.analyze(&input).unwrap().suspected
            };
            let original_set =
                signatures(&traces.traces.old_regressing, &traces.traces.new_regressing);
            let loaded_set = signatures(&loaded_old, &loaded_new);
            assert_eq!(
                original_set, loaded_set,
                "{} ({encoding}): DiffSignatures diverged",
                scenario.name
            );
            // Same deterministic cost: the compare-operation count of the diff.
            assert_eq!(
                original.cost.compare_ops, loaded.cost.compare_ops,
                "{} ({encoding}): compare-op counts diverged",
                scenario.name
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn loaded_traces_analyze_identically_to_originals() {
    let dir = temp_dir("analyze");
    let engine = Engine::new();
    for scenario in casestudies::all() {
        let traces = scenario.trace_all().unwrap();
        let paths = traces
            .export(&dir, &scenario.name, Encoding::Binary)
            .unwrap();
        let loaded: Vec<_> = paths
            .iter()
            .map(|p| PreparedTrace::new(read_trace_path(p).unwrap()))
            .collect();
        let loaded_input = RegressionInput::new(
            loaded[0].clone(),
            loaded[1].clone(),
            loaded[2].clone(),
            loaded[3].clone(),
        )
        .with_mode(scenario.analysis_mode());

        let original = engine.analyze(&traces.traces).unwrap();
        let from_disk = engine.analyze(&loaded_input).unwrap();

        assert_eq!(original.suspected, from_disk.suspected, "{}", scenario.name);
        assert_eq!(original.expected, from_disk.expected, "{}", scenario.name);
        assert_eq!(
            original.regression, from_disk.regression,
            "{}",
            scenario.name
        );
        assert_eq!(
            original.candidates, from_disk.candidates,
            "{}",
            scenario.name
        );
        assert_eq!(
            original.compare_ops, from_disk.compare_ops,
            "{}: analysis compare-op counts diverged",
            scenario.name
        );
        assert_eq!(
            (&original.suspected_diff.sequences, &original.verdicts),
            (&from_disk.suspected_diff.sequences, &from_disk.verdicts),
            "{}: sequence verdicts diverged",
            scenario.name
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
