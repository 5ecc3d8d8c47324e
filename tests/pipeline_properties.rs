//! Cross-crate property tests: invariants that must hold for arbitrary generated
//! workloads, connecting the generator, the VM, the view model and the differencers.
//! (Deterministic seeded generation stands in for `proptest`; see
//! `rprism_trace::testgen` for the conventions.)

use rprism::Engine;
use rprism_trace::eq::EventKey;
use rprism_trace::KeyedTrace;
use rprism_views::ViewKind;
use rprism_workloads::{generate_bug, InjectedBug, RhinoConfig};

fn config(seed: u64, script_length: usize) -> RhinoConfig {
    RhinoConfig {
        seed,
        modules: 4,
        script_length,
        max_injection_attempts: 30,
    }
}

/// A small deterministic sweep of generated bugs (seeds whose injection fails to regress
/// are skipped, as under the original proptest generator).
fn bug_cases() -> Vec<InjectedBug> {
    (0..16)
        .filter_map(|seed| generate_bug(&config(seed, 6 + (seed as usize % 10))))
        .collect()
}

/// Tracing is deterministic: the same seed yields byte-identical event sequences.
#[test]
fn tracing_is_deterministic() {
    for bug in bug_cases() {
        let t1 = bug.scenario.trace_all().unwrap();
        let t2 = bug.scenario.trace_all().unwrap();
        let k1: Vec<EventKey> = t1.traces.old_regressing.iter().map(EventKey::of).collect();
        let k2: Vec<EventKey> = t2.traces.old_regressing.iter().map(EventKey::of).collect();
        assert_eq!(k1, k2, "{}", bug.scenario.name);
    }
}

/// Every trace entry belongs to exactly one thread view and one method view, and all
/// view links are navigable back to the base trace.
#[test]
fn view_webs_partition_the_trace() {
    for bug in bug_cases() {
        let prepared = bug.scenario.trace_all().unwrap().traces.old_regressing;
        let trace = prepared.trace();
        let web = prepared.web();

        let thread_total: usize = web
            .views_of_kind(ViewKind::Thread)
            .iter()
            .map(|v| v.len())
            .sum();
        let method_total: usize = web
            .views_of_kind(ViewKind::Method)
            .iter()
            .map(|v| v.len())
            .sum();
        assert_eq!(thread_total, trace.len());
        assert_eq!(method_total, trace.len());

        for idx in 0..trace.len() {
            for id in web.views_of_entry(idx).iter() {
                let view = web.view_by_id(id);
                let pos = view.position_of(idx).expect("entry present in its view");
                assert_eq!(view.entries[pos], idx);
                assert_eq!(web.position_in_view(&view.name, idx), Some(pos));
            }
        }
    }
}

/// The precomputed keyed form of a generated trace agrees with owned `EventKey`
/// canonicalization entry-by-entry.
#[test]
fn keyed_traces_agree_with_eventkeys_on_generated_workloads() {
    for bug in bug_cases().into_iter().take(6) {
        let traces = bug.scenario.trace_all().unwrap().traces;
        let (old, new) = (&traces.old_regressing, &traces.new_regressing);
        let (ko, kn) = (KeyedTrace::build(old), KeyedTrace::build(new));
        for i in 0..old.len().min(120) {
            for j in 0..new.len().min(120) {
                assert_eq!(
                    ko.key_eq(i, &kn, j),
                    EventKey::of(&old[i]) == EventKey::of(&new[j]),
                    "{}: key mismatch at ({i},{j})",
                    bug.scenario.name
                );
            }
        }
    }
}

/// Differencing a trace against itself yields no differences, and differencing the
/// original against the mutated version never reports more differences than entries.
#[test]
fn views_diff_bounds() {
    let engine = Engine::new();
    for bug in bug_cases() {
        let traces = bug.scenario.trace_all().unwrap().traces;

        let self_diff = engine
            .diff(&traces.old_regressing, &traces.old_regressing)
            .unwrap();
        assert_eq!(self_diff.num_differences(), 0, "{}", bug.scenario.name);

        let cross = engine
            .diff(&traces.old_regressing, &traces.new_regressing)
            .unwrap();
        assert!(
            cross.num_differences() <= traces.old_regressing.len() + traces.new_regressing.len()
        );
        assert!(
            cross.num_similar() <= traces.old_regressing.len().max(traces.new_regressing.len())
        );
        // Matched pairs reference valid indices.
        for &(l, r) in cross.matching.normalized_pairs() {
            assert!(l < traces.old_regressing.len());
            assert!(r < traces.new_regressing.len());
        }
    }
}
