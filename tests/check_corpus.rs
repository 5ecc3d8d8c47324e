//! The checker against the real corpus: zero false positives on every committed golden
//! fixture and every case-study role, single-rule trips on targeted mutations, and
//! deterministic reports regardless of how the entries are delivered.

use rprism_check::{check_trace, CheckConfig, Checker, Severity};
use rprism_format::TraceReader;
use rprism_trace::{EntryBatch, EntryId, Event, ThreadId, Trace, TraceEntry};
use rprism_workloads::casestudies;
use rprism_workloads::corpus::corpus_files;

/// Streams serialized bytes through the checker the way the engine does (no
/// materialized `Trace`), returning the finished report.
fn check_bytes(bytes: &[u8]) -> rprism_check::CheckReport {
    let mut reader = TraceReader::new(std::io::BufReader::new(bytes)).unwrap();
    let mut checker = Checker::new();
    let mut batch = EntryBatch::new();
    while reader.read_refs(&mut batch, 256).unwrap() > 0 {
        batch.iter().for_each(|entry| checker.observe(entry));
    }
    let mut report = checker.finish();
    report.trace_name = reader.meta().name.clone();
    report
}

/// Every committed corpus fixture checks clean at the warning threshold: the only
/// diagnostic anywhere is the aborted-run info on derby's new-regressing trace.
#[test]
fn all_sixteen_corpus_fixtures_lint_clean() {
    let files = corpus_files().unwrap();
    assert_eq!(files.len(), 16);
    for file in &files {
        let report = check_bytes(&file.bytes);
        assert_eq!(
            report.count_at_least(Severity::Warning),
            0,
            "{} has diagnostics at warning or above: {:#?}",
            file.name,
            report.diagnostics
        );
        for diag in &report.diagnostics {
            assert_eq!(
                diag.rule_id, "unclosed-call",
                "{}: unexpected info diagnostic {:#?}",
                file.name, diag
            );
            assert!(
                file.name.starts_with("derby-1633.new-regressing"),
                "{}: unexpected aborted-run info {:#?}",
                file.name,
                diag
            );
        }
    }
}

/// All four case studies, all four roles: the passing and regressing runs of both
/// versions are well-formed. The aborted derby compilation keeps its open calls as an
/// info-level note, everything else is fully clean.
#[test]
fn all_case_study_roles_check_clean() {
    for scenario in casestudies::all() {
        let traces = scenario.trace_all().unwrap();
        let roles = [
            ("old-regressing", &traces.traces.old_regressing),
            ("new-regressing", &traces.traces.new_regressing),
            ("old-passing", &traces.traces.old_passing),
            ("new-passing", &traces.traces.new_passing),
        ];
        for (role, handle) in roles {
            let report = check_trace(handle.trace());
            assert_eq!(
                report.count_at_least(Severity::Warning),
                0,
                "{}/{role}: {:#?}",
                scenario.name,
                report.diagnostics
            );
            let aborted = scenario.name == "derby-1633" && role == "new-regressing";
            if aborted {
                assert!(
                    report.by_rule("unclosed-call").count() == 1,
                    "{}/{role}: expected one aborted-run note, got {:#?}",
                    scenario.name,
                    report.diagnostics
                );
            } else {
                assert!(
                    report.is_clean(),
                    "{}/{role}: {:#?}",
                    scenario.name,
                    report.diagnostics
                );
            }
        }
    }
}

/// Rebuilds a trace with positional entry ids after a structural mutation.
fn rebuild(name: &str, entries: Vec<TraceEntry>) -> Trace {
    let mut out = Trace::named(name);
    for entry in entries {
        out.push(entry);
    }
    out
}

fn daikon_trace() -> Trace {
    let scenario = casestudies::all()
        .into_iter()
        .find(|s| s.name == "daikon")
        .unwrap();
    let traces = scenario.trace_all().unwrap();
    traces.traces.old_regressing.trace().clone()
}

fn derby_trace() -> Trace {
    let scenario = casestudies::all()
        .into_iter()
        .find(|s| s.name == "derby-1633")
        .unwrap();
    let traces = scenario.trace_all().unwrap();
    traces.traces.old_regressing.trace().clone()
}

/// Mutation: dropping a thread's final return leaves exactly one open call at its end
/// event — the unclosed-call rule, and nothing else.
#[test]
fn mutation_dropped_return_trips_only_unclosed_call() {
    let trace = daikon_trace();
    let last_return = trace
        .entries
        .iter()
        .rposition(|e| matches!(e.event, Event::Return { .. }) && e.tid == ThreadId::MAIN)
        .expect("daikon main thread has returns");
    let mut entries = trace.entries.clone();
    entries.remove(last_return);
    let report = check_trace(&rebuild("mutated/dropped-return", entries));
    assert!(!report.diagnostics.is_empty());
    for diag in &report.diagnostics {
        assert_eq!(diag.rule_id, "unclosed-call", "{:#?}", report.diagnostics);
    }
}

/// Mutation: moving a fork after its child's first entry makes the child an orphan —
/// the orphan-thread rule, and nothing else.
#[test]
fn mutation_reordered_fork_trips_only_orphan_thread() {
    let trace = derby_trace();
    let fork_idx = trace
        .entries
        .iter()
        .position(|e| matches!(e.event, Event::Fork { child, .. } if child == ThreadId(1)))
        .expect("derby forks thread 1");
    let first_child_idx = trace
        .entries
        .iter()
        .position(|e| e.tid == ThreadId(1))
        .expect("thread 1 emits entries");
    assert!(fork_idx < first_child_idx);
    let mut entries = trace.entries.clone();
    let fork = entries.remove(fork_idx);
    // Re-insert the fork right after the child's first entry (index shifted by the
    // removal).
    entries.insert(first_child_idx, fork);
    let report = check_trace(&rebuild("mutated/reordered-fork", entries));
    assert_eq!(
        report.by_rule("orphan-thread").count(),
        1,
        "{:#?}",
        report.diagnostics
    );
    for diag in &report.diagnostics {
        assert_eq!(diag.rule_id, "orphan-thread", "{:#?}", report.diagnostics);
    }
}

/// Mutation: retargeting a field access at a never-created object identity dangles the
/// reference — the define-before-use rule, and nothing else.
#[test]
fn mutation_dangled_object_trips_only_define_before_use() {
    let trace = daikon_trace();
    let mut entries = trace.entries.clone();
    let get_idx = entries
        .iter()
        .position(|e| matches!(e.event, Event::Get { .. }))
        .expect("daikon has field reads");
    if let Event::Get { target, .. } = &mut entries[get_idx].event {
        target.creation_seq = Some(rprism_trace::CreationSeq(9_999));
    }
    let report = check_trace(&rebuild("mutated/dangled-object", entries));
    assert!(!report.diagnostics.is_empty());
    for diag in &report.diagnostics {
        assert_eq!(
            diag.rule_id, "define-before-use",
            "{:#?}",
            report.diagnostics
        );
    }
}

/// Delivery-shape independence: feeding the same serialized trace entry-by-entry, in
/// large batches, or as a materialized `Trace` produces identical reports (the
/// determinism contract behind `remote check` ≡ local `check`).
#[test]
fn reports_are_independent_of_delivery_granularity() {
    let file = corpus_files()
        .unwrap()
        .into_iter()
        .find(|f| f.name == "derby-1633.new-regressing.rtr")
        .unwrap();
    let streamed = check_bytes(&file.bytes);

    let mut reader = TraceReader::new(std::io::BufReader::new(file.bytes.as_slice())).unwrap();
    let mut one_by_one = Checker::with_config(CheckConfig::default());
    while let Some(entry) = reader.next_entry().unwrap() {
        one_by_one.observe(EntryBatch::of(&[entry]).get(0));
    }
    let mut single = one_by_one.finish();
    single.trace_name = reader.meta().name.clone();

    let full = {
        let trace = rprism_format::trace_from_bytes(&file.bytes).unwrap();
        check_trace(&trace)
    };

    assert_eq!(streamed, single);
    assert_eq!(streamed, full);
    assert_eq!(streamed.render_human(), full.render_human());
    assert_eq!(streamed.render_json(), full.render_json());
}

/// Entry-id sanity on a corpus trace survives a round-trip but trips after tampering —
/// guards the eid mutation path used by the format tests.
#[test]
fn tampered_entry_ids_are_detected() {
    let mut trace = daikon_trace();
    trace.entries[3].eid = EntryId(77);
    let report = check_trace(&trace);
    assert_eq!(report.by_rule("entry-id-order").count(), 1);
}
