//! # rprism-check
//!
//! Semantics-aware static analysis over execution traces: the trace model of
//! *Semantics-Aware Trace Analysis* (PLDI 2009) carries enough structure — call/return
//! nesting, thread forks with parentage snapshots, object identities with per-class
//! creation sequences (§2.2–§2.3, §3.1) — that a single streaming pass can answer "is
//! this trace internally consistent?" before (or instead of) a full differencing run.
//!
//! Two rule families (see [`rules`] for the registry):
//!
//! * **well-formedness** — per-thread call/return balance and context consistency,
//!   define-before-use and no-use-after-death of object identities, fork/end
//!   discipline, stack-snapshot consistency against the reconstructed call stack;
//! * **concurrency** — a vector-clock happens-before construction over program order
//!   plus fork edges, flagging conflicting same-field accesses that no edge orders
//!   (a lightweight race detector in the FastTrack tradition, scoped to the trace
//!   model).
//!
//! The engine ([`Checker`]) is a streaming fold: feed it entries one at a time and its
//! state stays O(threads + live objects) — it never materializes the trace. Reports
//! ([`CheckReport`]) are deterministic (diagnostics sorted by `(entry_index, rule_id)`,
//! renderers free of paths and timestamps), so checking the same bytes locally and on a
//! trace server produces byte-identical output.
//!
//! ```
//! use rprism_check::{check_trace, fixtures};
//!
//! // A well-formed trace checks clean …
//! assert!(check_trace(&fixtures::clean_trace()).is_clean());
//!
//! // … and a trace with a seeded race is flagged by the happens-before detector.
//! let report = check_trace(&fixtures::violating("data-race"));
//! assert_eq!(report.diagnostics.len(), 1);
//! assert_eq!(report.diagnostics[0].rule_id, "data-race");
//! ```

pub mod checker;
pub mod diag;
pub mod fixtures;
pub mod rules;

pub use checker::{check_trace, check_trace_with, CheckConfig, Checker};
pub use diag::{CheckReport, Diagnostic, ParseSeverityError, Severity};
pub use rules::{rule, RuleFamily, RuleInfo, RULES};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_are_deterministic_across_runs() {
        let trace = fixtures::violating("data-race");
        let a = check_trace(&trace);
        let b = check_trace(&trace);
        assert_eq!(a, b);
        assert_eq!(a.render_human(), b.render_human());
        assert_eq!(a.render_json(), b.render_json());
    }

    #[test]
    fn severity_overrides_apply() {
        let config = CheckConfig::default()
            .with_severity("unclosed-call", Severity::Error)
            .unwrap();
        let report = check_trace_with(&fixtures::violating("unclosed-call"), config);
        assert_eq!(report.diagnostics[0].severity, Severity::Error);
        assert!(CheckConfig::default()
            .with_severity("no-such-rule", Severity::Info)
            .is_err());
    }

    #[test]
    fn the_diagnostic_cap_bounds_memory_and_counts_suppressions() {
        let mut config = CheckConfig::default();
        config.max_diagnostics = 1;
        // Two independent defects: an undefined object and a second undefined object.
        use rprism_lang::{FieldName, MethodName};
        use rprism_trace::{CreationSeq, EntryId, Event, Loc, ObjRep, ThreadId, Trace, TraceEntry};
        let mut trace = Trace::named("cap");
        for seq in 0..3u64 {
            trace.push(TraceEntry::new(
                EntryId(0),
                ThreadId(0),
                MethodName::toplevel(),
                ObjRep::null(),
                Event::Get {
                    target: ObjRep::opaque_object(Loc(9 + seq), "Ghost", CreationSeq(seq)),
                    field: FieldName::new("f"),
                    value: ObjRep::prim("Int", "1"),
                },
            ));
        }
        let report = check_trace_with(&trace, config);
        assert_eq!(report.diagnostics.len(), 1);
        assert!(report.suppressed >= 2, "suppressed: {}", report.suppressed);
        assert!(!report.is_clean());
    }

    #[test]
    fn worst_and_deny_counting() {
        let report = check_trace(&fixtures::violating("unclosed-call"));
        assert_eq!(report.worst(), Some(Severity::Info));
        assert_eq!(report.count_at_least(Severity::Warning), 0);
        assert_eq!(report.count_at_least(Severity::Info), 1);
    }
}
