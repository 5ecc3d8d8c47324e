//! Object-protocol inference over target-object views.
//!
//! The paper lists object protocol inference among the analyses its views abstraction
//! enables beyond regression analysis (§4: "object protocol inference, property checking
//! (e.g., typestate), impact analysis, and automated debugging"). This module implements
//! the simplest useful form of it: for every class, the *observed protocol* is the set of
//! per-object method-call successions (which method was invoked on an object immediately
//! after which), inferred directly from the class's target-object views. Comparing the
//! protocols of two executions highlights protocol-level behavioural drift — e.g. a new
//! version that starts calling `reset` before `close`, or stops calling `init` first —
//! without looking at any values.

use std::collections::{BTreeMap, BTreeSet};

use rprism_trace::{Event, Trace};

use crate::view::ViewKind;
use crate::web::ViewWeb;

/// The observed call protocol of one class: initial methods, final methods, and the set of
/// observed `a → b` successions, aggregated over every instance of the class.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassProtocol {
    /// Methods observed as the first call on some instance.
    pub initial: BTreeSet<String>,
    /// Methods observed as the last call on some instance.
    pub r#final: BTreeSet<String>,
    /// Observed immediate successions `(earlier, later)`.
    pub transitions: BTreeSet<(String, String)>,
    /// Number of instances the protocol was aggregated over.
    pub instances: usize,
}

impl ClassProtocol {
    /// Returns `true` when no calls were observed.
    pub fn is_empty(&self) -> bool {
        self.initial.is_empty() && self.transitions.is_empty()
    }
}

/// The protocols of every class observed in one execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProtocolModel {
    /// Class name → observed protocol.
    pub classes: BTreeMap<String, ClassProtocol>,
}

impl ProtocolModel {
    /// Infers the protocol model of a trace from its view web.
    pub fn infer(trace: &Trace, web: &ViewWeb) -> Self {
        let mut classes: BTreeMap<String, ClassProtocol> = BTreeMap::new();
        for view in web.views_of_kind(ViewKind::TargetObject) {
            let Some(rep) = view.representative else {
                continue;
            };
            // The per-object call sequence: the methods of the call events in this
            // object's target-object view, in trace order.
            let calls: Vec<String> = view
                .entries
                .iter()
                .filter_map(|&idx| match &trace[idx].event {
                    Event::Call { method, .. } => Some(method.as_str().to_owned()),
                    _ => None,
                })
                .collect();
            if calls.is_empty() {
                continue;
            }
            let protocol = classes.entry(rep.class.as_str().to_owned()).or_default();
            protocol.instances += 1;
            protocol.initial.insert(calls[0].clone());
            protocol.r#final.insert(calls[calls.len() - 1].clone());
            for pair in calls.windows(2) {
                protocol
                    .transitions
                    .insert((pair[0].clone(), pair[1].clone()));
            }
        }
        ProtocolModel { classes }
    }

    /// The protocol of a class, if any calls on its instances were observed.
    pub fn class(&self, name: &str) -> Option<&ClassProtocol> {
        self.classes.get(name)
    }

    /// Compares two protocol models, reporting per-class transitions present in one model
    /// but not the other.
    pub fn diff(&self, other: &ProtocolModel) -> Vec<ProtocolDrift> {
        let mut out = Vec::new();
        let names: BTreeSet<&String> = self.classes.keys().chain(other.classes.keys()).collect();
        for name in names {
            let empty = ClassProtocol::default();
            let left = self.classes.get(name.as_str()).unwrap_or(&empty);
            let right = other.classes.get(name.as_str()).unwrap_or(&empty);
            let removed: BTreeSet<(String, String)> = left
                .transitions
                .difference(&right.transitions)
                .cloned()
                .collect();
            let added: BTreeSet<(String, String)> = right
                .transitions
                .difference(&left.transitions)
                .cloned()
                .collect();
            if !removed.is_empty() || !added.is_empty() {
                out.push(ProtocolDrift {
                    class: name.to_string(),
                    removed_transitions: removed,
                    added_transitions: added,
                });
            }
        }
        out
    }
}

/// Protocol-level behavioural drift of one class between two executions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolDrift {
    /// The class whose protocol changed.
    pub class: String,
    /// Successions observed only in the left (old) execution.
    pub removed_transitions: BTreeSet<(String, String)>,
    /// Successions observed only in the right (new) execution.
    pub added_transitions: BTreeSet<(String, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_lang::parser::parse_program;
    use rprism_trace::TraceMeta;
    use rprism_vm::{run_traced, VmConfig};

    fn trace_of(src: &str) -> Trace {
        run_traced(
            &parse_program(src).unwrap(),
            TraceMeta::default(),
            VmConfig::default(),
        )
        .unwrap()
        .trace
    }

    const SRC: &str = r#"
        class File extends Object {
            Int state;
            Unit open() { this.state = 1; }
            Unit write(Int v) { this.state = this.state + v; }
            Unit close() { this.state = 0; }
        }
        main {
            let f = new File(0);
            f.open();
            f.write(1);
            f.write(2);
            f.close();
            let g = new File(0);
            g.open();
            g.close();
        }
    "#;

    #[test]
    fn protocol_captures_initial_final_and_transitions() {
        let trace = trace_of(SRC);
        let web = ViewWeb::build(&trace);
        let model = ProtocolModel::infer(&trace, &web);
        let file = model.class("File").expect("File protocol");
        assert_eq!(file.instances, 2);
        assert!(file.initial.contains("open"));
        assert!(file.r#final.contains("close"));
        assert!(file.transitions.contains(&("open".into(), "write".into())));
        assert!(file.transitions.contains(&("write".into(), "close".into())));
        assert!(file.transitions.contains(&("open".into(), "close".into())));
        assert!(!file.transitions.contains(&("close".into(), "open".into())));
    }

    #[test]
    fn protocol_diff_reports_new_and_removed_successions() {
        let old = trace_of(SRC);
        // The "new version" re-opens the file after closing it — a protocol change.
        let new = trace_of(&SRC.replace("g.close();", "g.close(); g.open();"));
        let old_model = ProtocolModel::infer(&old, &ViewWeb::build(&old));
        let new_model = ProtocolModel::infer(&new, &ViewWeb::build(&new));
        let drift = old_model.diff(&new_model);
        assert_eq!(drift.len(), 1);
        assert_eq!(drift[0].class, "File");
        assert!(drift[0]
            .added_transitions
            .contains(&("close".into(), "open".into())));
        assert!(drift[0].removed_transitions.is_empty());
        // Identical executions drift nowhere.
        assert!(old_model.diff(&old_model).is_empty());
    }

    #[test]
    fn classes_without_calls_are_absent() {
        let trace = trace_of("class Data extends Object { Int x; } main { new Data(1); 1 + 1; }");
        let web = ViewWeb::build(&trace);
        let model = ProtocolModel::infer(&trace, &web);
        assert!(model.class("Data").is_none());
    }
}
