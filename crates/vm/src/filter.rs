//! Pointcut-like trace filters.
//!
//! RPrism uses AspectJ pointcuts both to choose which program regions are traced at all
//! and to exclude "the internal workings of unrelated code, such as libraries and data
//! structures" (§5.1), which is how the paper keeps trace sizes in the 10K–100K range.
//! [`TraceFilter`] reproduces that control: events are dropped at emission time when the
//! class of the event's target object (or the enclosing method) matches an exclusion, and
//! — when an include list is present — kept only when they match it.

use rprism_trace::TraceEntry;

/// A predicate over trace entries deciding which events are recorded.
#[derive(Clone, Debug, Default)]
pub struct TraceFilter {
    /// Class-name prefixes whose events are excluded (matched against the target object's
    /// class and the enclosing active object's class).
    pub exclude_class_prefixes: Vec<String>,
    /// Method names whose call/return events (and events occurring while they execute)
    /// are excluded.
    pub exclude_methods: Vec<String>,
    /// When non-empty, only events whose target class matches one of these prefixes are
    /// recorded (thread events are always recorded).
    pub include_class_prefixes: Vec<String>,
}

impl TraceFilter {
    /// A filter that records everything.
    pub fn record_all() -> Self {
        TraceFilter::default()
    }

    /// Adds an excluded class prefix.
    pub fn exclude_class(mut self, prefix: impl Into<String>) -> Self {
        self.exclude_class_prefixes.push(prefix.into());
        self
    }

    /// Adds an excluded method name.
    pub fn exclude_method(mut self, name: impl Into<String>) -> Self {
        self.exclude_methods.push(name.into());
        self
    }

    /// Adds an included class prefix (turning the filter into include-only mode).
    pub fn include_class(mut self, prefix: impl Into<String>) -> Self {
        self.include_class_prefixes.push(prefix.into());
        self
    }

    /// Returns `true` when the entry should be recorded.
    pub fn admits(&self, entry: &TraceEntry) -> bool {
        let target_class = entry.event.target_object().map(|o| o.class.as_str());
        let active_class = entry.active.class.as_str();

        if self.exclude_methods.iter().any(|m| {
            entry.method.as_str() == m || entry.event.method().is_some_and(|em| em.as_str() == m)
        }) {
            return false;
        }
        let class_matches = |prefixes: &[String], class: &str| {
            prefixes.iter().any(|p| class.starts_with(p.as_str()))
        };
        if let Some(tc) = target_class {
            if class_matches(&self.exclude_class_prefixes, tc) {
                return false;
            }
        }
        if class_matches(&self.exclude_class_prefixes, active_class) {
            return false;
        }
        if !self.include_class_prefixes.is_empty() {
            // Thread events (no target object) are always kept so views stay well formed.
            match target_class {
                Some(tc) => class_matches(&self.include_class_prefixes, tc),
                None => true,
            }
        } else {
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_lang::{FieldName, MethodName};
    use rprism_trace::{CreationSeq, EntryId, Event, Loc, ObjRep, StackSnapshot, ThreadId};

    fn entry(active_class: &str, method: &str, target_class: Option<&str>) -> TraceEntry {
        let event = match target_class {
            Some(c) => Event::Get {
                target: ObjRep::opaque_object(Loc(0), c, CreationSeq(0)),
                field: FieldName::new("x"),
                value: ObjRep::prim("Int", "1"),
            },
            None => Event::End {
                stack: StackSnapshot::empty(),
            },
        };
        TraceEntry::new(
            EntryId(0),
            ThreadId(0),
            MethodName::new(method),
            ObjRep::opaque_object(Loc(1), active_class, CreationSeq(0)),
            event,
        )
    }

    #[test]
    fn default_filter_admits_everything() {
        let f = TraceFilter::record_all();
        assert!(f.admits(&entry("A", "m", Some("B"))));
        assert!(f.admits(&entry("A", "m", None)));
    }

    #[test]
    fn excluded_class_prefix_drops_matching_targets() {
        let f = TraceFilter::record_all().exclude_class("java.util");
        assert!(!f.admits(&entry("A", "m", Some("java.util.HashMap"))));
        assert!(f.admits(&entry("A", "m", Some("Counter"))));
    }

    #[test]
    fn excluded_class_also_matches_active_object() {
        let f = TraceFilter::record_all().exclude_class("Lib");
        assert!(!f.admits(&entry("LibHelper", "m", Some("Counter"))));
    }

    #[test]
    fn excluded_methods_drop_their_events() {
        let f = TraceFilter::record_all().exclude_method("toString");
        assert!(!f.admits(&entry("A", "toString", Some("B"))));
        assert!(f.admits(&entry("A", "work", Some("B"))));
    }

    #[test]
    fn include_mode_keeps_only_matching_targets_but_all_thread_events() {
        let f = TraceFilter::record_all().include_class("App");
        assert!(f.admits(&entry("X", "m", Some("AppServlet"))));
        assert!(!f.admits(&entry("X", "m", Some("Other"))));
        assert!(f.admits(&entry("X", "m", None)));
    }
}
