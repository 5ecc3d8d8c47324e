//! Tracing and evaluation configuration.

use std::collections::HashSet;

use rprism_lang::ClassName;

use crate::filter::TraceFilter;

/// Configuration of a tracing run.
#[derive(Clone, Debug)]
pub struct VmConfig {
    /// The scheduling quantum: how many recorded events a thread executes before the turn
    /// passes to the next runnable thread (deterministic round-robin interleaving).
    pub quantum: usize,
    /// Hard bound on evaluation steps per run (runaway-program guard).
    pub max_steps: u64,
    /// Hard bound on iterations of any single `while` loop execution.
    pub max_loop_iterations: u64,
    /// The pointcut-like filter deciding which events are recorded.
    pub filter: TraceFilter,
    /// Classes whose value representation is forced to be opaque (identity-only objects).
    pub opaque_classes: HashSet<ClassName>,
    /// Maximum depth of recursive value serialization. The default of 1 serializes an
    /// object's *own* primitive fields and treats nested objects as opaque references,
    /// mirroring RPrism's `hashCode`/`toString` approximation (§5): it keeps object
    /// identity stable across versions while still detecting changes to the object's own
    /// state, and prevents a single changed value from polluting the fingerprints of every
    /// container that (transitively) reaches it.
    pub value_repr_depth: usize,
    /// Whether `init` events are recorded for primitive value creation (`new D(d)`,
    /// rule CONS-VAL-E). Off by default: RPrism's pointcuts exclude this noise in practice.
    pub trace_prim_init: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            quantum: 16,
            max_steps: 20_000_000,
            max_loop_iterations: 1_000_000,
            filter: TraceFilter::record_all(),
            opaque_classes: HashSet::new(),
            value_repr_depth: 1,
            trace_prim_init: false,
        }
    }
}

impl VmConfig {
    /// Marks a class as opaque (its instances provide no version-stable value
    /// representation, like objects with the default `hashCode`/`toString` in §5).
    pub fn with_opaque_class(mut self, class: impl Into<ClassName>) -> Self {
        self.opaque_classes.insert(class.into());
        self
    }

    /// Replaces the trace filter.
    pub fn with_filter(mut self, filter: TraceFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Sets the scheduling quantum.
    ///
    /// # Panics
    ///
    /// Panics when `quantum` is zero.
    pub fn with_quantum(mut self, quantum: usize) -> Self {
        assert!(quantum > 0, "scheduling quantum must be positive");
        self.quantum = quantum;
        self
    }

    /// Sets the step limit.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }
}

/// Aggregate statistics of a tracing run, reported alongside the trace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total evaluation steps performed (AST nodes evaluated).
    pub steps: u64,
    /// Number of trace entries recorded.
    pub events_recorded: u64,
    /// Number of events suppressed by the trace filter.
    pub events_filtered: u64,
    /// Number of threads spawned (excluding the main thread).
    pub threads_spawned: u64,
    /// Number of heap objects allocated.
    pub objects_allocated: u64,
    /// Deepest call stack observed across all threads.
    pub max_stack_depth: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = VmConfig::default();
        assert!(c.quantum > 0);
        assert!(c.max_steps > 1000);
        assert!(!c.trace_prim_init);
    }

    #[test]
    fn builder_methods_compose() {
        let c = VmConfig::default()
            .with_quantum(4)
            .with_max_steps(100)
            .with_opaque_class("Logger")
            .with_filter(TraceFilter::record_all().exclude_method("toString"));
        assert_eq!(c.quantum, 4);
        assert_eq!(c.max_steps, 100);
        assert!(c.opaque_classes.contains(&ClassName::new("Logger")));
        assert_eq!(c.filter.exclude_methods, vec!["toString".to_owned()]);
    }

    #[test]
    #[should_panic(expected = "quantum")]
    fn zero_quantum_rejected() {
        let _ = VmConfig::default().with_quantum(0);
    }
}
