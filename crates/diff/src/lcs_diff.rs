//! LCS-based trace differencing (the paper's §3.2 baseline).
//!
//! Entries of the two traces are reduced to precomputed interned keys (a
//! [`KeyedTrace`] holding the information `=e` compares), the right side's key ids are
//! translated into the left side's, and an LCS over the two id sequences determines the
//! similarity set Π. The two weaknesses the paper identifies —
//! blind long-distance correlation of common values and Θ(n²) cost — are inherent to this
//! baseline and are exactly what the views-based differencer (see [`crate::views_diff_sides`])
//! addresses; the keyed representation merely makes each of the Θ(n²) comparisons an
//! integer operation instead of a string/vector traversal.

use std::time::Instant;

use rprism_trace::{KeyedTrace, Trace};

use crate::cost::{CostMeter, DiffError, MemoryBudget};
use crate::lcs::{lcs_dp, lcs_hirschberg};
use crate::matching::Matching;
use crate::result::TraceDiffResult;

/// Configuration of the LCS-based trace differencer.
///
/// Plain data: set the fields that differ from the defaults and take the rest from
/// [`LcsDiffOptions::default`].
///
/// ```
/// use rprism_diff::{LcsDiffOptions, MemoryBudget};
/// let options = LcsDiffOptions { memory_budget: MemoryBudget::gib(2), ..Default::default() };
/// assert!(!options.linear_space);
/// ```
#[derive(Clone, Debug)]
pub struct LcsDiffOptions {
    /// Memory budget for the quadratic table; the paper's baseline fails on long traces,
    /// and a finite budget reproduces that failure mode.
    pub memory_budget: MemoryBudget,
    /// Use Hirschberg's linear-space algorithm instead of the full table. Slower (about
    /// twice the compare operations) but immune to the memory budget.
    pub linear_space: bool,
}

impl Default for LcsDiffOptions {
    fn default() -> Self {
        LcsDiffOptions {
            memory_budget: MemoryBudget::unlimited(),
            linear_space: false,
        }
    }
}

/// Differences two traces with the (prefix/suffix-optimized) LCS baseline.
///
/// # Errors
///
/// Returns [`DiffError::OutOfMemory`] when the quadratic table would exceed the memory
/// budget (only with `linear_space: false`).
pub fn lcs_diff(
    left: &Trace,
    right: &Trace,
    options: &LcsDiffOptions,
) -> Result<TraceDiffResult, DiffError> {
    lcs_diff_prepared(&KeyedTrace::build(left), &KeyedTrace::build(right), options)
}

/// The precomputed-key entry point of the LCS baseline: the caller supplies the
/// [`KeyedTrace`]s (built once per trace per session), so repeated comparisons of the
/// same trace skip the key build. The baseline only consumes the keys (entry counts
/// included), so prepared callers — streaming ingestion in particular, which never
/// materializes a full trace — run it from a [`KeyedTrace`] pair alone. This is the
/// backend `rprism::Engine` uses when the baseline algorithm is selected; the cost
/// model charges the keyed bytes to this run's working set, as [`lcs_diff`] does.
///
/// # Errors
///
/// Returns [`DiffError::OutOfMemory`] when the quadratic table would exceed
/// `options.memory_budget` (and `linear_space` is off).
pub fn lcs_diff_prepared(
    left_keyed: &KeyedTrace,
    right_keyed: &KeyedTrace,
    options: &LcsDiffOptions,
) -> Result<TraceDiffResult, DiffError> {
    let start = Instant::now();
    let mut meter = CostMeter::new();

    let left_ids = left_keyed.ids();
    let right_ids = translated_ids(left_keyed, right_keyed);
    meter.allocate(
        left_keyed.estimated_bytes()
            + right_keyed.estimated_bytes()
            + (right_ids.len() * std::mem::size_of::<u32>()) as u64,
    );

    let pairs = if options.linear_space {
        lcs_hirschberg(left_ids, &right_ids, &mut meter)
    } else {
        lcs_dp(left_ids, &right_ids, &mut meter, options.memory_budget)?
    };

    let matching = Matching::from_pairs(left_keyed.len(), right_keyed.len(), pairs);
    let sequences = matching.difference_sequences();
    Ok(TraceDiffResult {
        matching,
        sequences,
        cost: meter.stats(),
        elapsed: start.elapsed(),
        algorithm: "lcs",
    })
}

/// Every entry's key id of `right`, translated into `left`'s id space
/// ([`KeyedTrace::translate_into`]): equal to a left entry's id exactly when the two are
/// `=e`-equal, and to another right entry's exactly when their keys are.
pub(crate) fn translated_ids(left: &KeyedTrace, right: &KeyedTrace) -> Vec<u32> {
    let mut translation = Vec::new();
    left.translate_into(right, &mut translation);
    right
        .ids()
        .iter()
        .map(|&id| translation[id as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_lang::parser::parse_program;
    use rprism_trace::TraceMeta;
    use rprism_vm::{run_traced, VmConfig};

    fn trace_of(src: &str, name: &str) -> Trace {
        let program = parse_program(src).unwrap();
        run_traced(
            &program,
            TraceMeta::new(name, "v", "c"),
            VmConfig::default(),
        )
        .unwrap()
        .trace
    }

    const BASE: &str = r#"
        class Range extends Object { Int min; Int max; }
        class SP extends Object {
            Range r;
            Unit config(Int lo) { this.r = new Range(lo, 127); }
            Int probe() { return this.r.min; }
        }
        main {
            let sp = new SP(null);
            sp.config(32);
            sp.probe();
            sp.probe();
        }
    "#;

    #[test]
    fn identical_traces_have_no_differences() {
        let a = trace_of(BASE, "a");
        let b = trace_of(BASE, "b");
        let result = lcs_diff(&a, &b, &LcsDiffOptions::default()).unwrap();
        assert_eq!(result.num_differences(), 0);
        assert_eq!(result.num_similar(), a.len());
        assert!(result.sequences.is_empty());
    }

    #[test]
    fn changed_constant_shows_up_as_differences() {
        let a = trace_of(BASE, "old");
        let b = trace_of(&BASE.replace("sp.config(32)", "sp.config(1)"), "new");
        let result = lcs_diff(&a, &b, &LcsDiffOptions::default()).unwrap();
        assert!(result.num_differences() > 0);
        assert!(result.num_sequences() >= 1);
        // Entries not touched by the changed value (object creation of SP, the thread
        // end, the probe call events on the unchanged SP object) still match.
        assert!(
            result.num_similar() >= 4,
            "similar = {}",
            result.num_similar()
        );
    }

    #[test]
    fn memory_budget_failure_is_reported() {
        let a = trace_of(BASE, "a");
        let opts = LcsDiffOptions {
            memory_budget: MemoryBudget::bytes(16),
            ..Default::default()
        };
        // With identical traces the prefix optimization avoids the table entirely, so
        // force a difference in the first entry by comparing against a different program.
        let c = trace_of(&BASE.replace("new SP(null)", "new SP(new Range(0,0))"), "c");
        let result = lcs_diff(&a, &c, &opts);
        assert!(matches!(result, Err(DiffError::OutOfMemory { .. })));
    }

    #[test]
    fn linear_space_variant_ignores_budget_and_agrees_on_count() {
        let a = trace_of(BASE, "old");
        let b = trace_of(&BASE.replace("sp.config(32)", "sp.config(1)"), "new");
        let quad = lcs_diff(&a, &b, &LcsDiffOptions::default()).unwrap();
        let lin = lcs_diff(
            &a,
            &b,
            &LcsDiffOptions {
                memory_budget: MemoryBudget::bytes(1),
                linear_space: true,
            },
        )
        .unwrap();
        assert_eq!(quad.num_similar(), lin.num_similar());
        // Linear-space pays more compares.
        assert!(lin.cost.compare_ops >= quad.cost.compare_ops);
    }

    #[test]
    fn cost_statistics_are_populated() {
        let a = trace_of(BASE, "old");
        let b = trace_of(&BASE.replace("sp.config(32)", "sp.config(1)"), "new");
        let result = lcs_diff(&a, &b, &LcsDiffOptions::default()).unwrap();
        assert!(result.cost.compare_ops > 0);
        assert!(result.cost.peak_bytes > 0);
        assert_eq!(result.algorithm, "lcs");
    }
}
