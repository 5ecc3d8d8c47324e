//! Cost accounting for differencing algorithms.
//!
//! The paper evaluates differencing along two resource axes (§5.1): the number of trace
//! entry *compare operations* (the basis of the reported speedups) and memory (the full
//! LCS "failed on traces longer than 100K entries due to memory exhaustion" on a 32 GB
//! machine, while the views-based diff stays linear). [`CostMeter`] counts compare
//! operations and tracks an explicit byte cost model; an optional [`MemoryBudget`] makes
//! the quadratic algorithms fail with [`DiffError::OutOfMemory`] exactly the way the
//! paper's baseline does.

use std::fmt;

/// Errors produced by differencing algorithms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DiffError {
    /// The algorithm's working-set estimate exceeded the configured memory budget.
    OutOfMemory {
        /// Bytes the algorithm needed.
        required_bytes: u64,
        /// The configured budget.
        budget_bytes: u64,
    },
}

impl fmt::Display for DiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiffError::OutOfMemory {
                required_bytes,
                budget_bytes,
            } => write!(
                f,
                "differencing needs {required_bytes} bytes but the memory budget is {budget_bytes} bytes"
            ),
        }
    }
}

impl std::error::Error for DiffError {}

/// An optional bound on the working-set size of a differencing run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct MemoryBudget {
    /// Maximum working-set bytes, or `None` for unlimited.
    pub max_bytes: Option<u64>,
}

impl MemoryBudget {
    /// An unlimited budget.
    pub fn unlimited() -> Self {
        MemoryBudget { max_bytes: None }
    }

    /// A budget of the given number of bytes.
    pub fn bytes(max: u64) -> Self {
        MemoryBudget {
            max_bytes: Some(max),
        }
    }

    /// A budget of the given number of gibibytes.
    pub fn gib(gib: u64) -> Self {
        Self::bytes(gib * 1024 * 1024 * 1024)
    }

    /// Checks a requested working-set size against the budget.
    ///
    /// # Errors
    ///
    /// Returns [`DiffError::OutOfMemory`] when the request exceeds the budget.
    pub fn check(&self, required_bytes: u64) -> Result<(), DiffError> {
        match self.max_bytes {
            Some(budget) if required_bytes > budget => Err(DiffError::OutOfMemory {
                required_bytes,
                budget_bytes: budget,
            }),
            _ => Ok(()),
        }
    }
}

/// Counts compare operations and tracks the peak working-set estimate of one differencing
/// run.
#[derive(Clone, Debug, Default)]
pub struct CostMeter {
    compare_ops: u64,
    current_bytes: u64,
    peak_bytes: u64,
}

impl CostMeter {
    /// A fresh meter.
    pub fn new() -> Self {
        CostMeter::default()
    }

    /// Records `n` compare operations.
    pub fn count_compares(&mut self, n: u64) {
        self.compare_ops += n;
    }

    /// Records an allocation of `bytes` into the working set.
    pub fn allocate(&mut self, bytes: u64) {
        self.current_bytes += bytes;
        self.peak_bytes = self.peak_bytes.max(self.current_bytes);
    }

    /// Records release of `bytes` from the working set.
    pub fn release(&mut self, bytes: u64) {
        self.current_bytes = self.current_bytes.saturating_sub(bytes);
    }

    /// Merges a worker meter into this one, as if the worker's operations had run
    /// sequentially at this meter's current allocation level: compare counts add up, and
    /// the peak is the maximum of this meter's peak and the worker's peak stacked on the
    /// current working set. Merging workers in a fixed order yields deterministic
    /// statistics regardless of the actual parallel interleaving.
    pub fn merge(&mut self, worker: &CostMeter) {
        self.compare_ops += worker.compare_ops;
        self.peak_bytes = self.peak_bytes.max(self.current_bytes + worker.peak_bytes);
        self.current_bytes += worker.current_bytes;
    }

    /// Finalizes the meter into immutable statistics.
    pub fn stats(&self) -> CostStats {
        CostStats {
            compare_ops: self.compare_ops,
            peak_bytes: self.peak_bytes,
        }
    }
}

/// The resource statistics reported for a differencing run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostStats {
    /// Number of trace entry compare operations performed.
    pub compare_ops: u64,
    /// Peak working-set estimate in bytes.
    pub peak_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_tracks_peak_not_current() {
        let mut m = CostMeter::new();
        m.allocate(100);
        m.allocate(50);
        m.release(120);
        m.allocate(10);
        let s = m.stats();
        assert_eq!(s.peak_bytes, 150);
    }

    #[test]
    fn budget_rejects_oversized_requests() {
        let b = MemoryBudget::bytes(1000);
        assert!(b.check(1000).is_ok());
        assert!(matches!(b.check(1001), Err(DiffError::OutOfMemory { .. })));
        assert!(MemoryBudget::unlimited().check(u64::MAX).is_ok());
        assert_eq!(MemoryBudget::gib(2).max_bytes, Some(2 * 1024 * 1024 * 1024));
    }

    #[test]
    fn errors_display_both_quantities() {
        let e = DiffError::OutOfMemory {
            required_bytes: 123,
            budget_bytes: 45,
        };
        let msg = e.to_string();
        assert!(msg.contains("123"));
        assert!(msg.contains("45"));
    }
}
