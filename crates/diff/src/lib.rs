//! # rprism-diff
//!
//! Trace differencing for the RPrism reproduction of *Semantics-Aware Trace Analysis*
//! (PLDI 2009, §3): given two execution traces (typically an original and a new version of
//! a program run on the same input), compute the set of entries that are semantically
//! similar and, from it, the set of differences organized into difference sequences.
//!
//! Two differencing semantics are provided:
//!
//! * [`lcs_diff`](lcs_diff::lcs_diff) — the §3.2 baseline: longest common subsequence over
//!   the two traces under event equality `=e`, with the common-prefix/suffix optimization,
//!   an explicit memory budget (the quadratic table fails on long traces exactly as in the
//!   paper) and a Hirschberg linear-space variant;
//! * [`views_diff_sides`] — the §3.3 contribution: lock-step scanning of
//!   correlated thread views, with windowed LCS over correlated *secondary* views
//!   (method/object views) at mismatch points, yielding linear time and space.
//!
//! Both produce a [`TraceDiffResult`] carrying the similarity set, the difference
//! sequences and the compare-operation / memory cost model used by the evaluation
//! benchmarks.
//!
//! The preferred front door is the session-oriented `rprism::Engine`, which prepares
//! each trace's [`KeyedTrace`](rprism_trace::KeyedTrace) and view web once and reuses
//! them across every comparison. This crate exposes the underlying prepared-artifact
//! entry points directly:
//!
//! ```
//! use rprism_diff::{lcs_diff_prepared, views_diff_sides, DiffSide, LcsDiffOptions, ViewsDiffOptions};
//! use rprism_lang::parser::parse_program;
//! use rprism_trace::{KeyedTrace, LeanTrace, TraceMeta};
//! use rprism_views::ViewWeb;
//! use rprism_vm::{run_traced, VmConfig};
//!
//! let src = |v: i64| format!(
//!     "class C extends Object {{ Int x; Unit set(Int v) {{ this.x = v; }} }}
//!      main {{ let c = new C(0); c.set({v}); }}");
//! let old = run_traced(&parse_program(&src(32))?, TraceMeta::new("old", "v1", "t"), VmConfig::default())?.trace;
//! let new = run_traced(&parse_program(&src(1))?, TraceMeta::new("new", "v2", "t"), VmConfig::default())?.trace;
//!
//! // Prepare once per trace; reuse across as many comparisons as needed.
//! let (old_keyed, new_keyed) = (KeyedTrace::build(&old), KeyedTrace::build(&new));
//! let (old_web, new_web) = (ViewWeb::build(&old), ViewWeb::build(&new));
//! let (old_lean, new_lean) = (LeanTrace::build(&old), LeanTrace::build(&new));
//!
//! let options = ViewsDiffOptions { delta: 2, window: 8, ..Default::default() };
//! let views = views_diff_sides(
//!     &DiffSide::lean(&old_lean, &old_keyed, &old_web),
//!     &DiffSide::lean(&new_lean, &new_keyed, &new_web),
//!     &options,
//! );
//! let lcs = lcs_diff_prepared(&old_keyed, &new_keyed, &LcsDiffOptions::default())?;
//! assert!(views.num_differences() > 0);
//! assert!(views.num_differences() <= lcs.num_differences());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod anchored;
pub mod cost;
mod kernel_differential;
pub mod lcs;
pub mod lcs_diff;
pub mod matching;
mod proptests;
pub mod result;
pub mod session;
pub mod views_diff;

pub use anchored::{anchored_diff, anchored_diff_prepared, AnchoredDiffOptions};
pub use cost::{CostMeter, CostStats, DiffError, MemoryBudget};
pub use lcs::{lcs_bitparallel, lcs_dp, lcs_hirschberg, lcs_length, MAX_BITPARALLEL_CLASSES};
pub use lcs_diff::{lcs_diff, lcs_diff_prepared, LcsDiffOptions};
pub use matching::{DiffKind, DiffSequence, Matching};
pub use result::TraceDiffResult;
pub use session::{DiffSession, ProvisionalEvent, SessionFinish};
pub use views_diff::{
    views_diff_sides, views_diff_sides_correlated, DiffSide, PushTimes, SideArtifacts,
    ViewsDiffOptions,
};
