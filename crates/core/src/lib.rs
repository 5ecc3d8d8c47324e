//! # rprism
//!
//! A Rust reproduction of **RPrism**, the system of *Semantics-Aware Trace Analysis*
//! (Hoffman, Eugster, Jagannathan — PLDI 2009): semantic views over execution traces,
//! linear-time views-based trace differencing, and regression-cause analysis.
//!
//! This crate is the user-facing facade. The entry point is the session-oriented
//! [`Engine`]: it owns the configuration (differencing algorithm and options, analysis
//! mode) and hands out [`PreparedTrace`] handles whose derived
//! artifacts — the lean per-entry context, interned event keys and the view web — are
//! built in one pass when the handle is made and shared across every diff, batch run
//! and regression analysis:
//!
//! 1. trace two versions of a program on two test inputs ([`Engine::trace_source`]) —
//!    or ingest externally captured traces ([`Engine::load_prepared_reader`], which
//!    sniffs the binary `.rtr` / JSONL encodings of [`rprism_format`] and streams them
//!    into a handle; [`PreparedTrace::new`] wraps a trace already in memory),
//! 2. difference pairs of traces semantically ([`Engine::diff`], [`Engine::diff_many`]),
//! 3. run the full regression-cause analysis ([`Engine::analyze`],
//!    [`Engine::analyze_many`]),
//! 4. store any trace back to disk ([`rprism_format::write_trace_path`] of
//!    [`PreparedTrace::trace`]) for the `rprism` CLI (`rprism diff a.rtr b.rtr`) or
//!    external tooling.
//!
//! ```
//! use rprism::Engine;
//!
//! let old_src = r#"
//!     class Range extends Object { Int min; Int max; }
//!     class App extends Object {
//!         Range r;
//!         Unit setup() { this.r = new Range(32, 127); }
//!         Bool admits(Int c) { return (c >= this.r.min) && (c <= this.r.max); }
//!     }
//!     main { let a = new App(null); a.setup(); a.admits(20); a.admits(64); }
//! "#;
//! let new_src = old_src.replace("new Range(32, 127)", "new Range(1, 127)");
//!
//! let engine = Engine::new();
//! let old = engine.trace_source(old_src, "old")?;
//! let new = engine.trace_source(&new_src, "new")?;
//!
//! // The handles carry their keys and view webs: every diff (and any regression
//! // analysis over the same traces) reuses them, and the pair's view correlation.
//! let diff = engine.diff(&old, &new)?;
//! assert!(diff.num_differences() > 0);
//! let again = engine.diff(&old, &new)?;
//! assert_eq!(diff.num_differences(), again.num_differences());
//! assert_eq!(engine.correlation_builds(), 1);
//! # Ok::<(), rprism::Error>(())
//! ```
//!
//! All errors of the stack (language, VM, differencing) unify into [`enum@Error`], with
//! [`Result`] as the crate-wide alias. The individual layers are available as
//! re-exported modules: [`lang`], [`trace`], [`vm`], [`views`], [`diff`], [`regress`].
//! See `MIGRATION.md` at the workspace root for a guide to the current API.
//!
//! An [`Engine`] is `Send + Sync` (asserted at compile time) and is designed to be
//! shared across threads: a handle's artifacts are immutable once it is made, and
//! a cold pair correlation is built by exactly one of its concurrent requesters. The
//! `rprism-server` crate builds on this to serve one session to many network clients
//! (`rprism serve` / `rprism remote` on the command line).

pub use rprism_check as check;
pub use rprism_diff as diff;
pub use rprism_format as format;
pub use rprism_lang as lang;
pub use rprism_obs as obs;
pub use rprism_regress as regress;
pub use rprism_trace as trace;
pub use rprism_views as views;
pub use rprism_vm as vm;

mod cache;
mod engine;
mod ingest;
mod watch;

pub use cache::{CacheOutcome, SharedCache};
pub use engine::{Engine, EngineBuilder, PreparedTrace, RegressionInput};
pub use ingest::BATCH_ENTRIES;
pub use watch::{Watch, WatchOutcome};
// The vocabulary types an Engine user needs, re-exported at the crate root.
pub use rprism_check::{CheckConfig, CheckReport, Severity};
pub use rprism_diff::{
    AnchoredDiffOptions, DiffSession, LcsDiffOptions, ProvisionalEvent, TraceDiffResult,
    ViewsDiffOptions,
};
pub use rprism_format::{Encoding, FormatError};
pub use rprism_obs::Obs;
pub use rprism_regress::{AnalysisMode, DiffAlgorithm, RegressionReport, RenderOptions};

/// Errors surfaced by the high-level API: the union of every layer's failure modes.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Parsing or validating a program failed.
    Lang(rprism_lang::Error),
    /// Differencing failed (only possible with the LCS baseline's memory budget).
    Diff(rprism_diff::DiffError),
    /// A traced program failed at runtime (surfaced by callers that treat a failing run
    /// as an error rather than as a trace to analyze).
    Vm(rprism_vm::RuntimeError),
    /// Loading or storing a serialized trace failed (I/O, truncation, corruption, or an
    /// unsupported format version).
    Format(rprism_format::FormatError),
}

/// The crate-wide result alias.
pub type Result<T, E = Error> = std::result::Result<T, E>;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Lang(e) => write!(f, "program error: {e}"),
            Error::Diff(e) => write!(f, "differencing error: {e}"),
            Error::Vm(e) => write!(f, "runtime error: {e}"),
            Error::Format(e) => write!(f, "trace format error: {e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<rprism_lang::Error> for Error {
    fn from(e: rprism_lang::Error) -> Self {
        Error::Lang(e)
    }
}

impl From<rprism_diff::DiffError> for Error {
    fn from(e: rprism_diff::DiffError) -> Self {
        Error::Diff(e)
    }
}

impl From<rprism_vm::RuntimeError> for Error {
    fn from(e: rprism_vm::RuntimeError) -> Self {
        Error::Vm(e)
    }
}

impl From<rprism_format::FormatError> for Error {
    fn from(e: rprism_format::FormatError) -> Self {
        Error::Format(e)
    }
}
