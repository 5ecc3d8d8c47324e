//! # rprism-views
//!
//! The *semantic views* trace abstraction of *Semantics-Aware Trace Analysis*
//! (PLDI 2009, §2.4 and §3.1): named projections of an execution trace that group
//! semantically related events (per thread, per method, per target object, per active
//! object), all linked back to the base trace so that an analysis can navigate between
//! them — the "web of interconnected views".
//!
//! * [`view`] — view names, the `σ_τ` entry→view mapping functions of Fig. 7, and the
//!   [`View`] projection itself;
//! * [`web`] — [`ViewWeb`]: all views of a trace plus the entry→views reverse index;
//! * [`correlate`] — the `X_τ` view correlation functions of Fig. 9 that relate views
//!   across two executions (different program versions or different inputs), plus the
//!   context-sensitive relaxation of §5.
//!
//! ```
//! use rprism_lang::parser::parse_program;
//! use rprism_trace::TraceMeta;
//! use rprism_views::{ViewKind, ViewWeb};
//! use rprism_vm::{run_traced, VmConfig};
//!
//! let program = parse_program(
//!     "class C extends Object { Int x; Unit go() { this.x = 1; } }
//!      main { let c = new C(0); c.go(); }",
//! )?;
//! let outcome = run_traced(&program, TraceMeta::new("t", "v1", "case"), VmConfig::default())?;
//! let web = ViewWeb::build(&outcome.trace);
//! assert_eq!(web.views_of_kind(ViewKind::Thread).len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod correlate;
pub mod view;
pub mod web;

pub use correlate::{correlate_objects, correlate_objects_ids, correlate_threads, Correlation};
pub use view::{view_names, ObjectId, View, ViewKey, ViewKind, ViewName};
pub use web::{EntryViews, ViewCounts, ViewId, ViewWeb};
