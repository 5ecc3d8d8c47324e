//! # rprism-vm
//!
//! The tracing interpreter of the RPrism reproduction: an executable version of the
//! paper's dynamic semantics (§2.3, Fig. 6) for the core calculus defined in
//! [`rprism_lang`]. Running a program does two things at once:
//!
//! 1. it *evaluates* the program (heap, dynamic dispatch, threads, primitive operations),
//! 2. it *records* a [`rprism_trace::Trace`] containing exactly the entries the paper's
//!    instrumented semantics prescribes — object creations, field accesses, method
//!    calls/returns, thread forks/ends — each with the generic context (thread, enclosing
//!    method, enclosing receiver).
//!
//! In the paper the tracing layer is implemented by weaving AspectJ advice into JVM
//! bytecode; here the interpreter *is* the instrumentation (see `DESIGN.md` for the
//! substitution argument). The [`filter::TraceFilter`] plays the role of pointcuts.
//!
//! ## Quickstart
//!
//! ```
//! use rprism_lang::parser::parse_program;
//! use rprism_trace::TraceMeta;
//! use rprism_vm::{run_traced, VmConfig};
//!
//! let program = parse_program(
//!     "class Counter extends Object {
//!          Int count;
//!          Int bump(Int by) { this.count = this.count + by; return this.count; }
//!      }
//!      main { let c = new Counter(0); c.bump(2); }",
//! )?;
//! let outcome = run_traced(&program, TraceMeta::new("demo", "v1", "t1"), VmConfig::default())?;
//! assert!(outcome.succeeded());
//! assert!(outcome.trace.len() >= 5);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod config;
pub mod error;
pub mod filter;
pub mod heap;
pub mod interp;
pub mod value;

pub use config::{RunStats, VmConfig};
pub use error::RuntimeError;
pub use filter::TraceFilter;
pub use interp::{run_traced, run_validated, sys_class_def, RunOutcome, SYS_CLASS};
pub use value::{PrimValue, Value};
