//! # rprism-workloads
//!
//! Synthetic workloads and evaluation scenarios for the RPrism reproduction of
//! *Semantics-Aware Trace Analysis* (PLDI 2009):
//!
//! * [`scenario`] — the [`Scenario`] abstraction (program versions + test drivers + ground
//!   truth) and the plumbing that traces and analyzes one scenario end-to-end;
//! * [`myfaces`] — the paper's motivating example (MYFACES-1130-style character-range
//!   regression, §1 / Fig. 1 / Fig. 13);
//! * [`mutate`] — regression injection by AST mutation, following the root-cause
//!   distribution used in §5.1;
//! * [`rhino`] — the Rhino-like generated bug dataset standing in for the iBUGS suite
//!   (Fig. 14);
//! * [`casestudies`] — the four real-life regression case studies of §5.2 re-modelled in
//!   the core calculus (Daikon, Xalan-1725, Xalan-1802, Derby-1633; Tables 1 and 2);
//! * [`corpus`] — the golden serialized-trace corpus regenerated from the case studies
//!   (conformance fixtures under `tests/corpus/`, and the `rprism corpus` CLI backend).
//!
//! Everything is deterministic: generated programs, injected mutations and traced
//! interleavings are pure functions of the configured seeds.

pub mod casestudies;
pub mod corpus;
pub mod mutate;
pub mod myfaces;
pub mod rhino;
pub mod scenario;

pub use corpus::{check_corpus, corpus_files, write_corpus, CorpusFile};
pub use mutate::{MutationOutcome, RootCause};
pub use rhino::{dataset, generate_bug, InjectedBug, RhinoConfig};
pub use scenario::{Scenario, ScenarioError, ScenarioOutcome, ScenarioTraces, TestCase, Version};
