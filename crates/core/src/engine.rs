//! The session-oriented analysis API: [`Engine`], [`PreparedTrace`] and
//! [`RegressionInput`].
//!
//! The paper's pipeline (trace → views → diff → regression sets) is inherently
//! multi-query: the §4.1 analysis runs three diffs over four traces, and the case studies
//! re-difference the same traces under many option settings. An [`Engine`] is the session
//! object that owns the configuration (differencing algorithm and options, analysis
//! mode, render options) and hands out [`PreparedTrace`] handles whose derived
//! artifacts — the [`LeanTrace`] context, the [`KeyedTrace`] of interned event keys
//! and the [`ViewWeb`] — are built **once per trace**, in one fold when the handle is
//! made, and shared (via `Arc`) across every diff, correlation and regression analysis
//! that touches the trace.
//!
//! Symbols inside those artifacts come from the process-global interner
//! ([`rprism_trace::intern`]), so handles prepared by the same engine — or even by
//! different engines in one process — compare directly without translation.
//!
//! On top of the per-trace artifacts, the engine keeps a session-level *pair* cache:
//! the view [`Correlation`] of two prepared traces is built on their first diff and
//! reused by every repeat, so re-differencing the same pair skips straight to the
//! lock-step scan (the `prepared_reuse_speedup` metric of `BENCH_2.json`). It is a
//! [`SharedCache`] of at most [`CORRELATION_CACHE_CAP`] pairs, least recently used
//! evicted first.
//!
//! Batch entry points ([`Engine::diff_many`], [`Engine::analyze_many`]) fan independent
//! jobs out over [`rprism_trace::par`]; results come back in input order
//! and each job carries its own deterministic cost meter, so batch runs are
//! reproducible down to the compare-operation counts.

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use rprism_check::{CheckConfig, CheckReport, Checker};
use rprism_diff::{
    anchored_diff_prepared, lcs_diff_prepared, views_diff_sides_correlated, AnchoredDiffOptions,
    DiffError, DiffSession, DiffSide, LcsDiffOptions, SideArtifacts, TraceDiffResult,
    ViewsDiffOptions,
};
use rprism_format::TraceReader;
use rprism_lang::parser::parse_program;
use rprism_lang::Program;
use rprism_regress::{
    analyze_prepared_with, AnalysisComparison, AnalysisMode, DiffAlgorithm, PreparedInput,
    RegressionReport, RenderOptions,
};
use rprism_trace::{par, EntryBatch, KeyedTrace, LeanTrace, Trace, TraceMeta};
use rprism_views::{Correlation, ViewWeb};
use rprism_vm::{run_traced, RunOutcome, RuntimeError, VmConfig};

use rprism_obs::Obs;

use crate::cache::{CacheOutcome, SharedCache};
use crate::ingest::{prepare_in_memory, stream_prepare, BATCH_ENTRIES};
use crate::watch::Watch;
use crate::Result;

/// Number of trace pairs kept in the pair-level correlation cache before
/// least-recently-used eviction kicks in. Bounds a long-lived engine's memory when it
/// diffs an unbounded stream of trace pairs; 128 pairs comfortably covers a whole
/// case-study batch.
const CORRELATION_CACHE_CAP: usize = 128;

/// One cached pair: the correlation as built (oriented `left_id → right`), plus the
/// lazily derived flipped orientation so both diff directions of the pair share one
/// build.
#[derive(Debug)]
struct CachedCorrelation {
    /// Handle id of the side the stored correlation treats as *left*.
    built_left_id: u64,
    built: Arc<Correlation>,
    flipped: OnceLock<Arc<Correlation>>,
}

impl CachedCorrelation {
    /// The correlation oriented so that the handle with id `left_id` is the left side.
    /// `flipped_left_views` is that handle's total view count (the dense map size of
    /// the transposed orientation).
    fn oriented(&self, left_id: u64, flipped_left_views: usize) -> Arc<Correlation> {
        if left_id == self.built_left_id {
            Arc::clone(&self.built)
        } else {
            Arc::clone(
                self.flipped
                    .get_or_init(|| Arc::new(self.built.flipped(flipped_left_views))),
            )
        }
    }
}

/// Cache key of one pair-level artifact: the two handles' process-unique ids as an
/// **unordered** pair (ids are never reused, so a dropped handle can never alias a
/// cached entry). A correlation is built from the two view webs alone and reads no
/// [`ViewsDiffOptions`], so every views option set shares the pair's one build.
type CorrelationKey = (u64, u64);

/// A cheaply-clonable handle to a trace plus its analysis artifacts.
///
/// Cloning a `PreparedTrace` copies an `Arc`, never the trace: all clones share one
/// [`LeanTrace`], one [`KeyedTrace`] and one [`ViewWeb`], built in one fold over the
/// entries when the handle is made and reused by every query — across diffs, batch
/// runs, regression analyses and threads. The handle [`Deref`](std::ops::Deref)s to
/// [`Trace`], so it can be passed wherever a `&Trace` is expected.
///
/// [`Engine::trace`] and [`PreparedTrace::new`] produce **full** handles, which also
/// keep the materialized [`Trace`]. [`Engine::load_prepared_reader`] produces
/// **streamed** handles: the serialized trace was ingested in one bounded-memory pass
/// and the full entries were never kept. Both forms diff and analyze through the same
/// code; only the whole-entry accessors — [`PreparedTrace::trace`] and `Deref` — are
/// restricted to full handles.
#[derive(Clone, Debug)]
pub struct PreparedTrace {
    inner: Arc<PreparedTraceInner>,
}

#[derive(Debug)]
struct PreparedTraceInner {
    /// Process-unique handle identity, used as a cache key for pair-level artifacts
    /// (never reused, unlike a raw `Arc` address).
    id: u64,
    /// The full trace, kept only by full handles.
    trace: Option<Trace>,
    artifacts: SideArtifacts,
    output: Vec<String>,
    run_error: Option<RuntimeError>,
}

static NEXT_HANDLE_ID: AtomicU64 = AtomicU64::new(0);

impl PreparedTraceInner {
    fn from_artifacts(trace: Option<Trace>, artifacts: SideArtifacts) -> Self {
        PreparedTraceInner {
            id: NEXT_HANDLE_ID.fetch_add(1, Ordering::Relaxed),
            trace,
            artifacts,
            output: Vec::new(),
            run_error: None,
        }
    }
}

impl PreparedTrace {
    /// Wraps an existing trace into a prepared handle — the in-memory load, e.g. of a
    /// [`rprism_format::read_trace_path`] result. Its lean context, keys and web are
    /// built now, in one pass over the entries.
    pub fn new(trace: Trace) -> Self {
        let artifacts = prepare_in_memory(&trace);
        PreparedTrace {
            inner: Arc::new(PreparedTraceInner::from_artifacts(Some(trace), artifacts)),
        }
    }

    /// Wraps the result of a traced program run, preserving its output and runtime
    /// error (if any) alongside the trace.
    pub fn from_outcome(outcome: RunOutcome) -> Self {
        let artifacts = prepare_in_memory(&outcome.trace);
        let mut inner = PreparedTraceInner::from_artifacts(Some(outcome.trace), artifacts);
        inner.output = outcome.output;
        inner.run_error = outcome.result.err();
        PreparedTrace {
            inner: Arc::new(inner),
        }
    }

    /// Wraps streamed artifacts into a handle that keeps no [`Trace`].
    pub(crate) fn from_streamed(artifacts: SideArtifacts) -> Self {
        PreparedTrace {
            inner: Arc::new(PreparedTraceInner::from_artifacts(None, artifacts)),
        }
    }

    /// The underlying trace.
    ///
    /// # Panics
    ///
    /// Panics for streamed handles ([`Engine::load_prepared_reader`]), which
    /// deliberately do not retain the full trace. Use [`PreparedTrace::try_trace`] to
    /// branch, or load with [`PreparedTrace::new`] when the entries themselves are
    /// needed.
    pub fn trace(&self) -> &Trace {
        self.try_trace().expect(
            "this handle was streaming-prepared (Engine::load_prepared_reader) and does \
             not retain the full trace; use try_trace()/PreparedTrace::new for entry access",
        )
    }

    /// The underlying trace, when this handle retains one (`None` for streamed
    /// handles).
    pub fn try_trace(&self) -> Option<&Trace> {
        self.inner.trace.as_ref()
    }

    /// The lean per-entry context; `Some` for every handle.
    pub fn lean(&self) -> Option<&LeanTrace> {
        Some(self.inner.artifacts.lean())
    }

    /// Returns `true` when this handle was produced by streaming ingestion and does
    /// not retain the full trace.
    pub fn is_streamed(&self) -> bool {
        self.inner.trace.is_none()
    }

    /// The trace metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.inner.artifacts.lean().meta
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.artifacts.lean().len()
    }

    /// Returns `true` when the trace has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A one-line rendering of entry `index` for reports: the full entry rendering
    /// when the handle retains the trace, a compact context line (thread, active
    /// class, method, event form) reconstructed from the lean artifacts otherwise.
    pub fn describe_entry(&self, index: usize) -> Option<String> {
        if let Some(trace) = &self.inner.trace {
            return trace.entries.get(index).map(|e| e.render());
        }
        let entry = self.side().entries().get(index)?;
        let key = self.keyed().compact(index);
        let name = key.name.map(|s| format!(" {s}")).unwrap_or_default();
        Some(format!(
            "[e{index} {} in {}.{}] {:?}{name} ({} operands)",
            entry.tid,
            entry.active.class,
            entry.method,
            key.kind,
            key.num_operands(),
        ))
    }

    /// The program output recorded while tracing (empty for handles made with
    /// [`PreparedTrace::new`]).
    pub fn output(&self) -> &[String] {
        &self.inner.output
    }

    /// The runtime error the traced run ended with, if any.
    pub fn run_error(&self) -> Option<&RuntimeError> {
        self.inner.run_error.as_ref()
    }

    /// The precomputed event keys of the trace, shared by all clones.
    pub fn keyed(&self) -> &KeyedTrace {
        self.side().keyed()
    }

    /// The view web of the trace, shared by all clones.
    pub fn web(&self) -> &ViewWeb {
        self.side().web()
    }

    /// The handle as a [`DiffSide`] of the views differencer.
    pub fn side(&self) -> DiffSide<'_> {
        self.inner.artifacts.side()
    }
}

impl std::ops::Deref for PreparedTrace {
    type Target = Trace;

    /// Derefs to the full trace.
    ///
    /// # Panics
    ///
    /// Panics for streamed handles, like [`PreparedTrace::trace`]. Note that
    /// [`PreparedTrace::len`]/[`PreparedTrace::meta`] are inherent methods and work for
    /// every handle without going through `Deref`.
    fn deref(&self) -> &Trace {
        self.trace()
    }
}

impl From<Trace> for PreparedTrace {
    fn from(trace: Trace) -> Self {
        PreparedTrace::new(trace)
    }
}

impl From<RunOutcome> for PreparedTrace {
    fn from(outcome: RunOutcome) -> Self {
        PreparedTrace::from_outcome(outcome)
    }
}

/// The four prepared traces of one regression-cause analysis (paper §4.1), held as
/// cheap handles: constructing or cloning a `RegressionInput` never copies a trace, and
/// the underlying artifacts stay shared with every other query over the same handles.
#[derive(Clone, Debug)]
pub struct RegressionInput {
    /// Original (correct) version, regressing test case.
    pub old_regressing: PreparedTrace,
    /// New (regressing) version, regressing test case.
    pub new_regressing: PreparedTrace,
    /// Original version, similar but non-regressing test case.
    pub old_passing: PreparedTrace,
    /// New version, similar but non-regressing test case.
    pub new_passing: PreparedTrace,
    /// Per-input override of the engine's analysis mode (how D is computed from A, B,
    /// C). `None` uses the engine default.
    pub mode: Option<AnalysisMode>,
}

impl RegressionInput {
    /// Bundles four prepared handles (handles are `Arc`s — pass clones freely).
    pub fn new(
        old_regressing: PreparedTrace,
        new_regressing: PreparedTrace,
        old_passing: PreparedTrace,
        new_passing: PreparedTrace,
    ) -> Self {
        RegressionInput {
            old_regressing,
            new_regressing,
            old_passing,
            new_passing,
            mode: None,
        }
    }

    /// Overrides the analysis mode for this input (e.g. the `(A − B) − C` code-removal
    /// variant for one scenario of a batch).
    pub fn with_mode(mut self, mode: AnalysisMode) -> Self {
        self.mode = Some(mode);
        self
    }
}

/// The session object of the public API: configuration plus prepared-artifact reuse.
///
/// Build one with [`Engine::builder`] (or [`Engine::new`] for the defaults), prepare
/// each trace once, then run as many queries as needed:
///
/// ```
/// use rprism::Engine;
///
/// let engine = Engine::new();
/// let old = engine.trace_source(
///     "class C extends Object { Int x; Unit set(Int v) { this.x = v; } }
///      main { let c = new C(0); c.set(32); }",
///     "old",
/// )?;
/// let new = engine.trace_source(
///     "class C extends Object { Int x; Unit set(Int v) { this.x = v; } }
///      main { let c = new C(0); c.set(1); }",
///     "new",
/// )?;
/// let diff = engine.diff(&old, &new)?;
/// assert!(diff.num_differences() > 0);
/// # Ok::<(), rprism::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct Engine {
    algorithm: DiffAlgorithm,
    mode: AnalysisMode,
    render: RenderOptions,
    /// The observability domain pipeline spans and phase timers record into
    /// ([`EngineBuilder::obs`] / [`Engine::with_obs`]); disabled (free and inert) by
    /// default.
    obs: Obs,
    /// Session cache of pair-level artifacts: one view [`Correlation`] per unordered
    /// handle pair, weight 1 each. Shared by engine clones.
    correlations: Arc<SharedCache<CorrelationKey, Arc<CachedCorrelation>>>,
    /// How many correlations this session built (flips are transposes, not builds).
    correlation_builds: Arc<AtomicU64>,
}

// Compile-time pin of the concurrency contract the server stack (and every embedder
// sharing one session across worker threads) builds on: an `Engine` and its prepared
// handles may be shared freely across threads. Losing either bound (e.g. by slipping a
// `Cell` or `Rc` into the session state) is a build error here, not a runtime surprise
// in a downstream crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<PreparedTrace>();
    assert_send_sync::<RegressionInput>();
};

impl Default for Engine {
    fn default() -> Self {
        Engine::builder().build()
    }
}

impl Engine {
    /// An engine with the default configuration: views-based differencing with the
    /// paper's evaluation parameters, `Intersect` analysis mode.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder {
            algorithm: DiffAlgorithm::Views(ViewsDiffOptions::default()),
            mode: AnalysisMode::default(),
            render: RenderOptions::default(),
            obs: Obs::disabled(),
        }
    }

    /// The observability domain this engine records into (disabled unless configured
    /// via [`EngineBuilder::obs`] or [`Engine::with_obs`]).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// A clone of this engine recording into `obs`. Everything else — including the
    /// session correlation cache — is shared with the original, so attaching an
    /// observer to an existing session loses no cached artifacts.
    pub fn with_obs(&self, obs: Obs) -> Engine {
        let mut engine = self.clone();
        engine.obs = obs;
        engine
    }

    /// The configured differencing algorithm.
    pub fn algorithm(&self) -> &DiffAlgorithm {
        &self.algorithm
    }

    /// The configured default analysis mode.
    pub fn analysis_mode(&self) -> AnalysisMode {
        self.mode
    }

    /// The configured report render options.
    pub fn render_options(&self) -> &RenderOptions {
        &self.render
    }

    /// Streams a serialized trace straight into a prepared handle in **one
    /// bounded-memory pass**: the encoding (binary `.rtr` or JSONL) is sniffed from the
    /// content, and symbols are interned, event keys computed, the view web
    /// incrementally extended and the lean per-entry context accumulated as each entry
    /// is decoded, on the calling thread — the full trace is never materialized, and
    /// one batch of [`BATCH_ENTRIES`](crate::BATCH_ENTRIES) decoded entries is alive at
    /// a time. Any byte source will do: an opened file, a trace repository's blob, a
    /// network upload, or a fault-injection shim in a test.
    ///
    /// The returned handle is a *streamed* handle: every diff/analysis path accepts it
    /// interchangeably with full handles (with identical results), but
    /// [`PreparedTrace::trace`] is unavailable on it. Load with
    /// [`PreparedTrace::new`] over [`rprism_format::read_trace`] when the entries
    /// themselves are needed.
    ///
    /// A failed load leaves the engine untouched and reusable: partial artifacts are
    /// dropped, no cache entry is created.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Format`] when the stream is empty, truncated, corrupt,
    /// or uses an unsupported format version.
    pub fn load_prepared_reader(&self, input: impl std::io::Read) -> Result<PreparedTrace> {
        let _load = self.obs.span("engine.load");
        let reader = TraceReader::new(input)?;
        let (artifacts, phases) = stream_prepare(reader)?;
        self.obs.phase("pipeline.decode", phases.decode);
        self.obs.phase("pipeline.key", phases.key);
        self.obs.phase("pipeline.web", phases.web);
        Ok(PreparedTrace::from_streamed(artifacts))
    }

    /// Opens a push-driven live watch: an incremental diff of a *new* trace that is
    /// still being produced against the prepared `old` handle. Feed entries with
    /// [`Watch::push_entries`] as they arrive (any chunk boundaries), collect the
    /// provisional events, and call [`Watch::finish`] at end of stream for the
    /// authoritative verdict — byte-identical (matching, difference sequences, compare
    /// counts) to [`Engine::diff`] of the same two traces.
    ///
    /// The watch always diffs under the views semantics (the only incremental
    /// algorithm): the engine's views options when its algorithm is
    /// [`DiffAlgorithm::Views`], the default views options otherwise.
    ///
    /// `meta` identifies the watched trace; for a serialized stream it is the header a
    /// [`rprism_format::TailDecoder`] decodes first, and the decoder's batches feed
    /// [`Watch::push_batch`].
    pub fn watch(&self, old: &PreparedTrace, meta: TraceMeta) -> Watch {
        let options = match &self.algorithm {
            DiffAlgorithm::Views(options) => options.clone(),
            _ => ViewsDiffOptions::default(),
        };
        let session = DiffSession::new(meta, options);
        Watch::new(old.clone(), session, self.obs.clone())
    }

    /// Runs the `rprism-check` static analysis over a serialized trace in one
    /// bounded-memory streaming pass — the bytes (a file, a repository blob, a network
    /// upload) are decoded entry by entry straight into the checker's fold, never
    /// materializing the trace. The default rule configuration applies; the report is
    /// returned regardless of its severity — callers decide what to deny. An in-memory
    /// [`Trace`] is checked with [`rprism_check::check_trace`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Format`] when the stream is empty, truncated, corrupt,
    /// or uses an unsupported format version.
    pub fn check_reader(&self, input: impl std::io::Read) -> Result<CheckReport> {
        self.check_reader_with(input, CheckConfig::default())
    }

    /// [`Engine::check_reader`] under an explicit rule configuration instead of the
    /// default one — for callers (like the CLI's `check` and the trace-repository
    /// server) that apply per-request severity overrides over one shared engine.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Format`] when the stream is empty, truncated, corrupt,
    /// or uses an unsupported format version.
    pub fn check_reader_with(
        &self,
        input: impl std::io::Read,
        config: CheckConfig,
    ) -> Result<CheckReport> {
        let mut reader = TraceReader::new(input)?;
        let mut checker = Checker::with_config(config);
        let mut batch = EntryBatch::new();
        while reader.read_refs(&mut batch, BATCH_ENTRIES)? > 0 {
            batch.iter().for_each(|entry| checker.observe(entry));
        }
        let mut report = checker.finish();
        report.trace_name = reader.meta().name.clone();
        Ok(report)
    }

    /// Traces a parsed program under the default tracing configuration.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Lang`] when the program fails validation.
    pub fn trace(&self, program: &Program, label: &str) -> Result<PreparedTrace> {
        let outcome = run_traced(program, TraceMeta::new(label, "", ""), VmConfig::default())?;
        Ok(PreparedTrace::from_outcome(outcome))
    }

    /// Parses and traces a program given in concrete syntax.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Lang`] when the source does not parse or validate.
    pub fn trace_source(&self, source: &str, label: &str) -> Result<PreparedTrace> {
        let program = parse_program(source)?;
        self.trace(&program, label)
    }

    /// Differences two prepared traces under the engine's algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Diff`] when the LCS baseline exhausts its memory budget; the
    /// views-based algorithm never fails.
    pub fn diff(&self, left: &PreparedTrace, right: &PreparedTrace) -> Result<TraceDiffResult> {
        Ok(self.diff_with(left, right, &self.algorithm)?)
    }

    /// [`Engine::diff`] under an explicit algorithm, overriding the engine's configured
    /// one for this call only. This is how a shared session (the server, most notably)
    /// honors per-request algorithm selection without building one engine per option
    /// set; every cached artifact is shared — the pair correlation reads no views
    /// options, so one build serves the engine's own options and every override.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Diff`] when the LCS baseline exhausts its memory budget;
    /// the views and anchored algorithms never fail.
    pub fn diff_with_algorithm(
        &self,
        left: &PreparedTrace,
        right: &PreparedTrace,
        algorithm: &DiffAlgorithm,
    ) -> Result<TraceDiffResult> {
        Ok(self.diff_with(left, right, algorithm)?)
    }

    /// Differences many pairs, fanned out over the host's cores ([`par::map_ordered`]).
    ///
    /// Results are returned in input order; each pair's cost meter is computed
    /// independently and deterministically (per-pair numbers are identical to a
    /// sequential [`Engine::diff`] of that pair), so summing or comparing costs across
    /// the batch is reproducible.
    ///
    /// # Errors
    ///
    /// Returns the first error in input order (only possible with the LCS baseline).
    pub fn diff_many(
        &self,
        pairs: &[(PreparedTrace, PreparedTrace)],
    ) -> Result<Vec<TraceDiffResult>> {
        // Each diff runs inline inside its batch worker (`par` never nests fan-outs).
        let diffs = par::map_ordered(pairs, |(left, right)| {
            self.diff_with(left, right, &self.algorithm)
        });
        Ok(diffs.into_iter().collect::<std::result::Result<_, _>>()?)
    }

    /// Runs the full §4.1 regression-cause analysis over four prepared handles: three
    /// diffs (A, B, C), the set algebra for D, and the sequence verdicts. The analysis
    /// borrows the handles' cached artifacts and routes its three diffs through the
    /// session's pair-correlation cache — no trace is copied and nothing is re-derived,
    /// whether across repeated analyses or between an analysis and plain diffs of the
    /// same pairs.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Diff`] when the LCS baseline exhausts its memory budget; the
    /// views-based algorithm never fails.
    pub fn analyze(&self, input: &RegressionInput) -> Result<RegressionReport> {
        Ok(self.analyze_with(input, &self.algorithm)?)
    }

    /// [`Engine::analyze`] under an explicit algorithm, overriding the engine's
    /// configured one for this call only (see [`Engine::diff_with_algorithm`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::Diff`] when the LCS baseline exhausts its memory budget;
    /// the views and anchored algorithms never fail.
    pub fn analyze_with_algorithm(
        &self,
        input: &RegressionInput,
        algorithm: &DiffAlgorithm,
    ) -> Result<RegressionReport> {
        Ok(self.analyze_with(input, algorithm)?)
    }

    /// Runs many regression analyses, fanned out like [`Engine::diff_many`].
    /// Results are returned in input order (deterministic, like [`Engine::diff_many`]);
    /// each input's `mode` override is honored.
    ///
    /// # Errors
    ///
    /// Returns the first error in input order (only possible with the LCS baseline).
    pub fn analyze_many(&self, inputs: &[RegressionInput]) -> Result<Vec<RegressionReport>> {
        let reports = par::map_ordered(inputs, |input| self.analyze_with(input, &self.algorithm));
        Ok(reports.into_iter().collect::<std::result::Result<_, _>>()?)
    }

    /// Renders a regression report (candidate sequences with dynamic state, then the
    /// set summary) under the engine's render options. Full handles render complete
    /// entry lines; streamed handles render compact context lines reconstructed from
    /// their lean artifacts.
    pub fn render_report(&self, report: &RegressionReport, input: &RegressionInput) -> String {
        rprism_regress::render_report_with(
            report,
            &self.render,
            |idx| input.old_regressing.describe_entry(idx),
            |idx| input.new_regressing.describe_entry(idx),
        )
    }

    /// Renders at most `max_sequences` difference sequences of a diff of `left` and
    /// `right`: complete entry lines from full handles, compact context lines from
    /// streamed ones.
    pub fn render_diff(
        &self,
        result: &TraceDiffResult,
        left: &PreparedTrace,
        right: &PreparedTrace,
        max_sequences: usize,
    ) -> String {
        result.render_with(
            max_sequences,
            |idx| left.describe_entry(idx),
            |idx| right.describe_entry(idx),
        )
    }

    /// The pair's view correlation, from the session cache or built (and cached) now.
    ///
    /// The cache is keyed on the **unordered** handle pair, and a concurrent cold
    /// stampede on a pair builds it once. The first query of a pair builds the
    /// correlation in *its* orientation (so a cold diff matches the one-shot
    /// `views_diff_sides` path exactly, as `tests/engine_equivalence.rs` pins), and the
    /// other orientation is served as the exact transpose of that build. Correlation is
    /// a greedy heuristic that is not orientation-invariant, so `analyze` after a
    /// reversed `diff` reuses the one build instead of deriving a different one.
    fn correlation_for(&self, left: &PreparedTrace, right: &PreparedTrace) -> Arc<Correlation> {
        let (left_id, right_id) = (left.inner.id, right.inner.id);
        let key = (left_id.min(right_id), left_id.max(right_id));
        let Ok((cached, outcome)) = self.correlations.get_or_try_insert_with(key, 1, || {
            Ok::<_, Infallible>(Arc::new(CachedCorrelation {
                built_left_id: left_id,
                built: Arc::new(Correlation::build(left.web(), right.web())),
                flipped: OnceLock::new(),
            }))
        });
        if let CacheOutcome::Built { .. } = outcome {
            self.correlation_builds.fetch_add(1, Ordering::Relaxed);
        }
        cached.oriented(left_id, left.web().total_views())
    }

    /// Number of trace pairs whose view correlation is currently cached in this session
    /// (engine clones share the cache; least-recently-used eviction caps it).
    pub fn cached_correlations(&self) -> usize {
        self.correlations.len()
    }

    /// Number of view correlations this session actually built (flipped-orientation
    /// lookups are transposes and do not count). With the unordered LRU cache, this is
    /// the cache-efficiency metric: repeats, reversed diffs and analyze-after-diff of
    /// the same pair all leave it unchanged.
    pub fn correlation_builds(&self) -> u64 {
        self.correlation_builds.load(Ordering::Relaxed)
    }

    fn diff_with(
        &self,
        left: &PreparedTrace,
        right: &PreparedTrace,
        algorithm: &DiffAlgorithm,
    ) -> std::result::Result<TraceDiffResult, DiffError> {
        let _scan = self.obs.span("pipeline.scan");
        match algorithm {
            DiffAlgorithm::Views(options) => {
                let correlation = self.correlation_for(left, right);
                Ok(views_diff_sides_correlated(
                    &left.side(),
                    &right.side(),
                    &correlation,
                    options,
                ))
            }
            DiffAlgorithm::Lcs(options) => lcs_diff_prepared(left.keyed(), right.keyed(), options),
            DiffAlgorithm::Anchored(options) => {
                Ok(anchored_diff_prepared(left.keyed(), right.keyed(), options))
            }
        }
    }

    fn analyze_with(
        &self,
        input: &RegressionInput,
        algorithm: &DiffAlgorithm,
    ) -> std::result::Result<RegressionReport, DiffError> {
        let prepared = PreparedInput {
            old_regressing: input.old_regressing.side(),
            new_regressing: input.new_regressing.side(),
            old_passing: input.old_passing.side(),
            new_passing: input.new_passing.side(),
        };
        // The three comparisons run through `diff_with`, i.e. through the same
        // pair-correlation cache as `Engine::diff` — an analysis preceded (or followed)
        // by plain diffs of the same pairs shares every artifact with them.
        analyze_prepared_with(
            &prepared,
            algorithm,
            input.mode.unwrap_or(self.mode),
            |comparison, left_ref, right_ref| {
                let (left, right) = match comparison {
                    AnalysisComparison::Suspected => (&input.old_regressing, &input.new_regressing),
                    AnalysisComparison::Expected => (&input.old_passing, &input.new_passing),
                    AnalysisComparison::Regression => (&input.new_passing, &input.new_regressing),
                };
                // The pair orientation is defined by the regress crate (steps A/B/C);
                // the refs it hands us must be the handles we picked, or the cached
                // correlation would belong to a different comparison.
                debug_assert!(
                    std::ptr::eq(left_ref.keyed(), left.keyed())
                        && std::ptr::eq(right_ref.keyed(), right.keyed()),
                    "analysis comparison {comparison:?} maps to different handles than \
                     the prepared input supplied"
                );
                self.diff_with(left, right, algorithm)
            },
        )
    }
}

/// Configures and builds an [`Engine`].
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    algorithm: DiffAlgorithm,
    mode: AnalysisMode,
    render: RenderOptions,
    obs: Obs,
}

impl EngineBuilder {
    /// The differencing algorithm (and its options) used by every diff and analysis.
    pub fn algorithm(mut self, algorithm: DiffAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects views-based differencing (§3.3) with the given options.
    pub fn views_options(self, options: ViewsDiffOptions) -> Self {
        self.algorithm(DiffAlgorithm::Views(options))
    }

    /// Selects the LCS baseline (§3.2) with the given options.
    pub fn lcs_baseline(self, options: LcsDiffOptions) -> Self {
        self.algorithm(DiffAlgorithm::Lcs(options))
    }

    /// Selects the anchor-based (patience/histogram) mode with the given options.
    /// Verdict-equivalent to the exact modes but near-linear on huge traces; matchings
    /// may legitimately differ (see MIGRATION.md, "Choosing a diff algorithm").
    pub fn anchored(self, options: AnchoredDiffOptions) -> Self {
        self.algorithm(DiffAlgorithm::Anchored(options))
    }

    /// Default analysis mode (how the candidate set D is computed); individual
    /// [`RegressionInput`]s may override it.
    pub fn analysis_mode(mut self, mode: AnalysisMode) -> Self {
        self.mode = mode;
        self
    }

    /// Report render options used by [`Engine::render_report`].
    pub fn render_options(mut self, options: RenderOptions) -> Self {
        self.render = options;
        self
    }

    /// The observability domain the engine records pipeline spans (`engine.load`,
    /// `pipeline.scan`) and ingest phase timers (`pipeline.decode` / `pipeline.key` /
    /// `pipeline.web`) into. Defaults to the disabled observer, under which every
    /// recording call is free and inert.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Engine {
        Engine {
            algorithm: self.algorithm,
            mode: self.mode,
            render: self.render,
            obs: self.obs,
            correlations: Arc::new(SharedCache::new(CORRELATION_CACHE_CAP as u64)),
            correlation_builds: Arc::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Error;
    use rprism_format::{read_trace_path, trace_to_bytes, write_trace_path, Encoding};

    const SRC: &str = r#"
        class Counter extends Object {
            Int count;
            Int bump(Int by) { this.count = this.count + by; return this.count; }
        }
        main { let c = new Counter(0); c.bump(2); c.bump(3); }
    "#;

    fn regression_sources(min: i64, probe: i64) -> String {
        format!(
            r#"
            class Range extends Object {{ Int min; Int max; }}
            class App extends Object {{
                Range r;
                Int hits;
                Unit setup() {{ this.r = new Range({min}, 127); }}
                Unit check(Int c) {{
                    if ((c >= this.r.min) && (c <= this.r.max)) {{ this.hits = this.hits + 1; }}
                }}
            }}
            main {{ let a = new App(null, 0); a.setup(); a.check({probe}); a.check(64); }}
            "#
        )
    }

    fn regression_input(engine: &Engine) -> RegressionInput {
        let t = |min: i64, probe: i64, label: &str| {
            engine
                .trace_source(&regression_sources(min, probe), label)
                .unwrap()
        };
        RegressionInput::new(
            t(32, 20, "or"),
            t(1, 20, "nr"),
            t(32, 64, "op"),
            t(1, 64, "np"),
        )
    }

    #[test]
    fn trace_source_produces_a_prepared_trace() {
        let engine = Engine::new();
        let prepared = engine.trace_source(SRC, "demo").unwrap();
        assert!(prepared.run_error().is_none());
        assert!(prepared.trace().len() >= 10);
        // Every artifact is built when the handle is made.
        assert_eq!(prepared.keyed().len(), prepared.len());
        assert_eq!(prepared.side().entries().len(), prepared.len());
    }

    #[test]
    fn diff_of_identical_traces_is_empty() {
        let engine = Engine::new();
        let a = engine.trace_source(SRC, "a").unwrap();
        let b = engine.trace_source(SRC, "b").unwrap();
        assert_eq!(engine.diff(&a, &b).unwrap().num_differences(), 0);
    }

    #[test]
    fn parse_errors_are_reported() {
        let engine = Engine::new();
        let err = engine.trace_source("main { let = ; }", "bad").unwrap_err();
        assert!(matches!(err, Error::Lang(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn artifacts_are_built_at_most_once_across_queries() {
        let engine = Engine::new();
        let a = engine.trace_source(SRC, "a").unwrap();
        let b = engine.trace_source(SRC, "b").unwrap();
        for _ in 0..3 {
            engine.diff(&a, &b).unwrap();
        }
        // Clones share the artifacts of the original handle.
        let c = a.clone();
        engine.diff(&c, &b).unwrap();
        assert!(std::ptr::eq(a.keyed(), c.keyed()));
        assert!(std::ptr::eq(a.web(), c.web()));
        // The pair-level correlation is cached too: four diffs of one pair, one build
        // (handle clones share their original's identity).
        assert_eq!(engine.cached_correlations(), 1);
        assert_eq!(engine.correlation_builds(), 1);
    }

    #[test]
    fn regression_analysis_end_to_end() {
        let engine = Engine::new();
        let input = regression_input(&engine);
        let report = engine.analyze(&input).unwrap();
        assert!(!report.suspected.is_empty());
        assert!(report.candidates.len() <= report.suspected.len());
        assert!(!engine.render_report(&report, &input).is_empty());
    }

    #[test]
    fn batch_apis_match_single_calls() {
        let engine = Engine::new();
        let a = engine
            .trace_source(&regression_sources(32, 20), "a")
            .unwrap();
        let b = engine
            .trace_source(&regression_sources(1, 20), "b")
            .unwrap();
        let c = engine
            .trace_source(&regression_sources(32, 64), "c")
            .unwrap();

        let singles: Vec<_> = [(&a, &b), (&a, &c), (&b, &c)]
            .iter()
            .map(|(l, r)| engine.diff(l, r).unwrap())
            .collect();
        let batch = engine
            .diff_many(&[
                (a.clone(), b.clone()),
                (a.clone(), c.clone()),
                (b.clone(), c.clone()),
            ])
            .unwrap();
        assert_eq!(batch.len(), singles.len());
        for (one, many) in singles.iter().zip(&batch) {
            assert_eq!(
                one.matching.normalized_pairs(),
                many.matching.normalized_pairs()
            );
            assert_eq!(one.sequences, many.sequences);
            assert_eq!(one.cost.compare_ops, many.cost.compare_ops);
        }

        let input = regression_input(&engine);
        let single = engine.analyze(&input).unwrap();
        let many = engine
            .analyze_many(&[input.clone(), input.clone()])
            .unwrap();
        assert_eq!(many.len(), 2);
        for report in &many {
            assert_eq!(report.suspected, single.suspected);
            assert_eq!(report.candidates, single.candidates);
            assert_eq!(report.compare_ops, single.compare_ops);
        }
    }

    #[test]
    fn sequential_engine_agrees_with_parallel_engine() {
        // Two sessions, so each builds its own correlation on its own side of `par`.
        let (par_engine, seq_engine) = (Engine::new(), Engine::new());
        let a = par_engine
            .trace_source(&regression_sources(32, 20), "a")
            .unwrap();
        let b = par_engine
            .trace_source(&regression_sources(1, 20), "b")
            .unwrap();
        let p = par::with_workers(4, || par_engine.diff(&a, &b)).unwrap();
        let s = par::inline(|| seq_engine.diff(&a, &b)).unwrap();
        assert_eq!(p.matching.normalized_pairs(), s.matching.normalized_pairs());
        assert_eq!(p.cost.compare_ops, s.cost.compare_ops);
    }

    #[test]
    fn lcs_engine_uses_the_baseline() {
        let engine = Engine::builder()
            .lcs_baseline(LcsDiffOptions::default())
            .build();
        let a = engine.trace_source(SRC, "a").unwrap();
        let b = engine.trace_source(SRC, "b").unwrap();
        let diff = engine.diff(&a, &b).unwrap();
        assert_eq!(diff.algorithm, "lcs");
        // The baseline needs no correlation; none was built.
        assert_eq!(engine.correlation_builds(), 0);
    }

    #[test]
    fn anchored_engine_diffs_and_analyzes_without_webs() {
        let engine = Engine::builder()
            .anchored(AnchoredDiffOptions::default())
            .build();
        let a = engine.trace_source(SRC, "a").unwrap();
        let b = engine.trace_source(SRC, "b").unwrap();
        let diff = engine.diff(&a, &b).unwrap();
        assert_eq!(diff.algorithm, "anchored");
        assert_eq!(diff.num_differences(), 0);
        // Anchoring consumes only the keyed traces; no correlation was built.
        assert_eq!(engine.correlation_builds(), 0);

        let input = regression_input(&engine);
        let report = engine.analyze(&input).unwrap();
        assert_eq!(report.algorithm, "anchored");
        assert!(!report.suspected.is_empty());

        // Batch runs agree with single calls under the anchored mode too.
        let batch = engine.diff_many(&[(a.clone(), b.clone())]).unwrap();
        assert_eq!(
            batch[0].matching.normalized_pairs(),
            diff.matching.normalized_pairs()
        );
    }

    #[test]
    fn per_call_algorithm_override_leaves_the_engine_default_alone() {
        let engine = Engine::new();
        let a = engine.trace_source(SRC, "a").unwrap();
        let b = engine.trace_source(SRC, "b").unwrap();
        assert_eq!(engine.diff(&a, &b).unwrap().algorithm, "views");
        let lcs = engine
            .diff_with_algorithm(&a, &b, &DiffAlgorithm::Lcs(LcsDiffOptions::default()))
            .unwrap();
        assert_eq!(lcs.algorithm, "lcs");
        let anchored = engine
            .diff_with_algorithm(
                &a,
                &b,
                &DiffAlgorithm::Anchored(AnchoredDiffOptions::default()),
            )
            .unwrap();
        assert_eq!(anchored.algorithm, "anchored");
        // The engine's own configuration is untouched.
        assert_eq!(engine.diff(&a, &b).unwrap().algorithm, "views");

        let input = regression_input(&engine);
        let report = engine
            .analyze_with_algorithm(
                &input,
                &DiffAlgorithm::Anchored(AnchoredDiffOptions::default()),
            )
            .unwrap();
        assert_eq!(report.algorithm, "anchored");
        assert_eq!(engine.analyze(&input).unwrap().algorithm, "views");
    }

    #[test]
    fn correlation_cache_is_shared_across_views_option_sets() {
        // A correlation is built from the two webs alone and reads no views options, so
        // one build per pair serves every option set — and a diff answered from the
        // shared entry equals the same diff on a fresh engine.
        let engine = Engine::new();
        let a = engine
            .trace_source(&regression_sources(32, 20), "a")
            .unwrap();
        let b = engine
            .trace_source(&regression_sources(1, 20), "b")
            .unwrap();
        engine.diff(&a, &b).unwrap();
        assert_eq!(engine.correlation_builds(), 1);
        assert_eq!(engine.cached_correlations(), 1);

        // Same pair, different views options: the one entry serves it.
        let strict = DiffAlgorithm::Views(ViewsDiffOptions {
            relaxed_correlation: false,
            ..Default::default()
        });
        let shared = engine.diff_with_algorithm(&a, &b, &strict).unwrap();
        assert_eq!(engine.correlation_builds(), 1);
        assert_eq!(engine.cached_correlations(), 1);
        let fresh = Engine::new().diff_with_algorithm(&a, &b, &strict).unwrap();
        assert_eq!(
            shared.matching.normalized_pairs(),
            fresh.matching.normalized_pairs()
        );
        assert_eq!(shared.sequences, fresh.sequences);
        assert_eq!(shared.cost.compare_ops, fresh.cost.compare_ops);

        // A batch fanned out over workers shares the entry a plain `diff` built
        // (scheduling is not semantics — diff/diff_many stay at one build per pair).
        par::with_workers(4, || {
            engine.diff_many(&[(a.clone(), b.clone()), (b.clone(), a.clone())])
        })
        .unwrap();
        assert_eq!(engine.correlation_builds(), 1);

        // Non-views algorithms never build or consult correlations.
        engine
            .diff_with_algorithm(&a, &b, &DiffAlgorithm::Lcs(LcsDiffOptions::default()))
            .unwrap();
        engine
            .diff_with_algorithm(
                &a,
                &b,
                &DiffAlgorithm::Anchored(AnchoredDiffOptions::default()),
            )
            .unwrap();
        assert_eq!(engine.correlation_builds(), 1);
        assert_eq!(engine.cached_correlations(), 1);
    }

    #[test]
    fn store_and_load_round_trip_through_both_encodings() {
        let dir = std::env::temp_dir().join(format!("rprism-engine-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::new();
        let a = engine
            .trace_source(&regression_sources(32, 20), "a")
            .unwrap();
        let b = engine
            .trace_source(&regression_sources(1, 20), "b")
            .unwrap();

        let pa = dir.join("a.jsonl");
        let pb = dir.join("b.rtr");
        write_trace_path(a.trace(), &pa, Encoding::Jsonl).unwrap();
        write_trace_path(b.trace(), &pb, Encoding::Binary).unwrap();

        let la = PreparedTrace::new(read_trace_path(&pa).unwrap());
        let lb = PreparedTrace::new(read_trace_path(&pb).unwrap());
        assert_eq!(la.trace(), a.trace());
        assert_eq!(lb.trace(), b.trace());

        // Diffing loaded traces matches diffing the originals exactly.
        let original = engine.diff(&a, &b).unwrap();
        let loaded = engine.diff(&la, &lb).unwrap();
        assert_eq!(
            original.matching.normalized_pairs(),
            loaded.matching.normalized_pairs()
        );
        assert_eq!(original.cost.compare_ops, loaded.cost.compare_ops);

        assert!(read_trace_path(dir.join("missing.rtr")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn observed_engines_record_pipeline_spans_and_phases() {
        let obs = rprism_obs::Obs::enabled();
        let engine = Engine::builder().obs(obs.clone()).build();
        assert!(engine.obs().is_enabled());
        let a = engine
            .trace_source(&regression_sources(32, 20), "a")
            .unwrap();
        let b = engine
            .trace_source(&regression_sources(1, 20), "b")
            .unwrap();
        let ba = trace_to_bytes(a.trace(), Encoding::Binary).unwrap();
        let bb = trace_to_bytes(b.trace(), Encoding::Binary).unwrap();

        let la = engine.load_prepared_reader(&ba[..]).unwrap();
        let lb = engine.load_prepared_reader(&bb[..]).unwrap();
        engine.diff(&la, &lb).unwrap();

        let snapshot = obs.snapshot();
        for metric in [
            "engine.load",
            "pipeline.decode",
            "pipeline.key",
            "pipeline.web",
        ] {
            let Some(crate::obs::MetricValue::Histogram(h)) = snapshot.get(metric) else {
                panic!("missing histogram {metric}");
            };
            assert_eq!(h.count, 2, "{metric} observed per load");
        }
        let names: Vec<&str> = obs.recent_spans().iter().map(|s| s.name).collect();
        assert!(names.contains(&"engine.load"));
        assert!(names.contains(&"pipeline.scan"));

        // `with_obs` swaps the observer but shares the session caches.
        let detached = engine.with_obs(rprism_obs::Obs::disabled());
        assert!(!detached.obs().is_enabled());
        detached.diff(&la, &lb).unwrap();
        assert_eq!(detached.correlation_builds(), engine.correlation_builds());
    }

    #[test]
    fn observed_watches_record_push_and_finish_spans() {
        let obs = rprism_obs::Obs::enabled();
        let engine = Engine::builder().obs(obs.clone()).build();
        let old = engine
            .trace_source(&regression_sources(32, 20), "old")
            .unwrap();
        let new = engine
            .trace_source(&regression_sources(1, 20), "new")
            .unwrap();
        let mut watch = engine.watch(&old, new.trace().meta.clone());
        let chunks = new.trace().entries.chunks(16);
        let pushes = chunks.len() as u64;
        for chunk in chunks {
            watch.push_entries(chunk).unwrap();
        }
        watch.finish().unwrap();

        let snapshot = obs.snapshot();
        for (span, count) in [("watch.push", pushes), ("watch.finish", 1)] {
            let Some(crate::obs::MetricValue::Histogram(h)) = snapshot.get(span) else {
                panic!("missing histogram {span}");
            };
            assert_eq!(h.count, count, "{span} observed per call");
        }
        let names: Vec<&str> = obs.recent_spans().iter().map(|s| s.name).collect();
        assert!(names.contains(&"watch.push"));
        assert!(names.contains(&"watch.finish"));
    }

    #[test]
    fn reversed_diffs_and_analyze_share_one_correlation_build() {
        // Regression test for the ordered-pair FIFO cache: `analyze`/`diff` of (old,
        // new) after `diff` of (new, old) used to rebuild the correlation from scratch.
        // The unordered cache builds once and serves the opposite orientation as an
        // exact transpose.
        let engine = Engine::new();
        let a = engine
            .trace_source(&regression_sources(32, 20), "a")
            .unwrap();
        let b = engine
            .trace_source(&regression_sources(1, 20), "b")
            .unwrap();

        let reversed = engine.diff(&b, &a).unwrap();
        assert_eq!(engine.correlation_builds(), 1);
        let forward = engine.diff(&a, &b).unwrap();
        assert_eq!(
            engine.correlation_builds(),
            1,
            "the opposite orientation must reuse the cached build"
        );
        assert_eq!(engine.cached_correlations(), 1);

        // The shared (transposed) correlation yields the same diff a fresh engine
        // computes for this orientation.
        let fresh = Engine::new();
        let independent = fresh.diff(&a, &b).unwrap();
        assert_eq!(
            forward.matching.normalized_pairs(),
            independent.matching.normalized_pairs()
        );
        assert_eq!(forward.cost.compare_ops, independent.cost.compare_ops);
        // And the matchings of the two orientations mirror each other.
        let mut mirrored: Vec<(usize, usize)> = reversed
            .matching
            .normalized_pairs()
            .iter()
            .map(|&(l, r)| (r, l))
            .collect();
        mirrored.sort_unstable();
        assert_eq!(forward.matching.normalized_pairs(), mirrored);
    }

    #[test]
    fn correlation_cache_evicts_least_recently_used_not_oldest() {
        let engine = Engine::new();
        let a = engine
            .trace_source(&regression_sources(32, 20), "a")
            .unwrap();
        let b = engine
            .trace_source(&regression_sources(1, 20), "b")
            .unwrap();
        let c = engine
            .trace_source(&regression_sources(32, 64), "c")
            .unwrap();
        let d = engine
            .trace_source(&regression_sources(1, 64), "d")
            .unwrap();

        engine.diff(&a, &b).unwrap(); // build 1: {ab}
        engine.diff(&a, &c).unwrap(); // build 2: {ab, ac}
        engine.diff(&a, &b).unwrap(); // touch {ab}: no build, ab now most recent
        assert_eq!(engine.correlation_builds(), 2);

        // Fill the cache with pairs of tiny handles (every handle has its own id):
        // {ac} is now least recently used, {ab} the oldest entry but the second least
        // recently used.
        let tiny = Trace::named("tiny");
        let fillers: Vec<PreparedTrace> = (2..CORRELATION_CACHE_CAP)
            .map(|_| PreparedTrace::new(tiny.clone()))
            .collect();
        for filler in &fillers {
            engine.diff(&a, filler).unwrap();
        }
        let full = engine.correlation_builds();
        assert_eq!(full, CORRELATION_CACHE_CAP as u64);
        assert_eq!(engine.cached_correlations(), CORRELATION_CACHE_CAP);

        engine.diff(&a, &d).unwrap(); // evicts {ac} (LRU), not {ab} (FIFO would)
        assert_eq!(engine.correlation_builds(), full + 1);
        assert_eq!(engine.cached_correlations(), CORRELATION_CACHE_CAP);

        engine.diff(&a, &b).unwrap(); // still cached under LRU
        assert_eq!(
            engine.correlation_builds(),
            full + 1,
            "the re-touched hot pair must survive the eviction"
        );
        engine.diff(&a, &c).unwrap(); // evicted, rebuilt
        assert_eq!(engine.correlation_builds(), full + 2);
    }

    #[test]
    fn streamed_handles_diff_identically_and_refuse_store() {
        let engine = Engine::new();
        let a = engine
            .trace_source(&regression_sources(32, 20), "a")
            .unwrap();
        let b = engine
            .trace_source(&regression_sources(1, 20), "b")
            .unwrap();
        let ba = trace_to_bytes(a.trace(), Encoding::Binary).unwrap();
        let bb = trace_to_bytes(b.trace(), Encoding::Jsonl).unwrap();

        let sa = engine.load_prepared_reader(&ba[..]).unwrap();
        let sb = engine.load_prepared_reader(&bb[..]).unwrap();
        assert!(sa.is_streamed() && sb.is_streamed());
        assert_eq!(sa.len(), a.len());
        assert_eq!(sa.meta(), a.meta());

        let full = engine.diff(&a, &b).unwrap();
        let streamed = engine.diff(&sa, &sb).unwrap();
        assert_eq!(
            full.matching.normalized_pairs(),
            streamed.matching.normalized_pairs()
        );
        assert_eq!(full.sequences, streamed.sequences);
        assert_eq!(full.cost.compare_ops, streamed.cost.compare_ops);

        // Mixed full/streamed pairs work too (same trace on both sides: no diffs).
        assert_eq!(engine.diff(&a, &sa).unwrap().num_differences(), 0);

        // Streamed handles hold no entries, so they offer no trace to re-serialize;
        // reports still describe their entries from the lean artifacts.
        assert!(sa.try_trace().is_none());
        assert!(sa.describe_entry(0).is_some());
        assert!(sa.describe_entry(usize::MAX).is_none());
    }

    #[test]
    fn vm_traces_check_clean_in_memory_and_streamed() {
        let engine = Engine::new();
        let traced = engine
            .trace_source(&regression_sources(32, 20), "t")
            .unwrap();
        // The VM emits well-formed traces by construction; the checker must agree.
        let report = rprism_check::check_trace(traced.trace());
        assert!(report.is_clean(), "{:#?}", report.diagnostics);

        // Checking the serialized bytes streams to the same report.
        let bytes = trace_to_bytes(traced.trace(), Encoding::Binary).unwrap();
        let streamed_report = engine.check_reader(&bytes[..]).unwrap();
        assert_eq!(report.diagnostics, streamed_report.diagnostics);
        assert!(matches!(
            engine.check_reader(&bytes[..bytes.len() / 2]),
            Err(Error::Format(_))
        ));
    }

    #[test]
    fn mode_override_is_honored() {
        let engine = Engine::new();
        let input = regression_input(&engine).with_mode(AnalysisMode::SubtractRegressionSet);
        let report = engine.analyze(&input).unwrap();
        assert_eq!(report.mode, AnalysisMode::SubtractRegressionSet);
    }
}
