//! Regression scenarios: the unit of evaluation.
//!
//! A [`Scenario`] bundles everything needed to exercise the regression-cause analysis
//! end-to-end: the original and new program versions, the regressing and passing test
//! drivers (main bodies), the tracing configuration, and ground truth about the injected
//! or documented cause. Scenarios are produced by the [`crate::myfaces`] motivating
//! example, the [`crate::rhino`] generator and the four [`crate::casestudies`].

use std::path::{Path, PathBuf};

use rprism::{Engine, PreparedTrace, RegressionInput};
use rprism_diff::DiffError;
use rprism_format::{write_trace_path, Encoding, FormatError};
use rprism_lang::ast::{Program, Term};
use rprism_lang::pretty::program_to_string;
use rprism_regress::{AnalysisMode, DiffAlgorithm, GroundTruth, RegressionReport};
use rprism_trace::TraceMeta;
use rprism_vm::{run_traced, RunOutcome, RuntimeError, VmConfig};

/// A complete regression scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Short scenario name (used in benchmark tables).
    pub name: String,
    /// A one-line description of the regression being modelled.
    pub description: String,
    /// The original (correct) version: class definitions only, `main` ignored.
    pub old_version: Program,
    /// The new (regressing) version: class definitions only, `main` ignored.
    pub new_version: Program,
    /// The main body that triggers the regression (used for the old version, and for the
    /// new version too unless [`Scenario::new_regressing_main`] overrides it).
    pub regressing_main: Vec<Term>,
    /// The main body of a similar, non-regressing test case (used for the old version, and
    /// for the new version too unless [`Scenario::new_passing_main`] overrides it).
    pub passing_main: Vec<Term>,
    /// Optional new-version override of the regressing driver, for scenarios where the
    /// rewrite changes constructors or entry points (e.g. the Xalan-1802 re-architecture).
    pub new_regressing_main: Option<Vec<Term>>,
    /// Optional new-version override of the passing driver.
    pub new_passing_main: Option<Vec<Term>>,
    /// Markers identifying the true cause locations.
    pub ground_truth: GroundTruth,
    /// Tracing configuration used for all four runs.
    pub vm_config: VmConfig,
    /// Whether the regression is caused by code *removal* (selects the `(A − B) − C`
    /// analysis variant).
    pub code_removal: bool,
}

/// An error produced while materializing a scenario's traces.
#[derive(Debug)]
pub enum ScenarioError {
    /// A program failed static validation.
    Invalid(rprism_lang::Error),
    /// Differencing failed (LCS memory exhaustion).
    Diff(DiffError),
    /// A scenario run failed at runtime in a context that treats that as an error.
    Runtime(RuntimeError),
    /// Serializing or deserializing a scenario trace failed.
    Format(FormatError),
    /// A scenario was requested by a name no workload provides.
    UnknownScenario {
        /// The requested name.
        name: String,
        /// The names that exist.
        known: Vec<String>,
    },
    /// Any other failure of the analysis facade (`rprism::Error` is `#[non_exhaustive]`;
    /// variants added in the future land here instead of panicking).
    Other(rprism::Error),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Invalid(e) => write!(f, "invalid scenario program: {e}"),
            ScenarioError::Diff(e) => write!(f, "differencing failed: {e}"),
            ScenarioError::Runtime(e) => write!(f, "scenario run failed: {e}"),
            ScenarioError::Format(e) => write!(f, "trace serialization failed: {e}"),
            ScenarioError::UnknownScenario { name, known } => write!(
                f,
                "unknown scenario {name:?} (known: {}, or `all`)",
                known.join(", ")
            ),
            ScenarioError::Other(e) => write!(f, "analysis failed: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<rprism_lang::Error> for ScenarioError {
    fn from(e: rprism_lang::Error) -> Self {
        ScenarioError::Invalid(e)
    }
}

impl From<DiffError> for ScenarioError {
    fn from(e: DiffError) -> Self {
        ScenarioError::Diff(e)
    }
}

impl From<rprism::Error> for ScenarioError {
    fn from(e: rprism::Error) -> Self {
        match e {
            rprism::Error::Lang(e) => ScenarioError::Invalid(e),
            rprism::Error::Diff(e) => ScenarioError::Diff(e),
            rprism::Error::Vm(e) => ScenarioError::Runtime(e),
            rprism::Error::Format(e) => ScenarioError::Format(e),
            other => ScenarioError::Other(other),
        }
    }
}

impl From<FormatError> for ScenarioError {
    fn from(e: FormatError) -> Self {
        ScenarioError::Format(e)
    }
}

/// The four traces of a scenario plus per-run metadata (outputs, timing).
///
/// The traces are held as [`PreparedTrace`] handles (cheap `Arc` clones): every analysis
/// and diff over them shares one cached set of keys and view webs, and cloning
/// `ScenarioTraces` never copies a trace.
#[derive(Clone, Debug)]
pub struct ScenarioTraces {
    /// The four prepared traces consumed by the analysis, with the scenario's analysis
    /// mode attached.
    pub traces: RegressionInput,
    /// Whether the new version failed with a runtime error under the regressing test
    /// (Derby-style regressions).
    pub new_regressing_errored: bool,
    /// Total wall-clock seconds spent tracing the four runs.
    pub tracing_seconds: f64,
}

impl ScenarioTraces {
    /// Output of the old version under the regressing test (stored on the handle).
    pub fn old_regressing_output(&self) -> &[String] {
        self.traces.old_regressing.output()
    }

    /// Output of the new version under the regressing test.
    pub fn new_regressing_output(&self) -> &[String] {
        self.traces.new_regressing.output()
    }

    /// Output of the old version under the passing test.
    pub fn old_passing_output(&self) -> &[String] {
        self.traces.old_passing.output()
    }

    /// Output of the new version under the passing test.
    pub fn new_passing_output(&self) -> &[String] {
        self.traces.new_passing.output()
    }

    /// Returns `true` when the scenario actually regresses: the two versions disagree on
    /// the regressing test (by output or by error) but agree on the passing test.
    pub fn exhibits_regression(&self) -> bool {
        let regresses = self.old_regressing_output() != self.new_regressing_output()
            || self.new_regressing_errored;
        let passes = self.old_passing_output() == self.new_passing_output();
        regresses && passes
    }

    /// The four role labels used by [`ScenarioTraces::export`] file names, in
    /// [`RegressionInput`] field order.
    pub const ROLES: [&'static str; 4] = [
        "old-regressing",
        "new-regressing",
        "old-passing",
        "new-passing",
    ];

    /// The four prepared handles in [`ScenarioTraces::ROLES`] order.
    pub fn handles(&self) -> [&PreparedTrace; 4] {
        [
            &self.traces.old_regressing,
            &self.traces.new_regressing,
            &self.traces.old_passing,
            &self.traces.new_passing,
        ]
    }

    /// Serializes all four traces to `dir` as `<prefix>.<role>.<ext>` (creating the
    /// directory), so every case study can emit an on-disk corpus analyzable by the
    /// `rprism` CLI or any external tool. Returns the four paths in
    /// [`ScenarioTraces::ROLES`] order.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Format`] when a file cannot be created or written.
    pub fn export(
        &self,
        dir: impl AsRef<Path>,
        prefix: &str,
        encoding: Encoding,
    ) -> Result<Vec<PathBuf>, ScenarioError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(FormatError::Io)?;
        let mut paths = Vec::with_capacity(4);
        for (role, handle) in Self::ROLES.iter().zip(self.handles()) {
            let path = dir.join(format!("{prefix}.{role}.{}", encoding.extension()));
            write_trace_path(handle.trace(), &path, encoding)?;
            paths.push(path);
        }
        Ok(paths)
    }

    /// Serializes only the suspected pair (old and new version under the regressing
    /// test) — the unit of the committed golden corpus. Returns `[old, new]`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Format`] when a file cannot be created or written.
    pub fn export_suspected_pair(
        &self,
        dir: impl AsRef<Path>,
        prefix: &str,
        encoding: Encoding,
    ) -> Result<[PathBuf; 2], ScenarioError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(FormatError::Io)?;
        let old = dir.join(format!("{prefix}.old-regressing.{}", encoding.extension()));
        let new = dir.join(format!("{prefix}.new-regressing.{}", encoding.extension()));
        write_trace_path(self.traces.old_regressing.trace(), &old, encoding)?;
        write_trace_path(self.traces.new_regressing.trace(), &new, encoding)?;
        Ok([old, new])
    }
}

impl Scenario {
    /// The program actually executed for a given (version, main body) combination.
    fn instantiate(version: &Program, main: &[Term]) -> Program {
        Program {
            classes: version.classes.clone(),
            main: main.to_vec(),
        }
    }

    /// The analysis mode appropriate for this scenario.
    pub fn analysis_mode(&self) -> AnalysisMode {
        if self.code_removal {
            AnalysisMode::SubtractRegressionSet
        } else {
            AnalysisMode::Intersect
        }
    }

    /// An approximate "lines of code" figure for the scenario (pretty-printed source lines
    /// of the new version), reported in the Table 1 reproduction.
    pub fn loc_estimate(&self) -> usize {
        program_to_string(&Scenario::instantiate(
            &self.new_version,
            &self.regressing_main,
        ))
        .lines()
        .count()
    }

    /// Runs one of the four configurations.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] when the composed program fails validation.
    pub fn run(&self, version: Version, test: TestCase) -> Result<RunOutcome, ScenarioError> {
        let program = match version {
            Version::Old => Scenario::instantiate(&self.old_version, self.main_for(version, test)),
            Version::New => Scenario::instantiate(&self.new_version, self.main_for(version, test)),
        };
        let meta = TraceMeta::new(
            format!("{}/{:?}/{:?}", self.name, version, test),
            format!("{version:?}"),
            format!("{test:?}"),
        );
        Ok(run_traced(&program, meta, self.vm_config.clone())?)
    }

    fn main_for(&self, version: Version, test: TestCase) -> &[Term] {
        match (version, test) {
            (Version::Old, TestCase::Regressing) => &self.regressing_main,
            (Version::Old, TestCase::Passing) => &self.passing_main,
            (Version::New, TestCase::Regressing) => self
                .new_regressing_main
                .as_deref()
                .unwrap_or(&self.regressing_main),
            (Version::New, TestCase::Passing) => self
                .new_passing_main
                .as_deref()
                .unwrap_or(&self.passing_main),
        }
    }

    /// Overrides the new-version drivers, for scenarios whose rewrite changes the driver
    /// code itself (constructor shapes, entry points).
    pub fn with_version_specific_mains(
        mut self,
        new_regressing_main: Vec<Term>,
        new_passing_main: Vec<Term>,
    ) -> Self {
        self.new_regressing_main = Some(new_regressing_main);
        self.new_passing_main = Some(new_passing_main);
        self
    }

    /// Traces all four configurations.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] when any composed program fails validation.
    pub fn trace_all(&self) -> Result<ScenarioTraces, ScenarioError> {
        let start = std::time::Instant::now();
        let old_reg = self.run(Version::Old, TestCase::Regressing)?;
        let new_reg = self.run(Version::New, TestCase::Regressing)?;
        let old_pass = self.run(Version::Old, TestCase::Passing)?;
        let new_pass = self.run(Version::New, TestCase::Passing)?;
        let tracing_seconds = start.elapsed().as_secs_f64();
        Ok(ScenarioTraces {
            new_regressing_errored: new_reg.result.is_err() && old_reg.result.is_ok(),
            traces: RegressionInput::new(
                PreparedTrace::from_outcome(old_reg),
                PreparedTrace::from_outcome(new_reg),
                PreparedTrace::from_outcome(old_pass),
                PreparedTrace::from_outcome(new_pass),
            )
            .with_mode(self.analysis_mode()),
            tracing_seconds,
        })
    }

    /// Traces the scenario and runs the regression-cause analysis with the given
    /// differencing algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] when a program fails validation or the LCS baseline runs
    /// out of memory.
    pub fn analyze(
        &self,
        algorithm: &DiffAlgorithm,
    ) -> Result<(ScenarioTraces, RegressionReport), ScenarioError> {
        let traces = self.trace_all()?;
        // No engine-level mode needed: the input built by `trace_all` carries the
        // scenario's analysis mode, which always overrides the engine default.
        let engine = Engine::builder().algorithm(algorithm.clone()).build();
        let report = engine.analyze(&traces.traces)?;
        Ok((traces, report))
    }

    /// Convenience accessor: run the analysis and evaluate it against the scenario's
    /// ground truth.
    ///
    /// # Errors
    ///
    /// Same as [`Scenario::analyze`].
    pub fn analyze_and_evaluate(
        &self,
        algorithm: &DiffAlgorithm,
    ) -> Result<ScenarioOutcome, ScenarioError> {
        let (traces, report) = self.analyze(algorithm)?;
        let quality = rprism_regress::evaluate(
            &report,
            &traces.traces.old_regressing,
            &traces.traces.new_regressing,
            &self.ground_truth,
        );
        Ok(ScenarioOutcome {
            traces,
            report,
            quality,
        })
    }
}

/// Which program version to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Version {
    /// The original, correct version.
    Old,
    /// The new, regressing version.
    New,
}

/// Which test case to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TestCase {
    /// The test case that exhibits the regression.
    Regressing,
    /// The similar test case that does not.
    Passing,
}

/// The bundled result of running and evaluating a scenario.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The four traces and run metadata.
    pub traces: ScenarioTraces,
    /// The regression-cause analysis report.
    pub report: RegressionReport,
    /// Quality metrics against the scenario's ground truth.
    pub quality: rprism_regress::QualityMetrics,
}

/// The number of entries of the suspected comparison (old vs new under the regressing
/// test), the "Trace Entries" column of Table 1.
pub fn suspected_trace_entries(traces: &ScenarioTraces) -> usize {
    traces
        .traces
        .old_regressing
        .len()
        .max(traces.traces.new_regressing.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_lang::build::*;

    fn tiny_scenario(new_value: i64) -> Scenario {
        let version = |v: i64| {
            ProgramBuilder::new()
                .class(ClassBuilder::new("C").field("x", int_ty()).method(
                    MethodBuilder::new("set", unit_ty()).body(set_field(this(), "x", int(v))),
                ))
                .class_def(rprism_vm::sys_class_def())
                .build()
        };
        let main_body = |probe: i64| {
            vec![let_(
                "sys",
                new("Sys", vec![]),
                let_(
                    "c",
                    new("C", vec![int(0)]),
                    seq(vec![
                        // The passing test (probe < 0) never exercises the changed
                        // code, so the regression differences set C can isolate it.
                        if_(
                            gt(int(probe), int(0)),
                            call(var("c"), "set", vec![]),
                            unit(),
                        ),
                        if_(
                            eq(get_field(var("c"), "x"), int(probe)),
                            call(var("sys"), "print", vec![string("match")]),
                            call(var("sys"), "print", vec![string("nomatch")]),
                        ),
                    ]),
                ),
            )]
        };
        Scenario {
            name: "tiny".into(),
            description: "constant change".into(),
            old_version: version(32),
            new_version: version(new_value),
            regressing_main: main_body(32),
            passing_main: main_body(-1),
            new_regressing_main: None,
            new_passing_main: None,
            ground_truth: GroundTruth::new([".x ="]),
            vm_config: VmConfig::default(),
            code_removal: false,
        }
    }

    #[test]
    fn scenario_traces_and_detects_regression() {
        let s = tiny_scenario(1);
        let traces = s.trace_all().unwrap();
        assert!(traces.exhibits_regression());
        assert!(suspected_trace_entries(&traces) > 0);
        assert!(traces.tracing_seconds >= 0.0);
    }

    #[test]
    fn non_regressing_change_is_not_a_regression() {
        // New version identical to old: outputs agree on both tests.
        let s = tiny_scenario(32);
        let traces = s.trace_all().unwrap();
        assert!(!traces.exhibits_regression());
    }

    #[test]
    fn analysis_produces_candidates_for_the_tiny_scenario() {
        let s = tiny_scenario(1);
        let outcome = s
            .analyze_and_evaluate(&DiffAlgorithm::Views(Default::default()))
            .unwrap();
        assert!(!outcome.report.suspected.is_empty());
        assert!(outcome.report.num_regression_sequences() >= 1);
        assert_eq!(outcome.quality.false_negatives, 0);
    }

    #[test]
    fn loc_estimate_counts_printed_lines() {
        let s = tiny_scenario(1);
        assert!(s.loc_estimate() > 5);
        assert_eq!(s.analysis_mode(), AnalysisMode::Intersect);
    }
}
