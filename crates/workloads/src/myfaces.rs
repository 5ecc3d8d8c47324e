//! The motivating example of the paper (§1, Fig. 1 / Fig. 13): a regression patterned
//! after MYFACES-1130.
//!
//! The framework converts non-7-bit-safe characters of an HTTP response into HTML numeric
//! entities, but only for `text/html` documents, and only for characters outside the range
//! `[32, 127]`. In the original version `ServletProcessor` instantiates the
//! `NumericEntityUtil` with the correct range directly; in the new version a
//! `BinaryCharFilter` abstraction was extracted and supplies the *incorrect* range
//! `[1, 127]`, so characters in `[1, 31]` stop being converted — but only for `text/html`
//! documents, and only long after the faulty initialization ran.

use rprism_lang::parser::parse_program;
use rprism_lang::Program;
use rprism_regress::GroundTruth;
use rprism_vm::VmConfig;

use crate::scenario::Scenario;

const COMMON_CLASSES: &str = r#"
    class Sys extends Object {
        Unit print(Str msg) { unit; }
        Unit fail(Str msg) { unit; }
    }
    class Logger extends Object {
        Int msgCount;
        Unit addMsg(Str msg) {
            this.msgCount = this.msgCount + 1;
        }
    }
    class NumericEntityUtil extends Object {
        Int _minCharRange;
        Int _maxCharRange;
        Int convert(Int c) {
            if ((c < this._minCharRange) || (c > this._maxCharRange)) {
                return 100000 + c;
            }
            return c;
        }
    }
"#;

const ORIGINAL_SP: &str = r#"
    class ServletProcessor extends Object {
        Logger log;
        NumericEntityUtil binConv;
        Int emitted;
        Unit setRequestType(Str ty) {
            this.log.addMsg("Handling request");
            if (ty == "text/html") {
                this.binConv = new NumericEntityUtil(32, 127);
            }
            this.log.addMsg("Set req type");
        }
        Unit processChar(Int c, Sys sys) {
            if (this.binConv == null) {
                sys.print("raw " + "char");
                this.emitted = this.emitted + c;
            } else {
                this.emitted = this.emitted + this.binConv.convert(c);
            }
        }
        Unit finish(Sys sys) {
            this.log.addMsg("Request complete");
            sys.print("emitted");
        }
    }
"#;

const NEW_SP: &str = r#"
    class BinaryCharFilter extends Object {
        NumericEntityUtil binConv;
        Int apply(Int c) {
            return this.binConv.convert(c);
        }
    }
    class ServletProcessor extends Object {
        Logger log;
        BinaryCharFilter filter;
        Int emitted;
        Unit setRequestType(Str ty) {
            this.log.addMsg("Handling request");
            if (ty == "text/html") {
                this.filter = new BinaryCharFilter(new NumericEntityUtil(1, 127));
                this.addFilter(this.filter);
            }
            this.log.addMsg("Set req type");
        }
        Unit addFilter(BinaryCharFilter f) {
            this.log.addMsg("Filter registered");
        }
        Unit processChar(Int c, Sys sys) {
            if (this.filter == null) {
                sys.print("raw " + "char");
                this.emitted = this.emitted + c;
            } else {
                this.emitted = this.emitted + this.filter.apply(c);
            }
        }
        Unit finish(Sys sys) {
            this.log.addMsg("Request complete");
            sys.print("emitted");
        }
    }
"#;

/// The main driver for a request of the given document type; the processed characters
/// include values in `[1, 31]`, which is exactly where the two versions disagree for
/// `text/html` documents.
fn driver(doc_type: &str) -> String {
    format!(
        r#"
        main {{
            let sys = new Sys();
            let log = new Logger(0);
            let sp = new ServletProcessor(log, null, 0);
            sp.setRequestType("{doc_type}");
            sp.processChar(5, sys);
            sp.processChar(20, sys);
            sp.processChar(64, sys);
            sp.processChar(90, sys);
            sp.processChar(200, sys);
            sp.finish(sys);
            sys.print(sp.emitted);
            if (sp.emitted > 0) {{ sys.print("sum " + "positive"); }}
            sys.print("done");
        }}
        "#
    )
}

fn parse_version(classes: &str, doc_type: &str) -> Program {
    let source = format!("{COMMON_CLASSES}{classes}{}", driver(doc_type));
    parse_program(&source).expect("the MyFaces scenario sources are well-formed")
}

/// Builds the MyFaces-1130-style motivating-example scenario.
pub fn scenario() -> Scenario {
    // The regressing test sends a text/html document (characters 5 and 20 must be
    // converted); the passing test sends text/plain (no conversion in either version).
    let old_regressing = parse_version(ORIGINAL_SP, "text/html");
    let new_regressing = parse_version(NEW_SP, "text/html");
    let old_passing = parse_version(ORIGINAL_SP, "text/plain");
    let new_passing = parse_version(NEW_SP, "text/plain");

    Scenario {
        name: "myfaces-1130".into(),
        description: "character-range regression introduced by the BinaryCharFilter extraction"
            .into(),
        old_version: Program {
            classes: old_regressing.classes.clone(),
            main: vec![],
        },
        new_version: Program {
            classes: new_regressing.classes.clone(),
            main: vec![],
        },
        regressing_main: old_regressing.main.clone(),
        passing_main: old_passing.main.clone(),
        // The drivers only reference classes present in both versions, so the same mains
        // are reused for the new version.
        new_regressing_main: Some(new_regressing.main),
        new_passing_main: Some(new_passing.main),
        ground_truth: GroundTruth::new(["_minCharRange", "BinaryCharFilter"]),
        vm_config: VmConfig::default(),
        code_removal: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::suspected_trace_entries;
    use rprism_regress::DiffAlgorithm;

    #[test]
    fn the_motivating_example_regresses_only_for_html() {
        let s = scenario();
        let traces = s.trace_all().unwrap();
        assert!(
            traces.exhibits_regression(),
            "outputs: old={:?} new={:?} / pass old={:?} new={:?}",
            traces.old_regressing_output(),
            traces.new_regressing_output(),
            traces.old_passing_output(),
            traces.new_passing_output()
        );
        assert!(suspected_trace_entries(&traces) > 40);
    }

    #[test]
    fn analysis_identifies_the_range_initialization_as_the_cause() {
        let s = scenario();
        let outcome = s
            .analyze_and_evaluate(&DiffAlgorithm::Views(Default::default()))
            .unwrap();
        assert!(outcome.report.num_regression_sequences() >= 1);
        // The true cause (the bad range / the new filter class) is covered.
        assert_eq!(
            outcome.quality.false_negatives, 0,
            "quality: {:?}",
            outcome.quality
        );
        // The analysis discards at least some unrelated difference sequences relative to
        // the raw suspected diff.
        assert!(
            outcome.report.num_regression_sequences()
                <= outcome.report.suspected_diff.sequences.len()
        );
    }

    #[test]
    fn lcs_baseline_also_runs_on_the_motivating_example() {
        let s = scenario();
        let outcome = s
            .analyze_and_evaluate(&DiffAlgorithm::Lcs(Default::default()))
            .unwrap();
        assert!(!outcome.report.suspected.is_empty());
    }
}
