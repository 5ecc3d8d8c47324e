//! The DERBY-1633 regression (paper §5.2, fourth case study).
//!
//! Derby is a multithreaded relational database. Between 10.1.2.1 and 10.1.3.1 a new
//! query optimization was introduced with an incomplete corner case: for a particular
//! combination of query predicate and subquery, the new version *throws during query
//! compilation*, whereas the old version executes the query normally. The interesting
//! properties for the analysis are (i) multiple threads — connection workers run
//! concurrently with the main thread and their activity must not pollute the diff — and
//! (ii) the error cut-off, which makes the raw difference count very large. We model a
//! small query engine with two spawned connection workers processing background queries
//! while the main thread compiles and executes the regressing query.

use rprism_lang::parser::parse_program;
use rprism_lang::Program;
use rprism_regress::GroundTruth;
use rprism_vm::VmConfig;

use crate::scenario::Scenario;

const COMMON: &str = r#"
    class Sys extends Object {
        Unit print(Str msg) { unit; }
        Unit fail(Str msg) { unit; }
    }
    class Ctr extends Object { Int i; }
    class Query extends Object {
        Int predicateKind;
        Bool hasSubquery;
        Int tableSize;
    }
    class ResultSink extends Object {
        Int rows;
        Unit accept(Int n) { this.rows = this.rows + n; }
    }
    class Executor extends Object {
        Int executed;
        Unit runPlan(Int planCost, Query q, ResultSink sink) {
            this.executed = this.executed + planCost;
            let c = new Ctr(0);
            while (c.i < 6) {
                sink.accept(q.tableSize);
                c.i = c.i + 1;
            }
        }
    }
    class ConnectionWorker extends Object {
        Int id;
        Int served;
        Unit serve(Query q, ResultSink sink) {
            let c = new Ctr(0);
            while (c.i < 8) {
                sink.accept(q.tableSize % 7);
                this.served = this.served + 1;
                c.i = c.i + 1;
            }
        }
    }
"#;

// The old compiler has no subquery optimization: every query is planned the same way.
const OLD_COMPILER: &str = r#"
    class QueryCompiler extends Object {
        Int compiled;
        Int compile(Query q, Sys sys) {
            this.compiled = this.compiled + 1;
            if (q.predicateKind == 2) {
                return 3;
            }
            return 1;
        }
    }
"#;

// The new compiler adds a subquery optimization whose corner case (predicate kind 2
// combined with a subquery) is incomplete and aborts compilation.
const NEW_COMPILER: &str = r#"
    class QueryCompiler extends Object {
        Int compiled;
        Int compile(Query q, Sys sys) {
            this.compiled = this.compiled + 1;
            if (q.hasSubquery) {
                return this.optimizeSubquery(q, sys);
            }
            if (q.predicateKind == 2) {
                return 3;
            }
            return 1;
        }
        Int optimizeSubquery(Query q, Sys sys) {
            if (q.predicateKind == 2) {
                sys.fail("ERROR 38000: unsupported predicate during subquery optimization");
            }
            return 2;
        }
    }
"#;

fn driver_main(predicate_kind: i64) -> String {
    format!(
        r#"
        main {{
            let sys = new Sys();
            let sink = new ResultSink(0);
            let background = new Query(1, false, 35);
            let w1 = new ConnectionWorker(1, 0);
            let w2 = new ConnectionWorker(2, 0);
            spawn {{ w1.serve(background, new ResultSink(0)); }}
            spawn {{ w2.serve(background, new ResultSink(0)); }}
            let compiler = new QueryCompiler(0);
            let exec = new Executor(0);
            let q = new Query({predicate_kind}, true, 50);
            let cost = compiler.compile(q, sys);
            exec.runPlan(cost, q, sink);
            sys.print(sink.rows);
            sys.print("done");
        }}
        "#
    )
}

fn version(compiler: &str, predicate_kind: i64) -> Program {
    let src = format!("{COMMON}{compiler}{}", driver_main(predicate_kind));
    parse_program(&src).expect("the Derby scenario sources are well-formed")
}

/// Builds the DERBY-1633 scenario.
pub fn scenario() -> Scenario {
    let old_reg = version(OLD_COMPILER, 2);
    let new_reg = version(NEW_COMPILER, 2);
    let old_pass = version(OLD_COMPILER, 1);

    Scenario {
        name: "derby-1633".into(),
        description:
            "new subquery optimization throws during query compilation for one predicate shape"
                .into(),
        old_version: Program {
            classes: old_reg.classes.clone(),
            main: vec![],
        },
        new_version: Program {
            classes: new_reg.classes.clone(),
            main: vec![],
        },
        regressing_main: old_reg.main,
        passing_main: old_pass.main,
        new_regressing_main: None,
        new_passing_main: None,
        ground_truth: GroundTruth::new(["optimizeSubquery", "compile"]),
        vm_config: VmConfig::default().with_quantum(8),
        code_removal: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_regress::DiffAlgorithm;
    use rprism_trace::ThreadId;

    #[test]
    fn the_new_version_throws_only_for_the_regressing_predicate() {
        let s = scenario();
        let traces = s.trace_all().unwrap();
        assert!(traces.exhibits_regression());
        assert!(traces.new_regressing_errored);
        // The passing predicate works on both versions.
        assert_eq!(traces.old_passing_output(), traces.new_passing_output());
    }

    #[test]
    fn traces_are_multithreaded() {
        let s = scenario();
        let traces = s.trace_all().unwrap();
        let tids = traces.traces.old_regressing.thread_ids();
        assert!(tids.len() >= 3, "expected 3 threads, got {tids:?}");
        assert!(tids.contains(&ThreadId::MAIN));
    }

    #[test]
    fn analysis_isolates_the_optimizer_despite_worker_thread_noise() {
        let outcome = scenario()
            .analyze_and_evaluate(&DiffAlgorithm::Views(Default::default()))
            .unwrap();
        assert!(outcome.report.num_regression_sequences() >= 1);
        assert!(
            outcome.quality.covered_markers >= 1,
            "quality: {:?}",
            outcome.quality
        );
        // Worker-thread activity is identical across versions and must not be reported.
        let reported: Vec<String> = outcome
            .report
            .regression_sequences()
            .flat_map(|sequence| {
                sequence
                    .right
                    .iter()
                    .filter_map(|i| outcome.traces.traces.new_regressing.entries.get(*i))
                    .map(|e| e.render())
                    .collect::<Vec<_>>()
            })
            .collect();
        assert!(
            !reported.iter().any(|r| r.contains("ConnectionWorker")),
            "worker noise leaked into the report: {reported:?}"
        );
    }
}
