//! The XALANJ-1802 regression (paper §5.2, third case study).
//!
//! Between Xalan 2.4.1 and 2.5.1 the namespace-handling module was completely
//! re-architected (twelve months of development, ~79 K changed lines), and the rewrite
//! contained a corner-case bug affecting namespace redeclarations in nested elements. The
//! interesting property for the analysis is the *churn*: the expected-differences set B is
//! large because the two versions differ structurally everywhere, yet the analysis still
//! has to isolate the one behavioural difference. We model the old version with a flat
//! `NamespaceResolver` and the new version with a re-architected `NamespaceContext` /
//! `PrefixTable` pair whose redeclaration handling at nested depth is wrong.

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
    class Element extends Object {
        Int depth;
        Int prefix;
        Int uri;
        Bool redeclares;
    }
"#;

// Old architecture: a single resolver storing up to two bindings per prefix with explicit
// depth bookkeeping.
const OLD_NS: &str = r#"
    class NamespaceResolver extends Object {
        Int prefixA; Int uriA; Int depthA;
        Int prefixB; Int uriB; Int depthB;
        Int resolved;
        Unit declare(Int prefix, Int uri, Int depth) {
            if (depth <= 1) {
                this.prefixA = prefix;
                this.uriA = uri;
                this.depthA = depth;
            } else {
                this.prefixB = prefix;
                this.uriB = uri;
                this.depthB = depth;
            }
        }
        Int lookup(Int prefix, Int depth) {
            if ((this.prefixB == prefix) && (depth >= this.depthB)) {
                return this.uriB;
            }
            if (this.prefixA == prefix) {
                return this.uriA;
            }
            return 0 - 1;
        }
        Int process(Element e) {
            if (e.redeclares) {
                this.declare(e.prefix, e.uri, e.depth);
            }
            this.resolved = this.resolved + 1;
            return this.lookup(e.prefix, e.depth);
        }
    }
    class Transformer extends Object {
        NamespaceResolver ns;
        Int output;
        Unit transform(Element e, Sys sys) {
            let uri = this.ns.process(e);
            this.output = this.output + uri;
            if (uri < 0) { sys.print("unresolved"); }
        }
    }
"#;

// New architecture: the responsibilities are split across two classes with different
// method names and an extra caching layer; nested redeclarations (depth > 1) are handled
// incorrectly — the binding is recorded against the outer depth, so lookups at the nested
// depth fall back to the outer URI.
const NEW_NS: &str = r#"
    class PrefixTable extends Object {
        Int prefix0; Int uri0; Int depth0;
        Int prefix1; Int uri1; Int depth1;
        Unit bind(Int prefix, Int uri, Int depth) {
            if (depth <= 1) {
                this.prefix0 = prefix;
                this.uri0 = uri;
                this.depth0 = depth;
            } else {
                this.prefix1 = prefix;
                this.uri1 = uri;
                this.depth1 = 1;
            }
        }
        Int find(Int prefix, Int depth) {
            if ((this.prefix1 == prefix) && (depth >= this.depth1) && (this.uri1 > 0) && (depth > 1)) {
                if (this.depth1 >= depth) {
                    return this.uri1;
                }
                return this.uri0;
            }
            if (this.prefix0 == prefix) {
                return this.uri0;
            }
            return 0 - 1;
        }
    }
    class NamespaceContext extends Object {
        PrefixTable table;
        Int cacheHits;
        Int resolvedCount;
        Unit pushBinding(Int prefix, Int uri, Int depth) {
            this.table.bind(prefix, uri, depth);
        }
        Int resolvePrefix(Int prefix, Int depth) {
            this.resolvedCount = this.resolvedCount + 1;
            return this.table.find(prefix, depth);
        }
    }
    class Transformer extends Object {
        NamespaceContext ns;
        Int output;
        Unit transform(Element e, Sys sys) {
            if (e.redeclares) {
                this.ns.pushBinding(e.prefix, e.uri, e.depth);
            }
            let uri = this.ns.resolvePrefix(e.prefix, e.depth);
            this.output = this.output + uri;
            if (uri < 0) { sys.print("unresolved"); }
        }
    }
"#;

const OLD_DRIVER: &str = r#"
    main {
        let sys = new Sys();
        let ns = new NamespaceResolver(0, 0, 0, 0, 0, 0, 0);
        let t = new Transformer(ns, 0);
        REDECLARE_SECTION
        let c = new Ctr(0);
        while (c.i < 10) {
            t.transform(new Element(1, 7, 100, false), sys);
            c.i = c.i + 1;
        }
        sys.print(t.output);
    }
"#;

const NEW_DRIVER: &str = r#"
    main {
        let sys = new Sys();
        let table = new PrefixTable(0, 0, 0, 0, 0, 0);
        let ns = new NamespaceContext(table, 0, 0);
        let t = new Transformer(ns, 0);
        REDECLARE_SECTION
        let c = new Ctr(0);
        while (c.i < 10) {
            t.transform(new Element(1, 7, 100, false), sys);
            c.i = c.i + 1;
        }
        sys.print(t.output);
    }
"#;

/// The section of the input document exercising the corner case: declare prefix 7 at the
/// outer level and redeclare it with a different URI inside a nested element, then resolve
/// at the nested depth.
const REDECLARING_INPUT: &str = r#"
        t.transform(new Element(1, 7, 100, true), sys);
        t.transform(new Element(3, 7, 200, true), sys);
        t.transform(new Element(3, 7, 0, false), sys);
"#;

/// The similar non-regressing input: the nested element does not redeclare the prefix.
const PLAIN_INPUT: &str = r#"
        t.transform(new Element(1, 7, 100, true), sys);
        t.transform(new Element(3, 7, 0, false), sys);
        t.transform(new Element(3, 7, 0, false), sys);
"#;

fn version(classes: &str, driver: &str, input: &str) -> Program {
    let main = driver.replace("REDECLARE_SECTION", input);
    let src = format!("{COMMON}{classes}{main}");
    parse_program(&src).expect("the Xalan-1802 scenario sources are well-formed")
}

/// Builds the XALANJ-1802 scenario.
pub fn scenario() -> Scenario {
    let old_reg = version(OLD_NS, OLD_DRIVER, REDECLARING_INPUT);
    let new_reg = version(NEW_NS, NEW_DRIVER, REDECLARING_INPUT);
    let old_pass = version(OLD_NS, OLD_DRIVER, PLAIN_INPUT);
    let new_pass = version(NEW_NS, NEW_DRIVER, PLAIN_INPUT);

    Scenario {
        name: "xalan-1802".into(),
        description: "re-architected namespace handling mishandles nested prefix redeclarations"
            .into(),
        old_version: Program {
            classes: old_reg.classes.clone(),
            main: vec![],
        },
        new_version: Program {
            classes: new_reg.classes.clone(),
            main: vec![],
        },
        // The drivers necessarily differ between versions (different constructors); the
        // scenario runner composes version classes with the matching driver, so we store
        // the *old* drivers here and override at run time via the version-specific mains.
        regressing_main: old_reg.main.clone(),
        passing_main: old_pass.main.clone(),
        new_regressing_main: None,
        new_passing_main: None,
        ground_truth: GroundTruth::new(["PrefixTable", "bind", "find"]),
        vm_config: VmConfig::default(),
        code_removal: false,
    }
    .with_version_specific_mains(new_reg.main, new_pass.main)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_regress::DiffAlgorithm;

    #[test]
    fn nested_redeclaration_regresses_under_the_rewrite() {
        let traces = scenario().trace_all().unwrap();
        assert!(
            traces.exhibits_regression(),
            "outputs: reg {:?} vs {:?}, pass {:?} vs {:?}",
            traces.old_regressing_output(),
            traces.new_regressing_output(),
            traces.old_passing_output(),
            traces.new_passing_output()
        );
    }

    #[test]
    fn heavy_churn_produces_a_large_expected_set_yet_analysis_still_narrows() {
        let outcome = scenario()
            .analyze_and_evaluate(&DiffAlgorithm::Views(Default::default()))
            .unwrap();
        // The rewrite makes both A and B large.
        assert!(outcome.report.suspected.len() > 10);
        assert!(!outcome.report.expected.is_empty());
        // But the candidate set is much smaller than the suspected set.
        assert!(outcome.report.candidates.len() < outcome.report.suspected.len());
        assert!(outcome.report.num_regression_sequences() >= 1);
    }
}
