//! A Rhino-like synthetic bug dataset.
//!
//! The paper's quantitative evaluation (§5.1) runs RPrism over 14 usable bugs of the iBUGS
//! Rhino dataset — a JavaScript engine written in Java — with regressions injected
//! according to an empirical root-cause distribution. Rhino itself (304 KLOC of Java) is
//! not available here, so this module generates *structurally comparable* workloads: an
//! interpreter-shaped program (a driver dispatching over a chain of stateful "module"
//! classes, two distinct execution paths selected by the input "script"), large enough to
//! produce traces from thousands to hundreds of thousands of entries, into which
//! [`crate::mutate`] injects one regression per bug. The generator validates every injected
//! bug: the new version must change the program output for the regressing input while
//! agreeing with the original on the passing input (the paper "ensured that each injected
//! regression caused the test case associated with the bug to fail").

use rprism_trace::testgen::Rng;

use rprism_lang::ast::{Program, Term};
use rprism_lang::build::*;
use rprism_regress::GroundTruth;
use rprism_vm::{sys_class_def, VmConfig};

use crate::mutate::{inject, MutationOutcome, RootCause};
use crate::scenario::Scenario;

/// Configuration of the Rhino-like workload generator.
#[derive(Clone, Debug)]
pub struct RhinoConfig {
    /// RNG seed; every derived program and mutation is a pure function of the seed.
    pub seed: u64,
    /// Number of "module" classes in the generated engine.
    pub modules: usize,
    /// Number of driver iterations ("script length") for the regressing input — the main
    /// knob controlling trace length.
    pub script_length: usize,
    /// Maximum attempts to find a mutation that actually regresses.
    pub max_injection_attempts: usize,
}

impl Default for RhinoConfig {
    fn default() -> Self {
        RhinoConfig {
            seed: 0,
            modules: 6,
            script_length: 40,
            max_injection_attempts: 40,
        }
    }
}

/// One generated bug: a scenario plus metadata about the injected mutation.
#[derive(Clone, Debug)]
pub struct InjectedBug {
    /// The regression scenario (old/new versions, regressing/passing drivers).
    pub scenario: Scenario,
    /// The mutation that was injected.
    pub mutation: MutationOutcome,
    /// The seed that produced this bug.
    pub seed: u64,
}

/// Generates the base (correct) engine program for the given configuration. The returned
/// program has an empty `main`; drivers are attached per test case.
pub fn base_program(config: &RhinoConfig, rng: &mut Rng) -> Program {
    let modules = config.modules.max(2);
    let mut builder = ProgramBuilder::new().class_def(sys_class_def());

    // A mutable loop counter object (locals are immutable in the calculus).
    builder = builder.class(ClassBuilder::new("Ctr").field("i", int_ty()));

    // Stateful module classes Mod0 … ModN, each with a distinct step method.
    for m in 0..modules {
        let step = format!("step{m}");
        let helper = format!("helper{m}");
        let modulus = rng.gen_range(2..5);
        let residue = rng.gen_range(0..modulus);
        let scale = rng.gen_range(2..7);
        let offset = rng.gen_range(1..9);
        let threshold = rng.gen_range(40..140);
        builder = builder.class(
            ClassBuilder::new(&format!("Mod{m}"))
                .field("state", int_ty())
                .field("count", int_ty())
                .method(
                    MethodBuilder::new(&step, int_ty())
                        .param("v", int_ty())
                        .body(set_field(
                            this(),
                            "count",
                            add(get_field(this(), "count"), int(1)),
                        ))
                        .body(if_(
                            eq(rem(var("v"), int(modulus)), int(residue)),
                            set_field(
                                this(),
                                "state",
                                add(
                                    get_field(this(), "state"),
                                    call(this(), &helper, vec![var("v")]),
                                ),
                            ),
                            set_field(
                                this(),
                                "state",
                                add(get_field(this(), "state"), int(offset)),
                            ),
                        ))
                        .body(if_(
                            gt(get_field(this(), "state"), int(threshold)),
                            set_field(
                                this(),
                                "state",
                                sub(get_field(this(), "state"), int(threshold)),
                            ),
                            unit(),
                        ))
                        .body(get_field(this(), "state")),
                )
                .method(
                    MethodBuilder::new(&helper, int_ty())
                        .param("v", int_ty())
                        .body(add(mul(var("v"), int(scale)), int(offset))),
                ),
        );
    }

    // The driver: two execution paths over disjoint halves of the module chain, selected
    // by the input "mode" — this is what lets a mutation manifest under one input but not
    // the other.
    let half = modules / 2;
    let mut driver = ClassBuilder::new("Driver").field("acc", int_ty());
    for m in 0..modules {
        driver = driver.field(&format!("m{m}"), class_ty(&format!("Mod{m}")));
    }
    let path_body = |range: std::ops::Range<usize>| -> Vec<Term> {
        let mut body = Vec::new();
        for m in range {
            body.push(set_field(
                this(),
                "acc",
                add(
                    get_field(this(), "acc"),
                    call(
                        get_field(this(), &format!("m{m}")),
                        &format!("step{m}"),
                        vec![var("v")],
                    ),
                ),
            ));
        }
        body.push(get_field(this(), "acc"));
        body
    };
    driver = driver
        .method(
            MethodBuilder::new("runHtmlPath", int_ty())
                .param("v", int_ty())
                .bodies(path_body(0..half)),
        )
        .method(
            MethodBuilder::new("runPlainPath", int_ty())
                .param("v", int_ty())
                .bodies(path_body(half..modules)),
        )
        .method(
            MethodBuilder::new("dispatch", int_ty())
                .param("mode", int_ty())
                .param("v", int_ty())
                .body(if_(
                    eq(var("mode"), int(0)),
                    call(this(), "runHtmlPath", vec![var("v")]),
                    call(this(), "runPlainPath", vec![var("v")]),
                ))
                .body(get_field(this(), "acc")),
        )
        .method(MethodBuilder::new("total", int_ty()).body(get_field(this(), "acc")));
    builder = builder.class(driver);
    builder.build()
}

/// Builds a driver `main` body for the given mode (0 = regressing path, 1 = passing path)
/// and iteration count.
pub fn driver_main(config: &RhinoConfig, mode: i64, iterations: usize) -> Vec<Term> {
    let modules = config.modules.max(2);
    // let sys = new Sys();
    // let m0 = new Mod0(0, 0); …
    // let d = new Driver(0, m0, …, mN);
    // let c = new Ctr(0);
    // while (c.i < iterations) { d.dispatch(mode, c.i); c.i = c.i + 1; }
    // sys.print(d.total());
    let mut driver_args = vec![int(0)];
    for m in 0..modules {
        driver_args.push(var(&format!("m{m}")));
    }
    let loop_and_report = seq(vec![
        while_(
            lt(get_field(var("c"), "i"), int(iterations as i64)),
            seq(vec![
                call(
                    var("d"),
                    "dispatch",
                    vec![int(mode), get_field(var("c"), "i")],
                ),
                set_field(var("c"), "i", add(get_field(var("c"), "i"), int(1))),
            ]),
        ),
        call(var("sys"), "print", vec![call(var("d"), "total", vec![])]),
    ]);
    let with_ctr = let_("c", new("Ctr", vec![int(0)]), loop_and_report);
    let with_driver = let_("d", new("Driver", driver_args), with_ctr);
    let mut term = with_driver;
    for m in (0..modules).rev() {
        term = let_(
            &format!("m{m}"),
            new(&format!("Mod{m}"), vec![int(0), int(0)]),
            term,
        );
    }
    vec![let_("sys", new("Sys", vec![]), term)]
}

/// Generates one injected bug from a seed, retrying mutation sites until the injected
/// change regresses under the regressing input and passes under the passing input.
///
/// Returns `None` when no regressing mutation could be found within the configured number
/// of attempts (rare; callers typically move on to the next seed).
pub fn generate_bug(config: &RhinoConfig) -> Option<InjectedBug> {
    let mut rng = Rng::new(config.seed);
    let base = base_program(config, &mut rng);
    let regressing_main = driver_main(config, 0, config.script_length);
    let passing_main = driver_main(config, 1, config.script_length.max(4) / 2);

    for _attempt in 0..config.max_injection_attempts {
        let cause = RootCause::sample(&mut rng);
        let mut mutated = base.clone();
        let Some(mutation) = inject(&mut mutated, cause, &mut rng) else {
            continue;
        };

        let scenario = Scenario {
            name: format!("rhino-bug-{}", config.seed),
            description: format!(
                "injected {} in {}.{}: {}",
                mutation.cause.label(),
                mutation.class,
                mutation.method,
                mutation.description
            ),
            old_version: Program {
                classes: base.classes.clone(),
                main: vec![],
            },
            new_version: Program {
                classes: mutated.classes.clone(),
                main: vec![],
            },
            regressing_main: regressing_main.clone(),
            passing_main: passing_main.clone(),
            new_regressing_main: None,
            new_passing_main: None,
            ground_truth: GroundTruth::new([
                format!("{}-", mutation.class),
                mutation.method.clone(),
            ]),
            vm_config: VmConfig::default(),
            code_removal: mutation.cause == RootCause::MissingFeature,
        };

        // Validate the injected regression: fail on the regressing input, pass on the
        // passing input, and no runtime error in the *old* version.
        match scenario.trace_all() {
            Ok(traces) if traces.exhibits_regression() => {
                return Some(InjectedBug {
                    scenario,
                    mutation,
                    seed: config.seed,
                });
            }
            _ => continue,
        }
    }
    None
}

/// Generates a dataset of `count` injected bugs with consecutive seeds starting at
/// `first_seed`. Seeds whose injection fails to regress are skipped, so the returned
/// vector may draw from more than `count` seeds.
pub fn dataset(first_seed: u64, count: usize, config_template: &RhinoConfig) -> Vec<InjectedBug> {
    let mut bugs = Vec::new();
    let mut seed = first_seed;
    // Bound the total number of seeds tried so pathological configurations terminate.
    let max_seeds = first_seed + (count as u64) * 10 + 10;
    while bugs.len() < count && seed < max_seeds {
        let config = RhinoConfig {
            seed,
            ..config_template.clone()
        };
        if let Some(bug) = generate_bug(&config) {
            bugs.push(bug);
        }
        seed += 1;
    }
    bugs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_lang::validate::validate;

    fn small_config(seed: u64) -> RhinoConfig {
        RhinoConfig {
            seed,
            modules: 4,
            script_length: 12,
            max_injection_attempts: 40,
        }
    }

    #[test]
    fn base_program_is_well_formed_and_deterministic() {
        let cfg = small_config(5);
        let mut r1 = Rng::new(cfg.seed);
        let mut r2 = Rng::new(cfg.seed);
        let p1 = base_program(&cfg, &mut r1);
        let p2 = base_program(&cfg, &mut r2);
        assert_eq!(p1, p2);
        let full = Program {
            classes: p1.classes.clone(),
            main: driver_main(&cfg, 0, 5),
        };
        validate(&full).expect("generated program validates");
        assert!(p1.classes.len() >= 6);
    }

    #[test]
    fn generated_bug_exhibits_a_regression() {
        let bug = generate_bug(&small_config(1)).expect("seed 1 yields a regressing bug");
        let traces = bug.scenario.trace_all().unwrap();
        assert!(traces.exhibits_regression());
        assert!(!bug.mutation.description.is_empty());
        // Traces are non-trivial.
        assert!(traces.traces.old_regressing.len() > 100);
    }

    #[test]
    fn dataset_produces_distinct_bugs() {
        let bugs = dataset(10, 3, &small_config(0));
        assert_eq!(bugs.len(), 3);
        let names: Vec<&str> = bugs.iter().map(|b| b.scenario.name.as_str()).collect();
        let mut unique = names.clone();
        unique.dedup();
        assert_eq!(names.len(), unique.len());
    }

    #[test]
    fn generation_is_reproducible() {
        let a = generate_bug(&small_config(2)).unwrap();
        let b = generate_bug(&small_config(2)).unwrap();
        assert_eq!(a.scenario.new_version, b.scenario.new_version);
        assert_eq!(a.mutation.cause, b.mutation.cause);
    }

    #[test]
    fn script_length_scales_trace_size() {
        let short = generate_bug(&small_config(3)).unwrap();
        let long_cfg = RhinoConfig {
            script_length: 48,
            ..small_config(3)
        };
        let long = generate_bug(&long_cfg).unwrap();
        let short_len = short
            .scenario
            .trace_all()
            .unwrap()
            .traces
            .old_regressing
            .len();
        let long_len = long
            .scenario
            .trace_all()
            .unwrap()
            .traces
            .old_regressing
            .len();
        assert!(long_len > short_len * 2);
    }
}
