//! Regression injection by AST mutation.
//!
//! The paper's quantitative evaluation (§5.1) injects regressions into the post-fix
//! versions of the iBUGS Rhino bugs following the root-cause distribution that an
//! empirical study found for semantic bugs in Mozilla: missing features (26.4 %), missing
//! cases (17.3 %), boundary conditions (10.3 %), control flow (16.0 %), wrong expressions
//! (5.8 %) and typos (24.2 %). This module implements one mutation operator per root-cause
//! category over the core-calculus AST.

use rprism_trace::testgen::Rng;

use rprism_lang::ast::{BinOp, Lit, Program, Term};
use rprism_lang::FieldName;

/// The root-cause categories of §5.1 with their empirical weights.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RootCause {
    /// A statement (feature) present in the original is missing in the new version.
    MissingFeature,
    /// A case of a conditional is no longer handled.
    MissingCase,
    /// An off-by-one / inclusive-exclusive boundary error.
    BoundaryCondition,
    /// Control flow altered (branches swapped or condition negated).
    ControlFlow,
    /// An arithmetic expression computes the wrong value.
    WrongExpression,
    /// A "typo": the wrong (but type-compatible) field or constant is used.
    Typo,
}

impl RootCause {
    /// All categories with their weights from the paper (percentages).
    pub const WEIGHTED: [(RootCause, f64); 6] = [
        (RootCause::MissingFeature, 26.4),
        (RootCause::MissingCase, 17.3),
        (RootCause::BoundaryCondition, 10.3),
        (RootCause::ControlFlow, 16.0),
        (RootCause::WrongExpression, 5.8),
        (RootCause::Typo, 24.2),
    ];

    /// Samples a category according to the paper's distribution.
    pub fn sample(rng: &mut Rng) -> RootCause {
        let total: f64 = Self::WEIGHTED.iter().map(|(_, w)| w).sum();
        let mut x = rng.gen_range(0.0..total);
        for (cause, weight) in Self::WEIGHTED {
            if x < weight {
                return cause;
            }
            x -= weight;
        }
        RootCause::Typo
    }

    /// A short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RootCause::MissingFeature => "missing-feature",
            RootCause::MissingCase => "missing-case",
            RootCause::BoundaryCondition => "boundary-condition",
            RootCause::ControlFlow => "control-flow",
            RootCause::WrongExpression => "wrong-expression",
            RootCause::Typo => "typo",
        }
    }
}

/// Describes a successfully injected mutation.
#[derive(Clone, Debug)]
pub struct MutationOutcome {
    /// The root-cause category of the mutation.
    pub cause: RootCause,
    /// The class whose method was mutated.
    pub class: String,
    /// The method that was mutated.
    pub method: String,
    /// A human-readable description of what changed.
    pub description: String,
}

/// Applies one mutation of the given category to the program (in place).
///
/// Returns `None` when the program offers no applicable mutation site for the category.
pub fn inject(program: &mut Program, cause: RootCause, rng: &mut Rng) -> Option<MutationOutcome> {
    if cause == RootCause::MissingFeature {
        return inject_missing_feature(program, rng);
    }
    // Enumerate candidate sites: (class index, method index, site ordinal within method).
    let mut sites: Vec<(usize, usize, usize)> = Vec::new();
    for (ci, class) in program.classes.iter().enumerate() {
        if class.name.as_str() == "Sys" {
            continue;
        }
        for (mi, method) in class.methods.iter().enumerate() {
            let mut count = 0usize;
            for term in &method.body {
                count_sites(term, cause, &mut count);
            }
            for s in 0..count {
                sites.push((ci, mi, s));
            }
        }
    }
    if sites.is_empty() {
        return None;
    }
    let (ci, mi, site) = sites[rng.gen_range(0..sites.len())];
    let class_name = program.classes[ci].name.as_str().to_owned();
    let method_name = program.classes[ci].methods[mi].name.as_str().to_owned();
    let class_fields: Vec<FieldName> = program.classes[ci]
        .fields
        .iter()
        .map(|(f, _)| f.clone())
        .collect();

    let mut remaining = site;
    let mut description = None;
    let body = &mut program.classes[ci].methods[mi].body;
    for term in body.iter_mut() {
        if description.is_some() {
            break;
        }
        apply_at_site(
            term,
            cause,
            &mut remaining,
            &mut description,
            &class_fields,
            rng,
        );
    }

    description.map(|description| MutationOutcome {
        cause,
        class: class_name,
        method: method_name,
        description,
    })
}

/// Removes a statement-position method call from some method body ("missing feature").
fn inject_missing_feature(program: &mut Program, rng: &mut Rng) -> Option<MutationOutcome> {
    // Candidate sites: top-level call statements in method bodies that are not the final
    // (return-value) term, so removal cannot change a method's result type.
    let mut sites: Vec<(usize, usize, usize)> = Vec::new();
    for (ci, class) in program.classes.iter().enumerate() {
        if class.name.as_str() == "Sys" {
            continue;
        }
        for (mi, method) in class.methods.iter().enumerate() {
            if method.body.len() < 2 {
                continue;
            }
            for (ti, term) in method.body[..method.body.len() - 1].iter().enumerate() {
                if matches!(term, Term::Call { .. }) {
                    sites.push((ci, mi, ti));
                }
            }
        }
    }
    if sites.is_empty() {
        return None;
    }
    let (ci, mi, ti) = sites[rng.gen_range(0..sites.len())];
    let class_name = program.classes[ci].name.as_str().to_owned();
    let method_name = program.classes[ci].methods[mi].name.as_str().to_owned();
    let removed = program.classes[ci].methods[mi].body.remove(ti);
    let description = match removed {
        Term::Call { method, .. } => format!("removed call to `{method}`"),
        _ => "removed a statement".to_owned(),
    };
    Some(MutationOutcome {
        cause: RootCause::MissingFeature,
        class: class_name,
        method: method_name,
        description,
    })
}

/// Counts the mutation sites of the given category inside a term (pre-order).
fn count_sites(term: &Term, cause: RootCause, count: &mut usize) {
    if site_matches(term, cause) {
        *count += 1;
    }
    term.for_each_child(|c| count_sites(c, cause, count));
}

fn site_matches(term: &Term, cause: RootCause) -> bool {
    match cause {
        RootCause::MissingFeature => {
            matches!(term, Term::Seq(terms) if terms.iter().any(|t| matches!(t, Term::Call { .. })))
        }
        RootCause::MissingCase | RootCause::ControlFlow => matches!(term, Term::If { .. }),
        RootCause::BoundaryCondition => matches!(
            term,
            Term::Bin {
                op: BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge,
                ..
            }
        ),
        RootCause::WrongExpression => matches!(
            term,
            Term::Bin {
                op: BinOp::Add | BinOp::Sub | BinOp::Mul,
                ..
            }
        ),
        RootCause::Typo => matches!(
            term,
            Term::FieldGet { .. } | Term::Lit(Lit::Int(_)) | Term::Lit(Lit::Str(_))
        ),
    }
}

/// Walks the term pre-order; when the `remaining`-th matching site is reached, applies the
/// mutation and records a description.
fn apply_at_site(
    term: &mut Term,
    cause: RootCause,
    remaining: &mut usize,
    description: &mut Option<String>,
    class_fields: &[FieldName],
    rng: &mut Rng,
) {
    if description.is_some() {
        return;
    }
    if site_matches(term, cause) {
        if *remaining == 0 {
            *description = Some(mutate_term(term, cause, class_fields, rng));
            return;
        }
        *remaining -= 1;
    }
    // Recurse into children mutably.
    match term {
        Term::Var(_) | Term::This | Term::Lit(_) => {}
        Term::FieldGet { target, .. } => {
            apply_at_site(target, cause, remaining, description, class_fields, rng)
        }
        Term::FieldSet { target, value, .. } => {
            apply_at_site(target, cause, remaining, description, class_fields, rng);
            apply_at_site(value, cause, remaining, description, class_fields, rng);
        }
        Term::Call { target, args, .. } => {
            apply_at_site(target, cause, remaining, description, class_fields, rng);
            for a in args {
                apply_at_site(a, cause, remaining, description, class_fields, rng);
            }
        }
        Term::New { args, .. } => {
            for a in args {
                apply_at_site(a, cause, remaining, description, class_fields, rng);
            }
        }
        Term::Spawn { body } => {
            for t in body {
                apply_at_site(t, cause, remaining, description, class_fields, rng);
            }
        }
        Term::Seq(terms) => {
            for t in terms {
                apply_at_site(t, cause, remaining, description, class_fields, rng);
            }
        }
        Term::Return(value) => {
            apply_at_site(value, cause, remaining, description, class_fields, rng);
        }
        Term::Let { value, body, .. } => {
            apply_at_site(value, cause, remaining, description, class_fields, rng);
            apply_at_site(body, cause, remaining, description, class_fields, rng);
        }
        Term::If {
            cond,
            then_branch,
            else_branch,
        } => {
            apply_at_site(cond, cause, remaining, description, class_fields, rng);
            apply_at_site(
                then_branch,
                cause,
                remaining,
                description,
                class_fields,
                rng,
            );
            apply_at_site(
                else_branch,
                cause,
                remaining,
                description,
                class_fields,
                rng,
            );
        }
        Term::While { cond, body } => {
            apply_at_site(cond, cause, remaining, description, class_fields, rng);
            apply_at_site(body, cause, remaining, description, class_fields, rng);
        }
        Term::Bin { lhs, rhs, .. } => {
            apply_at_site(lhs, cause, remaining, description, class_fields, rng);
            apply_at_site(rhs, cause, remaining, description, class_fields, rng);
        }
        Term::Un { operand, .. } => {
            apply_at_site(operand, cause, remaining, description, class_fields, rng)
        }
    }
}

fn mutate_term(
    term: &mut Term,
    cause: RootCause,
    class_fields: &[FieldName],
    rng: &mut Rng,
) -> String {
    match cause {
        RootCause::MissingFeature => {
            if let Term::Seq(terms) = term {
                let call_positions: Vec<usize> = terms
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| matches!(t, Term::Call { .. }))
                    .map(|(i, _)| i)
                    .collect();
                let pos = call_positions[rng.gen_range(0..call_positions.len())];
                let removed = terms.remove(pos);
                if terms.is_empty() {
                    terms.push(Term::unit());
                }
                if let Term::Call { method, .. } = removed {
                    return format!("removed call to `{method}`");
                }
                return "removed a call statement".to_owned();
            }
            unreachable!("site_matches guarantees a Seq with a call")
        }
        RootCause::MissingCase => {
            if let Term::If { cond, .. } = term {
                // The then-case is no longer handled for any input.
                **cond = Term::Bin {
                    op: BinOp::And,
                    lhs: Box::new((**cond).clone()),
                    rhs: Box::new(Term::Lit(Lit::Bool(false))),
                };
                return "narrowed a conditional so one case is no longer handled".to_owned();
            }
            unreachable!("site_matches guarantees an If")
        }
        RootCause::ControlFlow => {
            if let Term::If {
                then_branch,
                else_branch,
                ..
            } = term
            {
                std::mem::swap(then_branch, else_branch);
                return "swapped the branches of a conditional".to_owned();
            }
            unreachable!("site_matches guarantees an If")
        }
        RootCause::BoundaryCondition => {
            if let Term::Bin { op, .. } = term {
                let new_op = match *op {
                    BinOp::Lt => BinOp::Le,
                    BinOp::Le => BinOp::Lt,
                    BinOp::Gt => BinOp::Ge,
                    BinOp::Ge => BinOp::Gt,
                    other => other,
                };
                let desc = format!(
                    "changed comparison `{}` to `{}`",
                    op.symbol(),
                    new_op.symbol()
                );
                *op = new_op;
                return desc;
            }
            unreachable!("site_matches guarantees a comparison")
        }
        RootCause::WrongExpression => {
            if let Term::Bin { op, .. } = term {
                let new_op = match *op {
                    BinOp::Add => BinOp::Sub,
                    BinOp::Sub => BinOp::Add,
                    BinOp::Mul => BinOp::Add,
                    other => other,
                };
                let desc = format!(
                    "changed operator `{}` to `{}`",
                    op.symbol(),
                    new_op.symbol()
                );
                *op = new_op;
                return desc;
            }
            unreachable!("site_matches guarantees an arithmetic operator")
        }
        RootCause::Typo => match term {
            Term::FieldGet { field, .. } if class_fields.len() > 1 => {
                let alternatives: Vec<&FieldName> =
                    class_fields.iter().filter(|f| *f != field).collect();
                let replacement = alternatives[rng.gen_range(0..alternatives.len())].clone();
                let desc = format!("replaced read of field `{field}` with `{replacement}`");
                *field = replacement;
                desc
            }
            Term::Lit(Lit::Int(v)) => {
                let delta = if rng.gen_bool(0.5) { 1 } else { -1 };
                let desc = format!("changed constant {v} to {}", *v + delta);
                *v += delta;
                desc
            }
            Term::Lit(Lit::Str(s)) => {
                let desc = format!("changed string literal {s:?}");
                s.push('_');
                desc
            }
            other => {
                // Field reads on single-field classes fall back to a constant tweak when
                // possible; otherwise report an identity "typo" (caller will retry).
                let _ = other;
                "no applicable typo at this site".to_owned()
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_lang::parser::parse_program;
    use rprism_lang::pretty::program_to_string;
    use rprism_lang::validate::validate;

    const SRC: &str = r#"
        class Acc extends Object {
            Int total;
            Int bonus;
            Unit add(Int v) {
                if (v > 10) {
                    this.total = this.total + v;
                } else {
                    this.total = this.total + 1;
                }
            }
            Unit twice(Int v) {
                this.add(v);
                this.add(v * 2);
            }
        }
        main {
            let a = new Acc(0, 5);
            a.twice(20);
        }
    "#;

    fn rng(seed: u64) -> Rng {
        Rng::new(seed)
    }

    #[test]
    fn sampling_follows_the_weighted_distribution_roughly() {
        let mut r = rng(1);
        let mut missing_feature = 0usize;
        let mut wrong_expression = 0usize;
        for _ in 0..2000 {
            match RootCause::sample(&mut r) {
                RootCause::MissingFeature => missing_feature += 1,
                RootCause::WrongExpression => wrong_expression += 1,
                _ => {}
            }
        }
        // 26.4% vs 5.8% — the most common category must clearly dominate the rarest.
        assert!(missing_feature > wrong_expression * 2);
    }

    #[test]
    fn every_category_mutates_the_sample_program() {
        for (cause, _) in RootCause::WEIGHTED {
            let mut program = parse_program(SRC).unwrap();
            let before = program_to_string(&program);
            let outcome = inject(&mut program, cause, &mut rng(7));
            let outcome = match outcome {
                Some(o) => o,
                None => panic!("no mutation site for {cause:?}"),
            };
            let after = program_to_string(&program);
            assert_ne!(before, after, "{cause:?} did not change the program");
            assert!(!outcome.description.is_empty());
            assert_eq!(outcome.class, "Acc");
            // Mutated programs remain well-formed.
            validate(&program).expect("mutated program still validates");
        }
    }

    #[test]
    fn mutation_is_deterministic_for_a_fixed_seed() {
        let mutate = |seed| {
            let mut p = parse_program(SRC).unwrap();
            inject(&mut p, RootCause::BoundaryCondition, &mut rng(seed)).unwrap();
            program_to_string(&p)
        };
        assert_eq!(mutate(42), mutate(42));
    }

    #[test]
    fn missing_feature_removes_a_call() {
        let mut program = parse_program(SRC).unwrap();
        let outcome = inject(&mut program, RootCause::MissingFeature, &mut rng(3)).unwrap();
        assert!(outcome.description.contains("removed call"));
        // One of the two add calls in `twice` is gone.
        let twice = program.class("Acc").unwrap().method("twice").unwrap();
        let calls = twice.body.iter().map(Term::size).sum::<usize>();
        let original = parse_program(SRC).unwrap();
        let orig_calls = original
            .class("Acc")
            .unwrap()
            .method("twice")
            .unwrap()
            .body
            .iter()
            .map(Term::size)
            .sum::<usize>();
        assert!(calls < orig_calls);
    }

    #[test]
    fn labels_are_unique() {
        use std::collections::HashSet;
        let labels: HashSet<&str> = RootCause::WEIGHTED.iter().map(|(c, _)| c.label()).collect();
        assert_eq!(labels.len(), RootCause::WEIGHTED.len());
    }

    #[test]
    fn programs_without_sites_return_none() {
        let mut program = parse_program("main { 1 + 1; }").unwrap();
        assert!(inject(&mut program, RootCause::ControlFlow, &mut rng(0)).is_none());
    }
}
