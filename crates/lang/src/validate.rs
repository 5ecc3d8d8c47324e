//! Static well-formedness checks for programs.
//!
//! The checks are deliberately lighter than a full type system (the paper's calculus is
//! untyped beyond class membership); they catch the structural mistakes that would
//! otherwise only surface as runtime errors in the VM:
//!
//! * the class hierarchy is well-formed (delegated to [`ClassTable::new`]),
//! * every `new C(...)` names a known class and passes one argument per field,
//! * every statically-resolvable method call (receiver is `this` or a fresh `new C(...)`)
//!   targets an existing method with the right arity,
//! * every field access on `this` names a field of the enclosing class (or a superclass),
//! * variable references are in scope.

use std::collections::HashSet;

use crate::ast::{Program, Term};
use crate::classtable::ClassTable;
use crate::error::Error;
use crate::names::{ClassName, VarName};

/// Validates `program`, returning the constructed [`ClassTable`] on success.
///
/// # Errors
///
/// Returns the first structural error found; see the module docs for the list of checks.
pub fn validate(program: &Program) -> Result<ClassTable, Error> {
    let table = ClassTable::new(program)?;
    let checker = Checker { table: &table };

    for class in &program.classes {
        for method in &class.methods {
            let mut scope: HashSet<VarName> =
                method.params.iter().map(|(v, _)| v.clone()).collect();
            for term in &method.body {
                checker.check_term(term, Some(&class.name), &mut scope)?;
            }
        }
    }
    let mut scope = HashSet::new();
    for term in &program.main {
        checker.check_term(term, None, &mut scope)?;
    }
    Ok(table)
}

struct Checker<'a> {
    table: &'a ClassTable,
}

impl Checker<'_> {
    fn check_term(
        &self,
        term: &Term,
        enclosing: Option<&ClassName>,
        scope: &mut HashSet<VarName>,
    ) -> Result<(), Error> {
        match term {
            Term::Var(v) => {
                if !scope.contains(v) {
                    return Err(Error::Invalid(format!("variable `{v}` is not in scope")));
                }
                Ok(())
            }
            Term::This => {
                if enclosing.is_none() {
                    return Err(Error::Invalid(
                        "`this` used outside of a method body".to_owned(),
                    ));
                }
                Ok(())
            }
            Term::Lit(_) => Ok(()),
            Term::FieldGet { target, field } => {
                self.check_term(target, enclosing, scope)?;
                if let (Term::This, Some(class)) = (&**target, enclosing) {
                    let known = self.table.fields(class).iter().any(|(f, _)| f == field);
                    if !known {
                        return Err(Error::Invalid(format!(
                            "class `{class}` has no field `{field}`"
                        )));
                    }
                }
                Ok(())
            }
            Term::FieldSet {
                target,
                field,
                value,
            } => {
                self.check_term(target, enclosing, scope)?;
                self.check_term(value, enclosing, scope)?;
                if let (Term::This, Some(class)) = (&**target, enclosing) {
                    let known = self.table.fields(class).iter().any(|(f, _)| f == field);
                    if !known {
                        return Err(Error::Invalid(format!(
                            "class `{class}` has no field `{field}` to assign"
                        )));
                    }
                }
                Ok(())
            }
            Term::Call {
                target,
                method,
                args,
            } => {
                self.check_term(target, enclosing, scope)?;
                for a in args {
                    self.check_term(a, enclosing, scope)?;
                }
                // Resolve the receiver class statically where cheaply possible.
                let receiver_class: Option<ClassName> = match &**target {
                    Term::This => enclosing.cloned(),
                    Term::New { class, .. } => Some(class.clone()),
                    _ => None,
                };
                if let Some(class) = receiver_class {
                    match self.table.mbody(method, &class) {
                        Some((_, def)) => {
                            if def.params.len() != args.len() {
                                return Err(Error::Invalid(format!(
                                    "method `{class}.{method}` expects {} arguments, found {}",
                                    def.params.len(),
                                    args.len()
                                )));
                            }
                        }
                        None => {
                            return Err(Error::Invalid(format!(
                                "class `{class}` has no method `{method}`"
                            )));
                        }
                    }
                }
                Ok(())
            }
            Term::New { class, args } => {
                for a in args {
                    self.check_term(a, enclosing, scope)?;
                }
                if !self.table.is_defined(class) {
                    return Err(Error::UnknownClass(class.as_str().to_owned()));
                }
                let expected = self.table.fields(class).len();
                if expected != args.len() {
                    return Err(Error::ConstructorArity {
                        class: class.as_str().to_owned(),
                        expected,
                        found: args.len(),
                    });
                }
                Ok(())
            }
            Term::Spawn { body } => {
                let mut spawn_scope = scope.clone();
                for t in body {
                    self.check_term(t, enclosing, &mut spawn_scope)?;
                }
                Ok(())
            }
            Term::Seq(terms) => {
                for t in terms {
                    self.check_term(t, enclosing, scope)?;
                }
                Ok(())
            }
            Term::Return(value) => self.check_term(value, enclosing, scope),
            Term::Let { var, value, body } => {
                self.check_term(value, enclosing, scope)?;
                let newly_bound = scope.insert(var.clone());
                let result = self.check_term(body, enclosing, scope);
                if newly_bound {
                    scope.remove(var);
                }
                result
            }
            Term::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.check_term(cond, enclosing, scope)?;
                self.check_term(then_branch, enclosing, scope)?;
                self.check_term(else_branch, enclosing, scope)
            }
            Term::While { cond, body } => {
                self.check_term(cond, enclosing, scope)?;
                self.check_term(body, enclosing, scope)
            }
            Term::Bin { lhs, rhs, .. } => {
                self.check_term(lhs, enclosing, scope)?;
                self.check_term(rhs, enclosing, scope)
            }
            Term::Un { operand, .. } => self.check_term(operand, enclosing, scope),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check(src: &str) -> Result<ClassTable, Error> {
        validate(&parse_program(src).unwrap())
    }

    #[test]
    fn valid_program_passes() {
        let src = r#"
            class Counter extends Object {
                Int count;
                Int bump(Int by) { this.count = this.count + by; return this.count; }
            }
            main { let c = new Counter(0); c.bump(2); }
        "#;
        assert!(check(src).is_ok());
    }

    #[test]
    fn constructor_arity_checked() {
        let src = r#"
            class Counter extends Object { Int count; }
            main { new Counter(1, 2); }
        "#;
        assert!(matches!(check(src), Err(Error::ConstructorArity { .. })));
    }

    #[test]
    fn unknown_class_in_new_rejected() {
        assert!(matches!(
            check("main { new Ghost(); }"),
            Err(Error::UnknownClass(_))
        ));
    }

    #[test]
    fn out_of_scope_variable_rejected() {
        assert!(matches!(check("main { x.go(); }"), Err(Error::Invalid(_))));
    }

    #[test]
    fn this_outside_method_rejected() {
        assert!(matches!(
            check("main { this.count; }"),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn unknown_field_on_this_rejected() {
        let src = r#"
            class A extends Object {
                Int x;
                Int get() { return this.y; }
            }
            main { }
        "#;
        assert!(matches!(check(src), Err(Error::Invalid(_))));
    }

    #[test]
    fn unknown_method_on_new_rejected() {
        let src = r#"
            class A extends Object { Int x; }
            main { new A(1).missing(); }
        "#;
        assert!(matches!(check(src), Err(Error::Invalid(_))));
    }

    #[test]
    fn method_arity_on_this_checked() {
        let src = r#"
            class A extends Object {
                Unit go(Int a) { unit; }
                Unit run() { this.go(1, 2); }
            }
            main { }
        "#;
        assert!(matches!(check(src), Err(Error::Invalid(_))));
    }

    #[test]
    fn inherited_fields_visible_through_this() {
        let src = r#"
            class Base extends Object { Int x; }
            class Derived extends Base {
                Int y;
                Int sum() { return this.x + this.y; }
            }
            main { new Derived(1, 2).sum(); }
        "#;
        assert!(check(src).is_ok());
    }

    #[test]
    fn spawn_body_is_checked_with_outer_scope() {
        let src = r#"
            class W extends Object { Int n; Unit work() { unit; } }
            main {
                let w = new W(0);
                spawn { w.work(); }
            }
        "#;
        assert!(check(src).is_ok());
        assert!(matches!(
            check("main { spawn { ghost.work(); } }"),
            Err(Error::Invalid(_))
        ));
    }
}
