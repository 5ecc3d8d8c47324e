//! A fluent builder API for constructing programs programmatically.
//!
//! The synthetic workload generators (`rprism-workloads`) construct hundreds of program
//! variants; writing raw [`Term`] trees for those is unreadable. This module provides a
//! small DSL of free functions for terms plus [`ProgramBuilder`] / [`ClassBuilder`] /
//! [`MethodBuilder`] for declarations.
//!
//! ```
//! use rprism_lang::build::*;
//! use rprism_lang::ast::PrimType;
//!
//! let program = ProgramBuilder::new()
//!     .class(
//!         ClassBuilder::new("Counter")
//!             .field("count", int_ty())
//!             .method(
//!                 MethodBuilder::new("bump", int_ty())
//!                     .param("by", int_ty())
//!                     .body(set_field(this(), "count", add(get_field(this(), "count"), var("by"))))
//!                     .body(get_field(this(), "count")),
//!             ),
//!     )
//!     .main(let_("c", new("Counter", vec![int(0)]), call(var("c"), "bump", vec![int(2)])))
//!     .build();
//! assert_eq!(program.classes.len(), 1);
//! assert_eq!(program.classes[0].fields[0].1, rprism_lang::Type::Prim(PrimType::Int));
//! ```

use crate::ast::{BinOp, ClassDef, Lit, MethodDef, PrimType, Program, Term, Type, UnOp};
use crate::names::{ClassName, FieldName, MethodName, VarName};

// ---------------------------------------------------------------------------------------
// Type helpers
// ---------------------------------------------------------------------------------------

/// The `Int` primitive type.
pub fn int_ty() -> Type {
    Type::Prim(PrimType::Int)
}

/// The `Bool` primitive type.
pub fn bool_ty() -> Type {
    Type::Prim(PrimType::Bool)
}

/// The `Float` primitive type.
pub fn float_ty() -> Type {
    Type::Prim(PrimType::Float)
}

/// The `Str` primitive type.
pub fn str_ty() -> Type {
    Type::Prim(PrimType::Str)
}

/// The `Unit` primitive type.
pub fn unit_ty() -> Type {
    Type::Prim(PrimType::Unit)
}

/// A class type.
pub fn class_ty(name: &str) -> Type {
    Type::Class(ClassName::new(name))
}

// ---------------------------------------------------------------------------------------
// Term helpers
// ---------------------------------------------------------------------------------------

/// An integer literal.
pub fn int(v: i64) -> Term {
    Term::Lit(Lit::Int(v))
}

/// A boolean literal.
pub fn boolean(v: bool) -> Term {
    Term::Lit(Lit::Bool(v))
}

/// A float literal.
pub fn float(v: f64) -> Term {
    Term::Lit(Lit::Float(v))
}

/// A string literal.
pub fn string(v: impl Into<String>) -> Term {
    Term::Lit(Lit::Str(v.into()))
}

/// The unit literal.
pub fn unit() -> Term {
    Term::Lit(Lit::Unit)
}

/// The null literal.
pub fn null() -> Term {
    Term::Lit(Lit::Null)
}

/// A variable reference.
pub fn var(name: &str) -> Term {
    Term::Var(VarName::new(name))
}

/// The receiver `this`.
pub fn this() -> Term {
    Term::This
}

/// Field read `target.field`.
pub fn get_field(target: Term, field: &str) -> Term {
    Term::FieldGet {
        target: Box::new(target),
        field: FieldName::new(field),
    }
}

/// Field write `target.field = value`.
pub fn set_field(target: Term, field: &str, value: Term) -> Term {
    Term::FieldSet {
        target: Box::new(target),
        field: FieldName::new(field),
        value: Box::new(value),
    }
}

/// Method call `target.method(args)`.
pub fn call(target: Term, method: &str, args: Vec<Term>) -> Term {
    Term::Call {
        target: Box::new(target),
        method: MethodName::new(method),
        args,
    }
}

/// Object creation `new Class(args)`.
pub fn new(class: &str, args: Vec<Term>) -> Term {
    Term::New {
        class: ClassName::new(class),
        args,
    }
}

/// Thread spawn `T(body;)`.
pub fn spawn(body: Vec<Term>) -> Term {
    Term::Spawn { body }
}

/// A sequence of terms.
pub fn seq(terms: Vec<Term>) -> Term {
    Term::Seq(terms)
}

/// `let var = value in body`.
pub fn let_(var_name: &str, value: Term, body: Term) -> Term {
    Term::Let {
        var: VarName::new(var_name),
        value: Box::new(value),
        body: Box::new(body),
    }
}

/// `if (cond) { then_branch } else { else_branch }`.
pub fn if_(cond: Term, then_branch: Term, else_branch: Term) -> Term {
    Term::If {
        cond: Box::new(cond),
        then_branch: Box::new(then_branch),
        else_branch: Box::new(else_branch),
    }
}

/// `while (cond) { body }`.
pub fn while_(cond: Term, body: Term) -> Term {
    Term::While {
        cond: Box::new(cond),
        body: Box::new(body),
    }
}

fn bin(op: BinOp, lhs: Term, rhs: Term) -> Term {
    Term::Bin {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

/// `lhs + rhs`.
pub fn add(lhs: Term, rhs: Term) -> Term {
    bin(BinOp::Add, lhs, rhs)
}

/// `lhs - rhs`.
pub fn sub(lhs: Term, rhs: Term) -> Term {
    bin(BinOp::Sub, lhs, rhs)
}

/// `lhs * rhs`.
pub fn mul(lhs: Term, rhs: Term) -> Term {
    bin(BinOp::Mul, lhs, rhs)
}

/// `lhs / rhs`.
pub fn div(lhs: Term, rhs: Term) -> Term {
    bin(BinOp::Div, lhs, rhs)
}

/// `lhs % rhs`.
pub fn rem(lhs: Term, rhs: Term) -> Term {
    bin(BinOp::Rem, lhs, rhs)
}

/// `lhs == rhs`.
pub fn eq(lhs: Term, rhs: Term) -> Term {
    bin(BinOp::Eq, lhs, rhs)
}

/// `lhs != rhs`.
pub fn ne(lhs: Term, rhs: Term) -> Term {
    bin(BinOp::Ne, lhs, rhs)
}

/// `lhs < rhs`.
pub fn lt(lhs: Term, rhs: Term) -> Term {
    bin(BinOp::Lt, lhs, rhs)
}

/// `lhs <= rhs`.
pub fn le(lhs: Term, rhs: Term) -> Term {
    bin(BinOp::Le, lhs, rhs)
}

/// `lhs > rhs`.
pub fn gt(lhs: Term, rhs: Term) -> Term {
    bin(BinOp::Gt, lhs, rhs)
}

/// `lhs >= rhs`.
pub fn ge(lhs: Term, rhs: Term) -> Term {
    bin(BinOp::Ge, lhs, rhs)
}

/// `lhs && rhs`.
pub fn and(lhs: Term, rhs: Term) -> Term {
    bin(BinOp::And, lhs, rhs)
}

/// `lhs || rhs`.
pub fn or(lhs: Term, rhs: Term) -> Term {
    bin(BinOp::Or, lhs, rhs)
}

/// `!operand`.
pub fn not(operand: Term) -> Term {
    Term::Un {
        op: UnOp::Not,
        operand: Box::new(operand),
    }
}

/// `-operand`.
pub fn neg(operand: Term) -> Term {
    Term::Un {
        op: UnOp::Neg,
        operand: Box::new(operand),
    }
}

// ---------------------------------------------------------------------------------------
// Declaration builders
// ---------------------------------------------------------------------------------------

/// Builds a [`MethodDef`] incrementally.
#[derive(Clone, Debug)]
pub struct MethodBuilder {
    def: MethodDef,
}

impl MethodBuilder {
    /// Starts a new method with the given name and return type.
    pub fn new(name: &str, return_type: Type) -> Self {
        MethodBuilder {
            def: MethodDef {
                name: MethodName::new(name),
                params: Vec::new(),
                return_type,
                body: Vec::new(),
            },
        }
    }

    /// Adds a parameter.
    pub fn param(mut self, name: &str, ty: Type) -> Self {
        self.def.params.push((VarName::new(name), ty));
        self
    }

    /// Appends a body term; the last appended term is the return value.
    pub fn body(mut self, term: Term) -> Self {
        self.def.body.push(term);
        self
    }

    /// Appends several body terms.
    pub fn bodies(mut self, terms: impl IntoIterator<Item = Term>) -> Self {
        self.def.body.extend(terms);
        self
    }

    /// Finishes the method.
    pub fn build(self) -> MethodDef {
        self.def
    }
}

/// Builds a [`ClassDef`] incrementally.
#[derive(Clone, Debug)]
pub struct ClassBuilder {
    def: ClassDef,
}

impl ClassBuilder {
    /// Starts a new class extending `Object`.
    pub fn new(name: &str) -> Self {
        ClassBuilder {
            def: ClassDef {
                name: ClassName::new(name),
                superclass: ClassName::object(),
                fields: Vec::new(),
                methods: Vec::new(),
            },
        }
    }

    /// Sets the superclass.
    pub fn extends(mut self, superclass: &str) -> Self {
        self.def.superclass = ClassName::new(superclass);
        self
    }

    /// Declares a field.
    pub fn field(mut self, name: &str, ty: Type) -> Self {
        self.def.fields.push((FieldName::new(name), ty));
        self
    }

    /// Declares a method.
    pub fn method(mut self, method: MethodBuilder) -> Self {
        self.def.methods.push(method.build());
        self
    }

    /// Finishes the class.
    pub fn build(self) -> ClassDef {
        self.def
    }
}

/// Builds a [`Program`] incrementally.
#[derive(Clone, Debug, Default)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Starts an empty program.
    pub fn new() -> Self {
        ProgramBuilder {
            program: Program::empty(),
        }
    }

    /// Adds a class.
    pub fn class(mut self, class: ClassBuilder) -> Self {
        self.program.classes.push(class.build());
        self
    }

    /// Adds an already-built class definition.
    pub fn class_def(mut self, class: ClassDef) -> Self {
        self.program.classes.push(class);
        self
    }

    /// Appends a term to the main thread body.
    pub fn main(mut self, term: Term) -> Self {
        self.program.main.push(term);
        self
    }

    /// Appends several terms to the main thread body.
    pub fn mains(mut self, terms: impl IntoIterator<Item = Term>) -> Self {
        self.program.main.extend(terms);
        self
    }

    /// Finishes the program.
    pub fn build(self) -> Program {
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classtable::ClassTable;
    use crate::validate::validate;

    #[test]
    fn builder_produces_well_formed_program() {
        let p = ProgramBuilder::new()
            .class(
                ClassBuilder::new("Logger").field("count", int_ty()).method(
                    MethodBuilder::new("addMsg", unit_ty())
                        .param("msg", str_ty())
                        .body(set_field(
                            this(),
                            "count",
                            add(get_field(this(), "count"), int(1)),
                        )),
                ),
            )
            .main(let_(
                "log",
                new("Logger", vec![int(0)]),
                call(var("log"), "addMsg", vec![string("hello")]),
            ))
            .build();

        let ct = ClassTable::new(&p).expect("class table");
        assert_eq!(ct.len(), 1);
        validate(&p).expect("program should validate");
    }

    #[test]
    fn nested_control_flow_builds() {
        let t = if_(
            lt(var("i"), int(10)),
            seq(vec![call(var("w"), "work", vec![var("i")]), unit()]),
            unit(),
        );
        assert!(t.size() > 5);
    }

    #[test]
    fn class_builder_superclass_and_fields() {
        let c = ClassBuilder::new("B")
            .extends("A")
            .field("x", bool_ty())
            .field("y", float_ty())
            .build();
        assert_eq!(c.superclass, ClassName::new("A"));
        assert_eq!(c.fields.len(), 2);
    }

    #[test]
    fn all_operator_helpers_build() {
        let ops = vec![
            add(int(1), int(2)),
            sub(int(1), int(2)),
            mul(int(1), int(2)),
            div(int(1), int(2)),
            rem(int(1), int(2)),
            eq(int(1), int(2)),
            ne(int(1), int(2)),
            lt(int(1), int(2)),
            le(int(1), int(2)),
            gt(int(1), int(2)),
            ge(int(1), int(2)),
            and(boolean(true), boolean(false)),
            or(boolean(true), boolean(false)),
            not(boolean(true)),
            neg(int(5)),
        ];
        for t in ops {
            assert!(t.size() >= 2);
        }
    }
}
