//! Abstract syntax of the core calculus (paper Fig. 3, plus documented extensions).
//!
//! The paper's grammar:
//!
//! ```text
//! program P ::= T(t;)
//! class  CL ::= class C extends C { A f; K M }
//! creation K ::= C(A f) { super(f); this.f = f; }
//! method  M ::= A m(A x) { t; return t; }
//! type    A ::= C | D
//! term    t ::= x | v | t.f | t.f = t | t.m(t) | new C(t) | new D(d) | T(t;)
//! value   v ::= l(C) | D(d)
//! ```
//!
//! Constructors are exactly the canonical Featherweight-Java form — one constructor per
//! class, taking one argument per (inherited + declared) field and assigning it — so they
//! are *not* represented explicitly in the AST; `new C(args)` suffices.
//!
//! Extensions relative to the paper (see `DESIGN.md` §3): `let`, `if`, bounded `while`,
//! primitive binary/unary operators, and string/unit literals.

use crate::names::{ClassName, FieldName, MethodName, VarName};

/// A static type: either a class type `C` or a primitive value type `D`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// A class (reference) type.
    Class(ClassName),
    /// A primitive value type.
    Prim(PrimType),
}

impl Type {
    /// Convenience constructor for a class type.
    pub fn class(name: impl Into<ClassName>) -> Self {
        Type::Class(name.into())
    }

    /// The `Object` root class type.
    pub fn object() -> Self {
        Type::Class(ClassName::object())
    }

    /// Returns the class name if this is a class type.
    pub fn as_class(&self) -> Option<&ClassName> {
        match self {
            Type::Class(c) => Some(c),
            Type::Prim(_) => None,
        }
    }

    /// A short printable name for the type, used in trace entries and diagnostics.
    pub fn type_name(&self) -> String {
        match self {
            Type::Class(c) => c.as_str().to_owned(),
            Type::Prim(p) => p.name().to_owned(),
        }
    }
}

impl std::fmt::Display for Type {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.type_name())
    }
}

/// The primitive ("value object") types `D` of the paper: booleans, integers and floats,
/// extended with strings and the unit type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrimType {
    /// The boolean type `Bool`.
    Bool,
    /// The integer type `Int` (modelled as `i64`).
    Int,
    /// The float type `Float` (modelled as `f64`).
    Float,
    /// The string type `Str` (extension).
    Str,
    /// The unit type (extension; the value of statements evaluated for effect).
    Unit,
}

impl PrimType {
    /// Returns the canonical source-level name of the primitive type.
    pub fn name(self) -> &'static str {
        match self {
            PrimType::Bool => "Bool",
            PrimType::Int => "Int",
            PrimType::Float => "Float",
            PrimType::Str => "Str",
            PrimType::Unit => "Unit",
        }
    }
}

/// A literal primitive value `D(d)`.
#[derive(Clone, Debug, PartialEq)]
pub enum Lit {
    /// A boolean literal.
    Bool(bool),
    /// An integer literal.
    Int(i64),
    /// A float literal.
    Float(f64),
    /// A string literal.
    Str(String),
    /// The unit literal.
    Unit,
    /// The null reference literal (extension; the uninitialized reference).
    Null,
}

impl Lit {
    /// The primitive type of this literal, or `None` for `null` (which inhabits every
    /// class type).
    pub fn prim_type(&self) -> Option<PrimType> {
        match self {
            Lit::Bool(_) => Some(PrimType::Bool),
            Lit::Int(_) => Some(PrimType::Int),
            Lit::Float(_) => Some(PrimType::Float),
            Lit::Str(_) => Some(PrimType::Str),
            Lit::Unit => Some(PrimType::Unit),
            Lit::Null => None,
        }
    }
}

/// Binary operators over primitive values (extension).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition on `Int`/`Float`, concatenation on `Str`.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (integer division on `Int`).
    Div,
    /// Remainder.
    Rem,
    /// Structural equality (also defined on references: location equality).
    Eq,
    /// Structural inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-than-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-than-or-equal.
    Ge,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
}

impl BinOp {
    /// The source-level spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Unary operators over primitive values (extension).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Boolean negation.
    Not,
    /// Arithmetic negation.
    Neg,
}

impl UnOp {
    /// The source-level spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Not => "!",
            UnOp::Neg => "-",
        }
    }
}

/// A term `t` of the calculus.
#[derive(Clone, Debug, PartialEq)]
pub enum Term {
    /// A variable occurrence `x` (method parameter or `let`-bound local).
    Var(VarName),
    /// The receiver `this`.
    This,
    /// A literal primitive value `new D(d)` / `D(d)`.
    Lit(Lit),
    /// Field access `t.f`.
    FieldGet {
        /// The target object term.
        target: Box<Term>,
        /// The field being read.
        field: FieldName,
    },
    /// Field assignment `t.f = t`.
    FieldSet {
        /// The target object term.
        target: Box<Term>,
        /// The field being written.
        field: FieldName,
        /// The value term.
        value: Box<Term>,
    },
    /// Method invocation `t.m(t̄)`.
    Call {
        /// The receiver term.
        target: Box<Term>,
        /// The invoked method.
        method: MethodName,
        /// The argument terms.
        args: Vec<Term>,
    },
    /// Object creation `new C(t̄)`.
    New {
        /// The class being instantiated.
        class: ClassName,
        /// Constructor arguments, one per field (inherited fields first).
        args: Vec<Term>,
    },
    /// Thread creation `T(t̄;)` — evaluates the body on a freshly spawned thread.
    Spawn {
        /// The terms forming the new thread's body.
        body: Vec<Term>,
    },
    /// A sequence of terms `t; …; t`, evaluating to the last term's value.
    Seq(Vec<Term>),
    /// `return t` — evaluates `t` and returns it from the enclosing method immediately
    /// (extension: the paper's calculus only has a final `return t`, which this subsumes).
    Return(Box<Term>),
    /// `let x = t in t` (extension).
    Let {
        /// The bound variable.
        var: VarName,
        /// The bound term.
        value: Box<Term>,
        /// The body in which `var` is in scope.
        body: Box<Term>,
    },
    /// `if (t) { t } else { t }` (extension).
    If {
        /// The boolean condition.
        cond: Box<Term>,
        /// The then-branch.
        then_branch: Box<Term>,
        /// The else-branch.
        else_branch: Box<Term>,
    },
    /// `while (t) { t }` (extension). Evaluates to unit; the VM bounds iteration counts.
    While {
        /// The boolean loop condition.
        cond: Box<Term>,
        /// The loop body.
        body: Box<Term>,
    },
    /// A binary primitive operation (extension).
    Bin {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Term>,
        /// Right operand.
        rhs: Box<Term>,
    },
    /// A unary primitive operation (extension).
    Un {
        /// The operator.
        op: UnOp,
        /// The operand.
        operand: Box<Term>,
    },
}

impl Term {
    /// The unit literal term, handy as a "do nothing" placeholder.
    pub fn unit() -> Term {
        Term::Lit(Lit::Unit)
    }

    /// Counts the number of AST nodes in the term; used by workload generators to keep
    /// generated programs within a size budget, and by tests.
    pub fn size(&self) -> usize {
        let mut n = 1usize;
        self.for_each_child(|c| n += c.size());
        n
    }

    /// Invokes `f` on every direct child term.
    pub fn for_each_child(&self, mut f: impl FnMut(&Term)) {
        match self {
            Term::Var(_) | Term::This | Term::Lit(_) => {}
            Term::FieldGet { target, .. } => f(target),
            Term::FieldSet { target, value, .. } => {
                f(target);
                f(value);
            }
            Term::Call { target, args, .. } => {
                f(target);
                args.iter().for_each(&mut f);
            }
            Term::New { args, .. } => args.iter().for_each(&mut f),
            Term::Spawn { body } => body.iter().for_each(&mut f),
            Term::Seq(terms) => terms.iter().for_each(&mut f),
            Term::Return(value) => f(value),
            Term::Let { value, body, .. } => {
                f(value);
                f(body);
            }
            Term::If {
                cond,
                then_branch,
                else_branch,
            } => {
                f(cond);
                f(then_branch);
                f(else_branch);
            }
            Term::While { cond, body } => {
                f(cond);
                f(body);
            }
            Term::Bin { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Term::Un { operand, .. } => f(operand),
        }
    }

    /// Returns `true` if the term (or any subterm) spawns a thread.
    pub fn spawns_threads(&self) -> bool {
        if matches!(self, Term::Spawn { .. }) {
            return true;
        }
        let mut found = false;
        self.for_each_child(|c| {
            if !found && c.spawns_threads() {
                found = true;
            }
        });
        found
    }
}

/// A method definition `A m(Ā x̄) { t̄; return t; }`.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodDef {
    /// The method name `m`.
    pub name: MethodName,
    /// Parameter names and their declared types.
    pub params: Vec<(VarName, Type)>,
    /// The declared return type.
    pub return_type: Type,
    /// The method body; evaluation of the final term produces the return value.
    pub body: Vec<Term>,
}

impl MethodDef {
    /// The fully-qualified signature string `C.m(A1,A2):R` used by method-view
    /// correlation (paper §3.1: "correlates two methods if their full type signatures are
    /// equal").
    pub fn signature(&self, class: &ClassName) -> String {
        let params: Vec<String> = self.params.iter().map(|(_, t)| t.type_name()).collect();
        format!(
            "{}.{}({}):{}",
            class,
            self.name,
            params.join(","),
            self.return_type.type_name()
        )
    }

    /// Total AST size of the method body.
    pub fn body_size(&self) -> usize {
        self.body.iter().map(Term::size).sum()
    }
}

/// A class definition `class C extends C' { Ā f̄; K M̄ }`.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassDef {
    /// The class name `C`.
    pub name: ClassName,
    /// The superclass name `C'` (`Object` terminates the chain).
    pub superclass: ClassName,
    /// Fields declared *by this class* (not including inherited fields), in declaration
    /// order, with their types.
    pub fields: Vec<(FieldName, Type)>,
    /// Methods declared by this class.
    pub methods: Vec<MethodDef>,
}

impl ClassDef {
    /// Looks up a method declared directly on this class.
    pub fn method(&self, name: &str) -> Option<&MethodDef> {
        self.methods.iter().find(|m| m.name.as_str() == name)
    }

    /// Returns `true` when the class declares the given field directly.
    pub fn declares_field(&self, name: &str) -> bool {
        self.fields.iter().any(|(f, _)| f.as_str() == name)
    }
}

/// A complete program: a class table plus the body of the main thread (`P ::= T(t̄;)`).
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// All user-defined classes, in declaration order.
    pub classes: Vec<ClassDef>,
    /// The terms forming the main thread's body.
    pub main: Vec<Term>,
}

impl Program {
    /// Creates an empty program (no classes, empty main body).
    pub fn empty() -> Self {
        Program {
            classes: Vec::new(),
            main: Vec::new(),
        }
    }

    /// Finds a class definition by name.
    pub fn class(&self, name: &str) -> Option<&ClassDef> {
        self.classes.iter().find(|c| c.name.as_str() == name)
    }

    /// Total number of AST nodes in the program (a rough "lines of code" analogue used by
    /// the evaluation harness when reporting benchmark characteristics).
    pub fn size(&self) -> usize {
        let class_nodes: usize = self
            .classes
            .iter()
            .map(|c| 1 + c.fields.len() + c.methods.iter().map(MethodDef::body_size).sum::<usize>())
            .sum();
        class_nodes + self.main.iter().map(Term::size).sum::<usize>()
    }
}

impl Default for Program {
    fn default() -> Self {
        Program::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_method() -> MethodDef {
        MethodDef {
            name: MethodName::new("bump"),
            params: vec![(VarName::new("by"), Type::Prim(PrimType::Int))],
            return_type: Type::Prim(PrimType::Int),
            body: vec![Term::FieldSet {
                target: Box::new(Term::This),
                field: FieldName::new("count"),
                value: Box::new(Term::Bin {
                    op: BinOp::Add,
                    lhs: Box::new(Term::FieldGet {
                        target: Box::new(Term::This),
                        field: FieldName::new("count"),
                    }),
                    rhs: Box::new(Term::Var(VarName::new("by"))),
                }),
            }],
        }
    }

    #[test]
    fn signature_includes_class_params_and_return() {
        let m = sample_method();
        assert_eq!(
            m.signature(&ClassName::new("Counter")),
            "Counter.bump(Int):Int"
        );
    }

    #[test]
    fn term_size_counts_nodes() {
        let m = sample_method();
        // FieldSet + This + Bin + FieldGet + This + Var = 6
        assert_eq!(m.body_size(), 6);
    }

    #[test]
    fn spawn_detection_sees_nested_spawns() {
        let t = Term::Seq(vec![Term::Let {
            var: VarName::new("x"),
            value: Box::new(Term::Lit(Lit::Int(1))),
            body: Box::new(Term::Spawn {
                body: vec![Term::unit()],
            }),
        }]);
        assert!(t.spawns_threads());
        assert!(!Term::unit().spawns_threads());
    }

    #[test]
    fn program_class_lookup() {
        let p = Program {
            classes: vec![ClassDef {
                name: ClassName::new("Counter"),
                superclass: ClassName::object(),
                fields: vec![(FieldName::new("count"), Type::Prim(PrimType::Int))],
                methods: vec![sample_method()],
            }],
            main: vec![],
        };
        assert!(p.class("Counter").is_some());
        assert!(p.class("Missing").is_none());
        assert!(p.class("Counter").unwrap().declares_field("count"));
        assert!(p.class("Counter").unwrap().method("bump").is_some());
    }

    #[test]
    fn lit_prim_types() {
        assert_eq!(Lit::Int(3).prim_type(), Some(PrimType::Int));
        assert_eq!(Lit::Null.prim_type(), None);
        assert_eq!(Lit::Str("x".into()).prim_type(), Some(PrimType::Str));
    }

    #[test]
    fn operators_have_symbols() {
        assert_eq!(BinOp::Le.symbol(), "<=");
        assert_eq!(UnOp::Not.symbol(), "!");
    }
}
