//! Runtime values and primitive operator evaluation.

use rprism_lang::ast::{BinOp, Lit, PrimType, UnOp};
use rprism_lang::ClassName;
use rprism_trace::Loc;

use crate::error::RuntimeError;

/// A runtime value: either a reference to a heap object, a primitive value object, or the
/// null reference.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// The null reference.
    Null,
    /// A primitive value object `D(d)`.
    Prim(PrimValue),
    /// A reference `l(C)` to a heap object of dynamic class `C`.
    Ref {
        /// The heap location.
        loc: Loc,
        /// The dynamic class of the referenced object.
        class: ClassName,
    },
}

/// A primitive value `d`.
#[derive(Clone, Debug, PartialEq)]
pub enum PrimValue {
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A string.
    Str(String),
    /// The unit value.
    Unit,
}

impl PrimValue {
    /// The primitive type of the value.
    pub fn prim_type(&self) -> PrimType {
        match self {
            PrimValue::Bool(_) => PrimType::Bool,
            PrimValue::Int(_) => PrimType::Int,
            PrimValue::Float(_) => PrimType::Float,
            PrimValue::Str(_) => PrimType::Str,
            PrimValue::Unit => PrimType::Unit,
        }
    }

    /// The printed form used for trace value representations.
    pub fn printed(&self) -> String {
        match self {
            PrimValue::Bool(b) => b.to_string(),
            PrimValue::Int(v) => v.to_string(),
            PrimValue::Float(v) => format!("{v}"),
            PrimValue::Str(s) => s.clone(),
            PrimValue::Unit => "unit".to_owned(),
        }
    }
}

impl Value {
    /// The unit value.
    pub fn unit() -> Value {
        Value::Prim(PrimValue::Unit)
    }

    /// Converts a source literal into a runtime value.
    pub fn from_lit(lit: &Lit) -> Value {
        match lit {
            Lit::Bool(b) => Value::Prim(PrimValue::Bool(*b)),
            Lit::Int(v) => Value::Prim(PrimValue::Int(*v)),
            Lit::Float(v) => Value::Prim(PrimValue::Float(*v)),
            Lit::Str(s) => Value::Prim(PrimValue::Str(s.clone())),
            Lit::Unit => Value::Prim(PrimValue::Unit),
            Lit::Null => Value::Null,
        }
    }

    /// Interprets the value as a boolean.
    ///
    /// # Errors
    ///
    /// Returns a type error when the value is not a boolean.
    pub fn as_bool(&self) -> Result<bool, RuntimeError> {
        match self {
            Value::Prim(PrimValue::Bool(b)) => Ok(*b),
            other => Err(RuntimeError::TypeError {
                message: format!("expected a boolean, found {other:?}"),
            }),
        }
    }
}

/// Evaluates a binary primitive operation.
///
/// Reference operands are only meaningful for `==` / `!=`, which compare locations
/// (within a single execution); every other combination is a type error.
///
/// # Errors
///
/// Returns [`RuntimeError::TypeError`] for ill-typed operand combinations and
/// [`RuntimeError::DivisionByZero`] for integer division/remainder by zero.
pub fn eval_binop(op: BinOp, lhs: &Value, rhs: &Value) -> Result<Value, RuntimeError> {
    use PrimValue as P;
    use Value as V;

    // Reference / null equality.
    if matches!(op, BinOp::Eq | BinOp::Ne) {
        let structural = match (lhs, rhs) {
            (V::Ref { loc: a, .. }, V::Ref { loc: b, .. }) => Some(a == b),
            (V::Null, V::Null) => Some(true),
            (V::Null, V::Ref { .. }) | (V::Ref { .. }, V::Null) => Some(false),
            _ => None,
        };
        if let Some(eq) = structural {
            let result = if matches!(op, BinOp::Eq) { eq } else { !eq };
            return Ok(V::Prim(P::Bool(result)));
        }
    }

    let type_error = |msg: String| RuntimeError::TypeError { message: msg };

    match (lhs, rhs) {
        (V::Prim(a), V::Prim(b)) => match (op, a, b) {
            // Integer arithmetic.
            (BinOp::Add, P::Int(x), P::Int(y)) => Ok(V::Prim(P::Int(x.wrapping_add(*y)))),
            (BinOp::Sub, P::Int(x), P::Int(y)) => Ok(V::Prim(P::Int(x.wrapping_sub(*y)))),
            (BinOp::Mul, P::Int(x), P::Int(y)) => Ok(V::Prim(P::Int(x.wrapping_mul(*y)))),
            (BinOp::Div, P::Int(_), P::Int(0)) | (BinOp::Rem, P::Int(_), P::Int(0)) => {
                Err(RuntimeError::DivisionByZero)
            }
            (BinOp::Div, P::Int(x), P::Int(y)) => Ok(V::Prim(P::Int(x.wrapping_div(*y)))),
            (BinOp::Rem, P::Int(x), P::Int(y)) => Ok(V::Prim(P::Int(x.wrapping_rem(*y)))),
            // Float arithmetic.
            (BinOp::Add, P::Float(x), P::Float(y)) => Ok(V::Prim(P::Float(x + y))),
            (BinOp::Sub, P::Float(x), P::Float(y)) => Ok(V::Prim(P::Float(x - y))),
            (BinOp::Mul, P::Float(x), P::Float(y)) => Ok(V::Prim(P::Float(x * y))),
            (BinOp::Div, P::Float(x), P::Float(y)) => Ok(V::Prim(P::Float(x / y))),
            // String concatenation.
            (BinOp::Add, P::Str(x), P::Str(y)) => Ok(V::Prim(P::Str(format!("{x}{y}")))),
            // Comparisons.
            (BinOp::Eq, a, b) => Ok(V::Prim(P::Bool(prim_eq(a, b)))),
            (BinOp::Ne, a, b) => Ok(V::Prim(P::Bool(!prim_eq(a, b)))),
            (BinOp::Lt, P::Int(x), P::Int(y)) => Ok(V::Prim(P::Bool(x < y))),
            (BinOp::Le, P::Int(x), P::Int(y)) => Ok(V::Prim(P::Bool(x <= y))),
            (BinOp::Gt, P::Int(x), P::Int(y)) => Ok(V::Prim(P::Bool(x > y))),
            (BinOp::Ge, P::Int(x), P::Int(y)) => Ok(V::Prim(P::Bool(x >= y))),
            (BinOp::Lt, P::Float(x), P::Float(y)) => Ok(V::Prim(P::Bool(x < y))),
            (BinOp::Le, P::Float(x), P::Float(y)) => Ok(V::Prim(P::Bool(x <= y))),
            (BinOp::Gt, P::Float(x), P::Float(y)) => Ok(V::Prim(P::Bool(x > y))),
            (BinOp::Ge, P::Float(x), P::Float(y)) => Ok(V::Prim(P::Bool(x >= y))),
            (BinOp::Lt, P::Str(x), P::Str(y)) => Ok(V::Prim(P::Bool(x < y))),
            (BinOp::Le, P::Str(x), P::Str(y)) => Ok(V::Prim(P::Bool(x <= y))),
            (BinOp::Gt, P::Str(x), P::Str(y)) => Ok(V::Prim(P::Bool(x > y))),
            (BinOp::Ge, P::Str(x), P::Str(y)) => Ok(V::Prim(P::Bool(x >= y))),
            // Boolean logic (non-short-circuiting; operands are already evaluated).
            (BinOp::And, P::Bool(x), P::Bool(y)) => Ok(V::Prim(P::Bool(*x && *y))),
            (BinOp::Or, P::Bool(x), P::Bool(y)) => Ok(V::Prim(P::Bool(*x || *y))),
            (op, a, b) => Err(type_error(format!(
                "operator `{}` not defined on {:?} and {:?}",
                op.symbol(),
                a.prim_type(),
                b.prim_type()
            ))),
        },
        (a, b) => Err(type_error(format!(
            "operator `{}` not defined on {a:?} and {b:?}",
            op.symbol()
        ))),
    }
}

fn prim_eq(a: &PrimValue, b: &PrimValue) -> bool {
    match (a, b) {
        (PrimValue::Float(x), PrimValue::Float(y)) => x == y,
        _ => a == b,
    }
}

/// Evaluates a unary primitive operation.
///
/// # Errors
///
/// Returns a type error when the operand has the wrong type.
pub fn eval_unop(op: UnOp, operand: &Value) -> Result<Value, RuntimeError> {
    match (op, operand) {
        (UnOp::Not, Value::Prim(PrimValue::Bool(b))) => Ok(Value::Prim(PrimValue::Bool(!b))),
        (UnOp::Neg, Value::Prim(PrimValue::Int(v))) => {
            Ok(Value::Prim(PrimValue::Int(v.wrapping_neg())))
        }
        (UnOp::Neg, Value::Prim(PrimValue::Float(v))) => Ok(Value::Prim(PrimValue::Float(-v))),
        (op, other) => Err(RuntimeError::TypeError {
            message: format!("operator `{}` not defined on {other:?}", op.symbol()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> Value {
        Value::Prim(PrimValue::Int(v))
    }

    fn s(v: &str) -> Value {
        Value::Prim(PrimValue::Str(v.into()))
    }

    #[test]
    fn integer_arithmetic() {
        assert_eq!(eval_binop(BinOp::Add, &int(2), &int(3)).unwrap(), int(5));
        assert_eq!(eval_binop(BinOp::Mul, &int(4), &int(5)).unwrap(), int(20));
        assert_eq!(eval_binop(BinOp::Div, &int(9), &int(2)).unwrap(), int(4));
        assert_eq!(eval_binop(BinOp::Rem, &int(9), &int(2)).unwrap(), int(1));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert_eq!(
            eval_binop(BinOp::Div, &int(1), &int(0)),
            Err(RuntimeError::DivisionByZero)
        );
        assert_eq!(
            eval_binop(BinOp::Rem, &int(1), &int(0)),
            Err(RuntimeError::DivisionByZero)
        );
    }

    #[test]
    fn comparisons_and_logic() {
        let t = Value::Prim(PrimValue::Bool(true));
        let f = Value::Prim(PrimValue::Bool(false));
        assert_eq!(eval_binop(BinOp::Lt, &int(1), &int(2)).unwrap(), t);
        assert_eq!(eval_binop(BinOp::Ge, &int(1), &int(2)).unwrap(), f);
        assert_eq!(eval_binop(BinOp::And, &t, &f).unwrap(), f);
        assert_eq!(eval_binop(BinOp::Or, &t, &f).unwrap(), t);
        assert_eq!(eval_unop(UnOp::Not, &t).unwrap(), f);
    }

    #[test]
    fn string_operations() {
        assert_eq!(
            eval_binop(BinOp::Add, &s("text/"), &s("html")).unwrap(),
            s("text/html")
        );
        assert_eq!(
            eval_binop(BinOp::Eq, &s("text/html"), &s("text/html")).unwrap(),
            Value::Prim(PrimValue::Bool(true))
        );
        assert_eq!(
            eval_binop(BinOp::Eq, &s("text/html"), &s("text/plain")).unwrap(),
            Value::Prim(PrimValue::Bool(false))
        );
    }

    #[test]
    fn reference_equality_by_location() {
        let a = Value::Ref {
            loc: Loc(1),
            class: ClassName::new("A"),
        };
        let b = Value::Ref {
            loc: Loc(2),
            class: ClassName::new("A"),
        };
        assert_eq!(
            eval_binop(BinOp::Eq, &a, &a.clone()).unwrap(),
            Value::Prim(PrimValue::Bool(true))
        );
        assert_eq!(
            eval_binop(BinOp::Ne, &a, &b).unwrap(),
            Value::Prim(PrimValue::Bool(true))
        );
        assert_eq!(
            eval_binop(BinOp::Eq, &a, &Value::Null).unwrap(),
            Value::Prim(PrimValue::Bool(false))
        );
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(matches!(
            eval_binop(BinOp::Add, &int(1), &s("x")),
            Err(RuntimeError::TypeError { .. })
        ));
        assert!(matches!(
            eval_unop(UnOp::Neg, &s("x")),
            Err(RuntimeError::TypeError { .. })
        ));
        assert!(matches!(
            eval_binop(BinOp::Lt, &Value::Null, &int(1)),
            Err(RuntimeError::TypeError { .. })
        ));
    }

    #[test]
    fn literals_convert_to_values() {
        assert_eq!(Value::from_lit(&Lit::Int(3)), int(3));
        assert_eq!(Value::from_lit(&Lit::Null), Value::Null);
        assert!(Value::from_lit(&Lit::Bool(true)).as_bool().unwrap());
        assert!(Value::unit().as_bool().is_err());
    }

    #[test]
    fn negation_of_integers_and_floats() {
        assert_eq!(eval_unop(UnOp::Neg, &int(5)).unwrap(), int(-5));
        assert_eq!(
            eval_unop(UnOp::Neg, &Value::Prim(PrimValue::Float(2.5))).unwrap(),
            Value::Prim(PrimValue::Float(-2.5))
        );
    }
}
