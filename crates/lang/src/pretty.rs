//! Pretty printer producing concrete syntax that the [`parser`](crate::parser) accepts.
//!
//! The printer is primarily used for debugging workload programs and for the
//! parse → print → parse round-trip property tests.

use std::fmt::Write as _;

use crate::ast::{ClassDef, Lit, MethodDef, Program, Term};

/// Renders a whole program in concrete syntax.
pub fn program_to_string(program: &Program) -> String {
    let mut out = String::new();
    for class in &program.classes {
        write_class(&mut out, class);
        out.push('\n');
    }
    out.push_str("main {\n");
    for term in &program.main {
        write_stmt(&mut out, term, 1);
    }
    out.push_str("}\n");
    out
}

/// Renders a single term as an expression.
pub fn term_to_string(term: &Term) -> String {
    let mut out = String::new();
    write_expr(&mut out, term);
    out
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn write_class(out: &mut String, class: &ClassDef) {
    let _ = writeln!(out, "class {} extends {} {{", class.name, class.superclass);
    for (field, ty) in &class.fields {
        let _ = writeln!(out, "    {} {};", ty.type_name(), field);
    }
    for method in &class.methods {
        write_method(out, method);
    }
    out.push_str("}\n");
}

fn write_method(out: &mut String, method: &MethodDef) {
    let params: Vec<String> = method
        .params
        .iter()
        .map(|(name, ty)| format!("{} {}", ty.type_name(), name))
        .collect();
    let _ = writeln!(
        out,
        "    {} {}({}) {{",
        method.return_type.type_name(),
        method.name,
        params.join(", ")
    );
    for (i, term) in method.body.iter().enumerate() {
        if i + 1 == method.body.len() && expression_like(term) {
            indent(out, 2);
            out.push_str("return ");
            write_expr(out, term);
            out.push_str(";\n");
        } else {
            write_stmt(out, term, 2);
        }
    }
    out.push_str("    }\n");
}

/// Returns `true` when the term is best printed as a plain expression statement (as
/// opposed to the statement forms `let`/`if`/`while`/`spawn`).
fn expression_like(term: &Term) -> bool {
    !matches!(
        term,
        Term::Let { .. }
            | Term::If { .. }
            | Term::While { .. }
            | Term::Spawn { .. }
            | Term::Seq(_)
            | Term::Return(_)
    )
}

fn write_stmt(out: &mut String, term: &Term, level: usize) {
    match term {
        Term::Let { var, value, body } => {
            indent(out, level);
            out.push_str("let ");
            out.push_str(var.as_str());
            out.push_str(" = ");
            write_expr(out, value);
            out.push_str(";\n");
            // The body is the remainder of the block.
            match &**body {
                Term::Seq(rest) => {
                    for t in rest {
                        write_stmt(out, t, level);
                    }
                }
                Term::Lit(Lit::Unit) => {}
                other => write_stmt(out, other, level),
            }
        }
        Term::If {
            cond,
            then_branch,
            else_branch,
        } => {
            indent(out, level);
            out.push_str("if (");
            write_expr(out, cond);
            out.push_str(") {\n");
            write_block_body(out, then_branch, level + 1);
            indent(out, level);
            out.push('}');
            if !matches!(**else_branch, Term::Lit(Lit::Unit)) {
                out.push_str(" else {\n");
                write_block_body(out, else_branch, level + 1);
                indent(out, level);
                out.push('}');
            }
            out.push('\n');
        }
        Term::While { cond, body } => {
            indent(out, level);
            out.push_str("while (");
            write_expr(out, cond);
            out.push_str(") {\n");
            write_block_body(out, body, level + 1);
            indent(out, level);
            out.push_str("}\n");
        }
        Term::Spawn { body } => {
            indent(out, level);
            out.push_str("spawn {\n");
            for t in body {
                write_stmt(out, t, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        Term::Seq(terms) => {
            for t in terms {
                write_stmt(out, t, level);
            }
        }
        Term::Return(value) => {
            indent(out, level);
            out.push_str("return ");
            write_expr(out, value);
            out.push_str(";\n");
        }
        expr => {
            indent(out, level);
            write_expr(out, expr);
            out.push_str(";\n");
        }
    }
}

fn write_block_body(out: &mut String, term: &Term, level: usize) {
    match term {
        Term::Seq(terms) => {
            for t in terms {
                write_stmt(out, t, level);
            }
        }
        Term::Lit(Lit::Unit) => {}
        other => write_stmt(out, other, level),
    }
}

fn write_expr(out: &mut String, term: &Term) {
    match term {
        Term::Var(v) => out.push_str(v.as_str()),
        Term::This => out.push_str("this"),
        Term::Lit(lit) => write_lit(out, lit),
        Term::FieldGet { target, field } => {
            write_expr_parenthesized(out, target);
            out.push('.');
            out.push_str(field.as_str());
        }
        Term::FieldSet {
            target,
            field,
            value,
        } => {
            write_expr_parenthesized(out, target);
            out.push('.');
            out.push_str(field.as_str());
            out.push_str(" = ");
            write_expr(out, value);
        }
        Term::Call {
            target,
            method,
            args,
        } => {
            write_expr_parenthesized(out, target);
            out.push('.');
            out.push_str(method.as_str());
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a);
            }
            out.push(')');
        }
        Term::New { class, args } => {
            out.push_str("new ");
            out.push_str(class.as_str());
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a);
            }
            out.push(')');
        }
        Term::Bin { op, lhs, rhs } => {
            out.push('(');
            write_expr(out, lhs);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            write_expr(out, rhs);
            out.push(')');
        }
        Term::Un { op, operand } => {
            out.push_str(op.symbol());
            out.push('(');
            write_expr(out, operand);
            out.push(')');
        }
        // Statement forms appearing in expression position print as a parenthesized
        // sequence; the parser does not accept these nested, so the printer keeps them on
        // a best-effort basis (they only occur in machine-generated programs).
        Term::Seq(terms) => {
            out.push('(');
            for (i, t) in terms.iter().enumerate() {
                if i > 0 {
                    out.push_str("; ");
                }
                write_expr(out, t);
            }
            out.push(')');
        }
        Term::Let { var, value, body } => {
            out.push_str("(let ");
            out.push_str(var.as_str());
            out.push_str(" = ");
            write_expr(out, value);
            out.push_str(" in ");
            write_expr(out, body);
            out.push(')');
        }
        Term::If {
            cond,
            then_branch,
            else_branch,
        } => {
            out.push_str("(if ");
            write_expr(out, cond);
            out.push_str(" then ");
            write_expr(out, then_branch);
            out.push_str(" else ");
            write_expr(out, else_branch);
            out.push(')');
        }
        Term::While { cond, body } => {
            out.push_str("(while ");
            write_expr(out, cond);
            out.push_str(" do ");
            write_expr(out, body);
            out.push(')');
        }
        Term::Spawn { body } => {
            out.push_str("(spawn ");
            for (i, t) in body.iter().enumerate() {
                if i > 0 {
                    out.push_str("; ");
                }
                write_expr(out, t);
            }
            out.push(')');
        }
        Term::Return(value) => {
            out.push_str("(return ");
            write_expr(out, value);
            out.push(')');
        }
    }
}

fn write_expr_parenthesized(out: &mut String, term: &Term) {
    let needs_parens = matches!(term, Term::Bin { .. } | Term::Un { .. });
    if needs_parens {
        out.push('(');
        write_expr(out, term);
        out.push(')');
    } else {
        write_expr(out, term);
    }
}

fn write_lit(out: &mut String, lit: &Lit) {
    match lit {
        Lit::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Lit::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Lit::Float(v) => {
            if v.fract() == 0.0 {
                let _ = write!(out, "{v:.1}");
            } else {
                let _ = write!(out, "{v}");
            }
        }
        Lit::Str(s) => {
            let escaped = s
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            let _ = write!(out, "\"{escaped}\"");
        }
        Lit::Unit => out.push_str("unit"),
        Lit::Null => out.push_str("null"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};

    #[test]
    fn expression_round_trips() {
        for src in [
            "(1 + (2 * 3))",
            "this.count",
            "obj.helper(1, \"x\").value",
            "new Counter(0)",
            "!(flag)",
            "((a < 3) && (b >= 4))",
        ] {
            let t = parse_expr(src).unwrap();
            let printed = term_to_string(&t);
            let reparsed = parse_expr(&printed).unwrap();
            assert_eq!(
                t, reparsed,
                "round-trip failed for {src}: printed {printed}"
            );
        }
    }

    #[test]
    fn program_round_trips() {
        let src = r#"
            class Logger extends Object {
                Int count;
                Unit addMsg(Str msg) {
                    this.count = this.count + 1;
                }
            }
            class ServletProcessor extends Object {
                Logger log;
                Unit setRequestType(Str ty) {
                    if (ty == "text/html") {
                        this.log.addMsg("Set req type");
                    } else {
                        this.log.addMsg("skip");
                    }
                }
            }
            main {
                let log = new Logger(0);
                let sp = new ServletProcessor(log);
                sp.setRequestType("text/html");
            }
        "#;
        let p1 = parse_program(src).unwrap();
        let printed = program_to_string(&p1);
        let p2 =
            parse_program(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        // The reprint of the reparse must be stable (fixpoint) even if the ASTs differ in
        // benign ways (e.g. unit-padding of if-else branches).
        assert_eq!(program_to_string(&p2), program_to_string(&p1));
    }

    #[test]
    fn string_literals_are_escaped() {
        let t = Term::Lit(Lit::Str("a\"b\nc".into()));
        let printed = term_to_string(&t);
        assert_eq!(parse_expr(&printed).unwrap(), t);
    }

    #[test]
    fn float_literals_keep_a_decimal_point() {
        let t = Term::Lit(Lit::Float(2.0));
        assert_eq!(term_to_string(&t), "2.0");
        assert_eq!(parse_expr("2.0").unwrap(), t);
    }
}
