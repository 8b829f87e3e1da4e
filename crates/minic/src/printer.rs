//! Pretty-printer: AST back to mini-C source.
//!
//! The Source Recoder (Section VI) keeps a *document object* in sync with
//! the AST; this printer is the code-generator half of that loop. Printing
//! then re-parsing a unit yields a structurally identical AST (node ids are
//! re-assigned), a property the test-suite checks.

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a whole translation unit as mini-C source.
pub fn print_unit(unit: &Unit) -> String {
    let mut out = String::new();
    for g in &unit.globals {
        print_stmt(&mut out, g, 0);
    }
    if !unit.globals.is_empty() {
        out.push('\n');
    }
    for (i, f) in unit.functions.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_function(&mut out, f);
    }
    out
}

/// Renders one function definition.
pub fn print_function(out: &mut String, f: &Function) {
    let ret = match f.ret {
        Type::Void => "void",
        _ => "int",
    };
    let params = if f.params.is_empty() {
        "void".to_string()
    } else {
        f.params
            .iter()
            .map(|p| match p.ty {
                Type::Int => format!("int {}", p.name),
                Type::Ptr => format!("int *{}", p.name),
                Type::Array(Some(n)) => format!("int {}[{n}]", p.name),
                Type::Array(None) => format!("int {}[]", p.name),
                Type::Void => format!("void {}", p.name),
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(out, "{ret} {}({params}) {{", f.name);
    for s in &f.body {
        print_stmt(out, s, 1);
    }
    out.push_str("}\n");
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

/// Renders one statement at the given indent level.
pub fn print_stmt(out: &mut String, s: &Stmt, level: usize) {
    indent(out, level);
    match &s.kind {
        StmtKind::Decl { name, ty, init } => match ty {
            Type::Array(Some(n)) => {
                let _ = writeln!(out, "int {name}[{n}];");
            }
            Type::Array(None) => {
                let _ = writeln!(out, "int {name}[];");
            }
            Type::Ptr => match init {
                Some(e) => {
                    let _ = writeln!(out, "int *{name} = {};", print_expr(e));
                }
                None => {
                    let _ = writeln!(out, "int *{name};");
                }
            },
            _ => match init {
                Some(e) => {
                    let _ = writeln!(out, "int {name} = {};", print_expr(e));
                }
                None => {
                    let _ = writeln!(out, "int {name};");
                }
            },
        },
        StmtKind::Assign { lhs, rhs } => {
            let l = match lhs {
                LValue::Var(n) => n.clone(),
                LValue::Index(n, i) => format!("{n}[{}]", print_expr(i)),
                LValue::Deref(n) => format!("*{n}"),
            };
            let _ = writeln!(out, "{l} = {};", print_expr(rhs));
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let _ = writeln!(out, "if ({}) {{", print_expr(cond));
            for t in then_branch {
                print_stmt(out, t, level + 1);
            }
            indent(out, level);
            if else_branch.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                for e in else_branch {
                    print_stmt(out, e, level + 1);
                }
                indent(out, level);
                out.push_str("}\n");
            }
        }
        StmtKind::While { cond, body } => {
            let _ = writeln!(out, "while ({}) {{", print_expr(cond));
            for b in body {
                print_stmt(out, b, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        StmtKind::For {
            var,
            from,
            to,
            step,
            body,
        } => {
            let _ = writeln!(
                out,
                "for ({var} = {}; {var} < {}; {var} = {var} + {}) {{",
                print_expr(from),
                print_expr(to),
                print_expr(step)
            );
            for b in body {
                print_stmt(out, b, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        StmtKind::Return(None) => out.push_str("return;\n"),
        StmtKind::Return(Some(e)) => {
            let _ = writeln!(out, "return {};", print_expr(e));
        }
        StmtKind::ExprStmt(e) => {
            let _ = writeln!(out, "{};", print_expr(e));
        }
        StmtKind::Block(body) => {
            out.push_str("{\n");
            for b in body {
                print_stmt(out, b, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
    }
}

/// Renders an expression with minimal necessary parentheses (conservative:
/// every non-leaf binary operand is parenthesised, which is always correct).
pub(crate) fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Lit(v) => v.to_string(),
        Expr::Var(n) => n.clone(),
        Expr::Index(b, i) => format!("{b}[{}]", print_expr(i)),
        Expr::Un(op, x) => {
            let sym = match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
                UnOp::Deref => "*",
                UnOp::Addr => "&",
            };
            match **x {
                Expr::Lit(_) | Expr::Var(_) | Expr::Index(..) | Expr::Call(..) => {
                    format!("{sym}{}", print_expr(x))
                }
                _ => format!("{sym}({})", print_expr(x)),
            }
        }
        Expr::Bin(op, l, r) => {
            let lp = match **l {
                Expr::Bin(..) => format!("({})", print_expr(l)),
                _ => print_expr(l),
            };
            let rp = match **r {
                Expr::Bin(..) | Expr::Un(..) => format!("({})", print_expr(r)),
                _ => print_expr(r),
            };
            format!("{lp} {} {rp}", op.symbol())
        }
        Expr::Call(f, args) => {
            let a = args.iter().map(print_expr).collect::<Vec<_>>().join(", ");
            format!("{f}({a})")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Strips node ids by comparing printed forms.
    fn roundtrip(src: &str) -> (String, String) {
        let u1 = parse(src).unwrap();
        let p1 = print_unit(&u1);
        let u2 = parse(&p1).unwrap();
        let p2 = print_unit(&u2);
        (p1, p2)
    }

    #[test]
    fn print_parse_fixpoint() {
        let (p1, p2) = roundtrip(
            "int g = 1;\n\
             int sum(int n, int a[]) {\n\
               int s = 0;\n\
               for (i = 0; i < n; i = i + 1) { s = s + a[i]; }\n\
               if (s > 100) { s = 100; } else { s = s * 2; }\n\
               while (s % 2 == 0) { s = s / 2; }\n\
               return s;\n\
             }",
        );
        assert_eq!(p1, p2, "printer must be a fixpoint under reparsing");
    }

    #[test]
    fn expr_parens_preserve_meaning() {
        let u = parse("void f(void) { x = (1 + 2) * 3; y = 1 + 2 * 3; }").unwrap();
        let printed = print_unit(&u);
        let u2 = parse(&printed).unwrap();
        let get = |u: &crate::ast::Unit, i: usize| match &u.functions[0].body[i].kind {
            StmtKind::Assign { rhs, .. } => rhs.const_eval().unwrap(),
            _ => panic!(),
        };
        assert_eq!(get(&u2, 0), 9);
        assert_eq!(get(&u2, 1), 7);
    }

    #[test]
    fn prints_pointers_and_arrays() {
        let u = parse("void f(int *p, int a[4]) { *p = a[0]; int *q = &x; }").unwrap();
        let s = print_unit(&u);
        assert!(s.contains("int *p"));
        assert!(s.contains("int a[4]"));
        assert!(s.contains("*p = a[0];"));
        assert!(s.contains("int *q = &x;"));
    }

    #[test]
    fn prints_void_params() {
        let u = parse("void f(void) { return; }").unwrap();
        assert!(print_unit(&u).contains("void f(void)"));
    }
}
