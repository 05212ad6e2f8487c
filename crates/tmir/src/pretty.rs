//! Pretty-printer for TMIR: renders a [`Program`] back to parseable source.
//!
//! Useful for debugging front-end rewrites and for the parse→print→parse
//! round-trip property tests. Printing normalizes whitespace and fully
//! parenthesizes expressions, so `parse(print(p))` is structurally equal to
//! `p` up to site-id renumbering (ids are assigned in traversal order, which
//! printing preserves). Every [`Stmt`] has surface syntax: the §6 barrier
//! optimizations rewrite bytecode ([`crate::bytecode`]), never the AST.

use crate::ast::*;
use std::fmt::Write;

/// Renders a whole program.
pub fn program(p: &Program) -> String {
    let mut out = String::new();
    for c in &p.classes {
        let fields = c
            .fields
            .iter()
            .map(|f| {
                format!(
                    "{}{}: {}",
                    if f.is_final { "final " } else { "" },
                    f.name,
                    f.ty
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        writeln!(out, "class {} {{ {} }}", c.name, fields).unwrap();
    }
    for s in &p.statics {
        writeln!(out, "static {}: {};", s.name, s.ty).unwrap();
    }
    for f in &p.funcs {
        out.push_str(&func(f));
    }
    out
}

/// Renders one function.
pub fn func(f: &FuncDecl) -> String {
    let params = f
        .params
        .iter()
        .map(|(n, t)| format!("{n}: {t}"))
        .collect::<Vec<_>>()
        .join(", ");
    let ret = match &f.ret {
        Some(t) => format!(" -> {t}"),
        None => String::new(),
    };
    let mut out = format!("fn {}({params}){ret} {{\n", f.name);
    block(&f.body, 1, &mut out);
    out.push_str("}\n");
    out
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn block(stmts: &[Stmt], level: usize, out: &mut String) {
    for s in stmts {
        stmt(s, level, out);
    }
}

fn stmt(s: &Stmt, level: usize, out: &mut String) {
    indent(level, out);
    match s {
        Stmt::Let { name, ty, init } => {
            writeln!(out, "let {name}: {ty} = {};", expr(init)).unwrap()
        }
        Stmt::Assign { place, value } => {
            let p = match place {
                Place::Local(n) => n.clone(),
                Place::Field { base, field, .. } => format!("{}.{field}", expr(base)),
                Place::Static { name, .. } => name.clone(),
                Place::Index { base, index, .. } => {
                    format!("{}[{}]", expr(base), expr(index))
                }
            };
            writeln!(out, "{p} = {};", expr(value)).unwrap()
        }
        Stmt::Expr(e) => writeln!(out, "{};", expr(e)).unwrap(),
        Stmt::If { cond, then_body, else_body } => {
            writeln!(out, "if ({}) {{", expr(cond)).unwrap();
            block(then_body, level + 1, out);
            if else_body.is_empty() {
                indent(level, out);
                out.push_str("}\n");
            } else {
                indent(level, out);
                out.push_str("} else {\n");
                block(else_body, level + 1, out);
                indent(level, out);
                out.push_str("}\n");
            }
        }
        Stmt::While { cond, body } => {
            writeln!(out, "while ({}) {{", expr(cond)).unwrap();
            block(body, level + 1, out);
            indent(level, out);
            out.push_str("}\n");
        }
        Stmt::Atomic { body } => {
            out.push_str("atomic {\n");
            block(body, level + 1, out);
            indent(level, out);
            out.push_str("}\n");
        }
        Stmt::Retry => out.push_str("retry;\n"),
        Stmt::Lock { obj, body } => {
            writeln!(out, "lock ({}) {{", expr(obj)).unwrap();
            block(body, level + 1, out);
            indent(level, out);
            out.push_str("}\n");
        }
        Stmt::Return(None) => out.push_str("return;\n"),
        Stmt::Return(Some(e)) => writeln!(out, "return {};", expr(e)).unwrap(),
        Stmt::Print(e) => writeln!(out, "print {};", expr(e)).unwrap(),
        Stmt::Assert(e) => writeln!(out, "assert {};", expr(e)).unwrap(),
    }
}

fn bin_op_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::And => "&&",
        BinOp::Or => "||",
        BinOp::BitXor => "^",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
    }
}

/// Renders an expression, fully parenthesized.
pub fn expr(e: &Expr) -> String {
    match e {
        Expr::Int(n) => n.to_string(),
        Expr::Null => "null".to_string(),
        Expr::Local(n) => n.clone(),
        Expr::Field { base, field, .. } => format!("{}.{field}", expr(base)),
        Expr::Static { name, .. } => name.clone(),
        Expr::Index { base, index, .. } => format!("{}[{}]", expr(base), expr(index)),
        Expr::New { class, .. } => format!("new {class}"),
        Expr::NewArray { elem, len, .. } => format!("new_array<{elem}>({})", expr(len)),
        Expr::Len(b) => format!("len({})", expr(b)),
        Expr::Bin { op, lhs, rhs } => {
            format!("({} {} {})", expr(lhs), bin_op_str(*op), expr(rhs))
        }
        Expr::Un { op, expr: inner } => match op {
            UnOp::Neg => format!("(-{})", expr(inner)),
            UnOp::Not => format!("(!{})", expr(inner)),
        },
        Expr::Call { func, args } => {
            let a = args.iter().map(expr).collect::<Vec<_>>().join(", ");
            format!("{func}({a})")
        }
        Expr::Spawn { func, args } => {
            let a = args.iter().map(expr).collect::<Vec<_>>().join(", ");
            format!("spawn {func}({a})")
        }
        Expr::Join(b) => format!("join {}", expr(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    /// Structural equality ignoring site ids.
    fn strip(p: &Program) -> String {
        // Re-print both: printing drops ids, so equal prints = equal shape.
        program(p)
    }

    #[test]
    fn roundtrip_representative_program() {
        let src = "class Node { val: int, next: ref Node, final id: int }\n\
                   static head: ref Node;\n\
                   fn push(v: int) {\n\
                     let n: ref Node = new Node;\n\
                     n.val = v; n.next = head;\n\
                     atomic { head = n; }\n\
                   }\n\
                   fn main() {\n\
                     let i: int = 0;\n\
                     while (i < 10) { if (i % 2 == 0) { push(i); } else { } i = i + 1; }\n\
                     let t: thread = spawn push(99);\n\
                     let r: int = join t;\n\
                     lock (head) { print r; }\n\
                     assert 1;\n\
                   }";
        let p1 = parse(src).unwrap();
        let printed = program(&p1);
        let p2 = parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(strip(&p1), strip(&p2), "print is a fixpoint");
    }

    #[test]
    fn prints_arrays_and_types() {
        let src = "fn main() { let a: array int = new_array<int>(4); a[0] = len(a); \
                   let b: array ref C = new_array<ref C>(2); }\n\
                   class C { x: int }";
        let p = parse(src).unwrap();
        let printed = program(&p);
        assert!(printed.contains("new_array<int>(4)"));
        assert!(printed.contains("array ref C"));
        parse(&printed).expect("reparses");
    }
}
