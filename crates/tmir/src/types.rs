//! Type checker and name resolution for TMIR.
//!
//! Beyond ordinary checking, this pass:
//! * rewrites bare identifiers that name statics into [`Expr::Static`] /
//!   [`Place::Static`] nodes, assigning them fresh access sites;
//! * resolves every local to a function-level slot (TMIR forbids shadowing:
//!   one `let` per name per function);
//! * enforces the transactional restrictions: `retry` only inside `atomic`,
//!   and no `spawn`/`join`/`lock` lexically inside an `atomic` block (the
//!   paper's system likewise excludes wait/notify regions from transactions,
//!   §7 footnote 8).

use crate::ast::*;
use std::collections::HashMap;
use std::fmt;

/// A type-checking error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeError {
    /// Description, including the function name where relevant.
    pub message: String,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.message)
    }
}

impl std::error::Error for TypeError {}

/// Per-function resolution results.
#[derive(Clone, Debug)]
pub struct FuncMeta {
    /// All locals (params first), in slot order.
    pub slots: Vec<(String, Ty)>,
    /// Name → slot index.
    pub slot_of: HashMap<String, usize>,
}

/// A checked program: the (rewritten) AST plus resolution tables.
#[derive(Clone, Debug)]
pub struct Checked {
    /// The program, with statics resolved and sites finalized.
    pub program: Program,
    /// Function metadata by name.
    pub funcs: HashMap<String, FuncMeta>,
}

/// Type-checks and resolves `program`.
///
/// # Errors
/// Returns a [`TypeError`] describing the first problem found.
pub fn check(mut program: Program) -> Result<Checked, TypeError> {
    // Duplicate detection.
    let mut seen = std::collections::HashSet::new();
    for c in &program.classes {
        if !seen.insert(c.name.clone()) {
            return err(format!("duplicate class `{}`", c.name));
        }
        for f in &c.fields {
            check_field_ty(&program, &c.name, &f.ty)?;
        }
    }
    let mut seen = std::collections::HashSet::new();
    for s in &program.statics {
        if !seen.insert(s.name.clone()) {
            return err(format!("duplicate static `{}`", s.name));
        }
        if matches!(s.ty, Ty::Thread) {
            return err(format!("static `{}` may not have type thread", s.name));
        }
        check_field_ty(&program, "<static>", &s.ty)?;
    }
    let mut seen = std::collections::HashSet::new();
    for f in &program.funcs {
        if !seen.insert(f.name.clone()) {
            return err(format!("duplicate function `{}`", f.name));
        }
    }
    if program.func("main").is_none() {
        return err("program has no `main` function".to_string());
    }

    // Check each function. We need simultaneous mutable access to a function
    // body and shared access to signatures, so split via take/put-back.
    let mut metas = HashMap::new();
    let signatures: Vec<(String, Vec<Ty>, Option<Ty>)> = program
        .funcs
        .iter()
        .map(|f| {
            (
                f.name.clone(),
                f.params.iter().map(|(_, t)| t.clone()).collect(),
                f.ret.clone(),
            )
        })
        .collect();
    let classes = program.classes.clone();
    let statics = program.statics.clone();
    let mut next_site = program.num_sites;

    for func in &mut program.funcs {
        let mut cx = FnCx {
            classes: &classes,
            statics: &statics,
            signatures: &signatures,
            func_name: func.name.clone(),
            ret: func.ret.clone(),
            slots: Vec::new(),
            slot_of: HashMap::new(),
            next_site: &mut next_site,
            in_atomic: 0,
        };
        for (name, ty) in &func.params {
            cx.declare(name, ty.clone())?;
        }
        cx.check_block(&mut func.body)?;
        metas.insert(
            func.name.clone(),
            FuncMeta { slots: cx.slots, slot_of: cx.slot_of },
        );
    }
    program.num_sites = next_site;
    Ok(Checked { program, funcs: metas })
}

fn err<T>(message: String) -> Result<T, TypeError> {
    Err(TypeError { message })
}

fn check_field_ty(program: &Program, owner: &str, ty: &Ty) -> Result<(), TypeError> {
    match ty {
        Ty::Ref(c) | Ty::RefArray(c) => {
            if program.class(c).is_none() {
                return err(format!("{owner}: unknown class `{c}` in type"));
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

struct FnCx<'a> {
    classes: &'a [ClassDecl],
    statics: &'a [StaticDecl],
    signatures: &'a [(String, Vec<Ty>, Option<Ty>)],
    func_name: String,
    ret: Option<Ty>,
    slots: Vec<(String, Ty)>,
    slot_of: HashMap<String, usize>,
    next_site: &'a mut u32,
    in_atomic: u32,
}

impl FnCx<'_> {
    fn err<T>(&self, m: impl fmt::Display) -> Result<T, TypeError> {
        err(format!("in fn `{}`: {m}", self.func_name))
    }

    fn declare(&mut self, name: &str, ty: Ty) -> Result<(), TypeError> {
        if self.slot_of.contains_key(name) {
            return self.err(format_args!(
                "local `{name}` declared twice (TMIR forbids shadowing)"
            ));
        }
        self.slot_of.insert(name.to_string(), self.slots.len());
        self.slots.push((name.to_string(), ty));
        Ok(())
    }

    fn class(&self, name: &str) -> Result<&ClassDecl, TypeError> {
        match self.classes.iter().find(|c| c.name == name) {
            Some(c) => Ok(c),
            None => err(format!("in fn `{}`: unknown class `{name}`", self.func_name)),
        }
    }

    fn fresh_site(&mut self) -> SiteId {
        let s = SiteId(*self.next_site);
        *self.next_site += 1;
        s
    }

    fn assignable(&self, target: &Ty, value: &Ty) -> bool {
        match (target, value) {
            (a, b) if a == b => true,
            // `null` types as Ref("") — assignable to any reference type.
            (t, Ty::Ref(n)) if n.is_empty() && t.is_ref() => true,
            _ => false,
        }
    }

    fn check_block(&mut self, body: &mut Vec<Stmt>) -> Result<(), TypeError> {
        for stmt in body {
            self.check_stmt(stmt)?;
        }
        Ok(())
    }

    fn check_stmt(&mut self, stmt: &mut Stmt) -> Result<(), TypeError> {
        match stmt {
            Stmt::Let { name, ty, init } => {
                let it = self.expr(init)?;
                if !self.assignable(ty, &it) {
                    return self.err(format_args!(
                        "let `{name}`: cannot assign {it} to {ty}"
                    ));
                }
                check_field_ty_cx(self, ty)?;
                self.declare(name, ty.clone())
            }
            Stmt::Assign { place, value } => {
                let vt = self.expr(value)?;
                let pt = self.place(place)?;
                if !self.assignable(&pt, &vt) {
                    return self.err(format_args!("cannot assign {vt} to {pt}"));
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                self.expr(e)?;
                Ok(())
            }
            Stmt::If { cond, then_body, else_body } => {
                self.expect_int(cond)?;
                self.check_block(then_body)?;
                self.check_block(else_body)
            }
            Stmt::While { cond, body } => {
                self.expect_int(cond)?;
                self.check_block(body)
            }
            Stmt::Atomic { body } => {
                self.in_atomic += 1;
                let r = self.check_block(body);
                self.in_atomic -= 1;
                r
            }
            Stmt::Retry => {
                if self.in_atomic == 0 {
                    return self.err("`retry` outside `atomic`");
                }
                Ok(())
            }
            Stmt::Lock { obj, body } => {
                if self.in_atomic > 0 {
                    return self.err("`lock` inside `atomic` is not allowed");
                }
                let t = self.expr(obj)?;
                if !t.is_ref() {
                    return self.err(format_args!("lock target must be a reference, got {t}"));
                }
                self.check_block(body)
            }
            Stmt::Return(e) => match (&self.ret.clone(), e) {
                (None, None) => Ok(()),
                (Some(rt), Some(e)) => {
                    let t = self.expr(e)?;
                    if !self.assignable(rt, &t) {
                        return self.err(format_args!("return type {t}, expected {rt}"));
                    }
                    Ok(())
                }
                (None, Some(_)) => self.err("returning a value from a void function"),
                (Some(rt), None) => self.err(format_args!("missing return value of type {rt}")),
            },
            Stmt::Print(e) | Stmt::Assert(e) => {
                self.expect_int(e)?;
                Ok(())
            }
        }
    }

    fn expect_int(&mut self, e: &mut Expr) -> Result<(), TypeError> {
        let t = self.expr(e)?;
        if t != Ty::Int {
            return self.err(format_args!("expected int, got {t}"));
        }
        Ok(())
    }

    fn place(&mut self, place: &mut Place) -> Result<Ty, TypeError> {
        // Rewrite Local places that actually name statics.
        if let Place::Local(name) = place {
            if !self.slot_of.contains_key(name.as_str()) {
                if let Some(s) = self.statics.iter().find(|s| &s.name == name) {
                    let ty = s.ty.clone();
                    *place = Place::Static { name: name.clone(), site: self.fresh_site() };
                    return Ok(ty);
                }
            }
        }
        match place {
            Place::Local(name) => match self.slot_of.get(name.as_str()) {
                Some(&i) => Ok(self.slots[i].1.clone()),
                None => self.err(format_args!("unknown variable `{name}`")),
            },
            Place::Field { base, field, .. } => {
                let bt = self.expr(base)?;
                self.field_ty(&bt, field)
            }
            Place::Static { name, .. } => match self.statics.iter().find(|s| &s.name == name) {
                Some(s) => Ok(s.ty.clone()),
                None => self.err(format_args!("unknown static `{name}`")),
            },
            Place::Index { base, index, .. } => {
                self.expect_int(index)?;
                let bt = self.expr(base)?;
                self.elem_ty(&bt)
            }
        }
    }

    fn field_ty(&self, base: &Ty, field: &str) -> Result<Ty, TypeError> {
        let Ty::Ref(cname) = base else {
            return self.err(format_args!("field access on non-object type {base}"));
        };
        let class = self.class(cname)?;
        match class.fields.iter().find(|f| f.name == field) {
            Some(f) => Ok(f.ty.clone()),
            None => self.err(format_args!("class `{cname}` has no field `{field}`")),
        }
    }

    fn elem_ty(&self, base: &Ty) -> Result<Ty, TypeError> {
        match base {
            Ty::IntArray => Ok(Ty::Int),
            Ty::RefArray(c) => Ok(Ty::Ref(c.clone())),
            t => self.err(format_args!("indexing non-array type {t}")),
        }
    }

    fn signature(&self, name: &str) -> Result<(Vec<Ty>, Option<Ty>), TypeError> {
        match self.signatures.iter().find(|(n, _, _)| n == name) {
            Some((_, params, ret)) => Ok((params.clone(), ret.clone())),
            None => self.err(format_args!("unknown function `{name}`")),
        }
    }

    fn expr(&mut self, e: &mut Expr) -> Result<Ty, TypeError> {
        // Rewrite bare identifiers naming statics.
        if let Expr::Local(name) = e {
            if !self.slot_of.contains_key(name.as_str())
                && self.statics.iter().any(|s| &s.name == name)
            {
                *e = Expr::Static { name: name.clone(), site: self.fresh_site() };
            }
        }
        match e {
            Expr::Int(_) => Ok(Ty::Int),
            Expr::Null => Ok(Ty::Ref(String::new())),
            Expr::Local(name) => match self.slot_of.get(name.as_str()) {
                Some(&i) => Ok(self.slots[i].1.clone()),
                None => self.err(format_args!("unknown variable `{name}`")),
            },
            Expr::Static { name, .. } => {
                match self.statics.iter().find(|s| &s.name == name) {
                    Some(s) => Ok(s.ty.clone()),
                    None => self.err(format_args!("unknown static `{name}`")),
                }
            }
            Expr::Field { base, field, .. } => {
                let bt = self.expr(base)?;
                self.field_ty(&bt, field)
            }
            Expr::Index { base, index, .. } => {
                self.expect_int(index)?;
                let bt = self.expr(base)?;
                self.elem_ty(&bt)
            }
            Expr::New { class, .. } => {
                self.class(class)?;
                Ok(Ty::Ref(class.clone()))
            }
            Expr::NewArray { elem, len, .. } => {
                self.expect_int(len)?;
                match &**elem {
                    Ty::Int => Ok(Ty::IntArray),
                    Ty::Ref(c) => {
                        self.class(c)?;
                        Ok(Ty::RefArray(c.clone()))
                    }
                    t => self.err(format_args!("invalid array element type {t}")),
                }
            }
            Expr::Len(b) => {
                let bt = self.expr(b)?;
                if !matches!(bt, Ty::IntArray | Ty::RefArray(_)) {
                    return self.err(format_args!("len() of non-array type {bt}"));
                }
                Ok(Ty::Int)
            }
            Expr::Bin { op, lhs, rhs } => {
                let lt = self.expr(lhs)?;
                let rt = self.expr(rhs)?;
                match op {
                    BinOp::Eq | BinOp::Ne => {
                        let ok = lt == rt
                            || (lt.is_ref() && matches!(&rt, Ty::Ref(n) if n.is_empty()))
                            || (rt.is_ref() && matches!(&lt, Ty::Ref(n) if n.is_empty()));
                        if !ok {
                            return self
                                .err(format_args!("cannot compare {lt} with {rt}"));
                        }
                        Ok(Ty::Int)
                    }
                    _ => {
                        if lt != Ty::Int || rt != Ty::Int {
                            return self.err(format_args!(
                                "arithmetic on non-int types {lt}, {rt}"
                            ));
                        }
                        Ok(Ty::Int)
                    }
                }
            }
            Expr::Un { op, expr } => {
                let t = self.expr(expr)?;
                if t != Ty::Int {
                    return self.err(format_args!("unary {op:?} on non-int type {t}"));
                }
                Ok(Ty::Int)
            }
            Expr::Call { func, args } => {
                let (params, ret) = self.signature(func)?;
                self.check_args(func, &params, args)?;
                Ok(ret.unwrap_or(Ty::Int))
            }
            Expr::Spawn { func, args } => {
                if self.in_atomic > 0 {
                    return self.err("`spawn` inside `atomic` is not allowed");
                }
                let (params, ret) = self.signature(func)?;
                if !matches!(ret, None | Some(Ty::Int)) {
                    return self.err(format_args!(
                        "spawned function `{func}` must return int or nothing"
                    ));
                }
                self.check_args(func, &params, args)?;
                Ok(Ty::Thread)
            }
            Expr::Join(b) => {
                if self.in_atomic > 0 {
                    return self.err("`join` inside `atomic` is not allowed");
                }
                let t = self.expr(b)?;
                if t != Ty::Thread {
                    return self.err(format_args!("join of non-thread type {t}"));
                }
                Ok(Ty::Int)
            }
        }
    }

    fn check_args(
        &mut self,
        func: &str,
        params: &[Ty],
        args: &mut [Expr],
    ) -> Result<(), TypeError> {
        if params.len() != args.len() {
            return self.err(format_args!(
                "`{func}` expects {} arguments, got {}",
                params.len(),
                args.len()
            ));
        }
        for (p, a) in params.iter().zip(args.iter_mut()) {
            let at = self.expr(a)?;
            if !self.assignable(p, &at) {
                return self.err(format_args!(
                    "`{func}`: argument type {at} does not match parameter {p}"
                ));
            }
        }
        Ok(())
    }
}

fn check_field_ty_cx(cx: &FnCx<'_>, ty: &Ty) -> Result<(), TypeError> {
    match ty {
        Ty::Ref(c) | Ty::RefArray(c) if !c.is_empty() => {
            cx.class(c)?;
            Ok(())
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn check_src(src: &str) -> Result<Checked, TypeError> {
        check(parse(src).expect("parses"))
    }

    #[test]
    fn accepts_well_typed_program() {
        let c = check_src(
            "class Node { val: int, next: ref Node }\n\
             static root: ref Node;\n\
             fn push(n: ref Node) { atomic { n.next = root; root = n; } }\n\
             fn main() { let n: ref Node = new Node; n.val = 1; push(n); }",
        )
        .unwrap();
        let meta = &c.funcs["main"];
        assert_eq!(meta.slots.len(), 1);
        // `root` was rewritten into Static nodes with fresh sites.
        let push = c.program.func("push").unwrap();
        let mut statics = 0;
        crate::ast::walk_stmts(&push.body, &mut |s| {
            crate::ast::walk_exprs(s, &mut |e| {
                if matches!(e, Expr::Static { .. }) {
                    statics += 1;
                }
            });
            if let Stmt::Assign { place: Place::Static { .. }, .. } = s {
                statics += 1;
            }
        });
        assert_eq!(statics, 2, "one static load, one static store");
    }

    #[test]
    fn rejects_bad_assignment() {
        let e = check_src(
            "class C { x: int }\n\
             fn main() { let c: ref C = new C; c.x = c; }",
        )
        .unwrap_err();
        assert!(e.message.contains("cannot assign"), "{e}");
    }

    #[test]
    fn rejects_unknown_field() {
        assert!(check_src(
            "class C { x: int } fn main() { let c: ref C = new C; c.y = 1; }"
        )
        .is_err());
    }

    #[test]
    fn rejects_retry_outside_atomic() {
        let e = check_src("fn main() { retry; }").unwrap_err();
        assert!(e.message.contains("retry"), "{e}");
    }

    #[test]
    fn rejects_spawn_in_atomic() {
        let e = check_src(
            "fn w() {} fn main() { atomic { let t: thread = spawn w(); } }",
        )
        .unwrap_err();
        assert!(e.message.contains("spawn"), "{e}");
    }

    #[test]
    fn rejects_lock_in_atomic() {
        let e = check_src(
            "class C { x: int }\n\
             fn main() { let c: ref C = new C; atomic { lock (c) { } } }",
        )
        .unwrap_err();
        assert!(e.message.contains("lock"), "{e}");
    }

    #[test]
    fn null_assignable_to_refs() {
        check_src(
            "class C { n: ref C }\n\
             fn main() { let c: ref C = null; let a: array int = null; if (c == null) { } }",
        )
        .unwrap();
    }

    #[test]
    fn rejects_shadowing() {
        let e = check_src("fn main() { let x: int = 1; let x: int = 2; }").unwrap_err();
        assert!(e.message.contains("shadowing"), "{e}");
    }

    #[test]
    fn rejects_missing_main() {
        assert!(check_src("fn f() {}").is_err());
    }

    #[test]
    fn join_requires_thread() {
        assert!(check_src("fn main() { let x: int = join 3; }").is_err());
    }
}
