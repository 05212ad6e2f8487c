//! Whole-program, field-sensitive, flow-insensitive pointer analysis with
//! the paper's two-element context (§5.1).
//!
//! The paper simulates transactional code duplication by analysing each
//! method in at most two contexts — *in transaction* and *not in
//! transaction* — and specializing abstract heap objects by the allocating
//! context ("heap specialization"). We reproduce that exactly:
//!
//! * pointer variables are `(function, local, ctx)` triples (statics and
//!   temporaries are context-free);
//! * abstract objects are `(allocation site, ctx)` pairs;
//! * every call inherits the caller's context except calls lexically inside
//!   `atomic`, which analyse the callee under [`Ctx::In`]; `spawn` targets
//!   start in [`Ctx::Out`].
//!
//! The solver is a standard Andersen worklist: subset edges for copies,
//! complex constraints re-expanded as points-to sets grow.

use std::collections::{HashMap, HashSet, VecDeque};
use tmir::ast::*;

/// Analysis context: is the code executing inside a transaction?
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Ctx {
    /// Not in a transaction.
    Out,
    /// In a transaction.
    In,
}

/// An abstract heap object: allocation site specialized by context.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AbsObj {
    /// The `new` / `new_array` site.
    pub site: SiteId,
    /// The context the allocation was analysed under.
    pub ctx: Ctx,
}

/// Field selector for field-sensitive points-to.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum FieldKey {
    /// A named object field.
    Named(String),
    /// Any array element.
    Elem,
}

/// A points-to variable.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Var {
    /// A function's local, context-specialized.
    Local {
        /// Enclosing function.
        func: String,
        /// Local name.
        name: String,
        /// Context.
        ctx: Ctx,
    },
    /// A function's return value, context-specialized.
    Ret {
        /// Function.
        func: String,
        /// Context.
        ctx: Ctx,
    },
    /// A static variable (context-free; there is one copy).
    Static(String),
    /// Compiler temporary.
    Temp(u32),
    /// The field `field` of abstract object `obj`.
    ObjField(AbsObj, FieldKey),
}

/// How an abstract object is accessed inside transactions (object
/// granularity, matching the system's object-level conflict detection).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TxnMode {
    /// Some transaction may read it.
    pub read: bool,
    /// Some transaction may write it.
    pub written: bool,
}

/// One heap access, as seen under a specific analysis context.
#[derive(Clone, Debug)]
pub struct AccessFact {
    /// The site.
    pub site: SiteId,
    /// Context of the enclosing function body.
    pub ctx: Ctx,
    /// Effective transactionality: lexically in `atomic` or `ctx == In`.
    pub in_txn: bool,
    /// Store (vs load).
    pub is_store: bool,
    /// Base variable (object/array accesses).
    pub base: Option<Var>,
    /// Static name (static accesses).
    pub static_name: Option<String>,
    /// Enclosing function.
    pub func: String,
}

#[derive(Default)]
struct Solver {
    pts: HashMap<Var, HashSet<AbsObj>>,
    succ: HashMap<Var, HashSet<Var>>,
    loads: HashMap<Var, Vec<(FieldKey, Var)>>,
    stores: HashMap<Var, Vec<(FieldKey, Var)>>,
    dirty: VecDeque<Var>,
    obj_fields: HashMap<AbsObj, HashSet<FieldKey>>,
}

impl Solver {
    fn add_obj(&mut self, var: Var, obj: AbsObj) {
        if self.pts.entry(var.clone()).or_default().insert(obj) {
            self.dirty.push_back(var);
        }
    }

    fn add_edge(&mut self, src: Var, dst: Var) {
        if src == dst {
            return;
        }
        if self.succ.entry(src.clone()).or_default().insert(dst) {
            self.dirty.push_back(src);
        }
    }

    fn add_load(&mut self, base: Var, field: FieldKey, dst: Var) {
        self.loads.entry(base.clone()).or_default().push((field, dst));
        self.dirty.push_back(base);
    }

    fn add_store(&mut self, base: Var, field: FieldKey, src: Var) {
        self.stores.entry(base.clone()).or_default().push((field, src));
        self.dirty.push_back(base);
    }

    fn solve(&mut self) {
        while let Some(v) = self.dirty.pop_front() {
            let objs: Vec<AbsObj> = self.pts.get(&v).map(|s| s.iter().copied().collect()).unwrap_or_default();
            if objs.is_empty() {
                continue;
            }
            // Copy edges.
            let succs: Vec<Var> = self.succ.get(&v).map(|s| s.iter().cloned().collect()).unwrap_or_default();
            for dst in succs {
                let mut grew = false;
                {
                    let set = self.pts.entry(dst.clone()).or_default();
                    for o in &objs {
                        grew |= set.insert(*o);
                    }
                }
                if grew {
                    self.dirty.push_back(dst);
                }
            }
            // Complex constraints.
            let loads: Vec<(FieldKey, Var)> =
                self.loads.get(&v).cloned().unwrap_or_default();
            for (field, dst) in loads {
                for o in &objs {
                    self.obj_fields.entry(*o).or_default().insert(field.clone());
                    self.add_edge(Var::ObjField(*o, field.clone()), dst.clone());
                }
            }
            let stores: Vec<(FieldKey, Var)> =
                self.stores.get(&v).cloned().unwrap_or_default();
            for (field, src) in stores {
                for o in &objs {
                    self.obj_fields.entry(*o).or_default().insert(field.clone());
                    self.add_edge(src.clone(), Var::ObjField(*o, field.clone()));
                }
            }
        }
    }
}

/// The result of whole-program analysis: reachability, points-to, in-txn
/// access modes, thread-shared objects, and per-access facts.
pub struct WholeProgram {
    /// Reachable `(function, ctx)` pairs.
    pub reachable: HashSet<(String, Ctx)>,
    /// All heap accesses in reachable code.
    pub accesses: Vec<AccessFact>,
    /// In-transaction access modes per abstract object.
    pub modes: HashMap<AbsObj, TxnMode>,
    /// In-transaction access modes per static.
    pub static_modes: HashMap<String, TxnMode>,
    /// Thread-shared objects (for the TL comparison analysis):
    /// reachable from statics or spawn arguments.
    pub shared: HashSet<AbsObj>,
    pts: HashMap<Var, HashSet<AbsObj>>,
}

impl WholeProgram {
    /// Runs the full analysis.
    ///
    /// # Panics
    /// Panics if the program references unknown functions (run
    /// `tmir::types::check` first).
    pub fn analyze(program: &Program) -> WholeProgram {
        let mut gen = Gen {
            program,
            solver: Solver::default(),
            next_temp: 0,
            accesses: Vec::new(),
            spawn_roots: Vec::new(),
            reachable: HashSet::new(),
            worklist: VecDeque::new(),
        };
        gen.seed();
        while let Some((func, ctx)) = gen.worklist.pop_front() {
            let decl = program.func(&func).expect("checked program");
            let body = decl.body.clone();
            gen.gen_block(&func, &body, ctx, false);
        }
        gen.solver.solve();

        // Access modes (object granularity, matching object-level conflict
        // detection).
        let mut modes: HashMap<AbsObj, TxnMode> = HashMap::new();
        let mut static_modes: HashMap<String, TxnMode> = HashMap::new();
        for fact in &gen.accesses {
            if !fact.in_txn {
                continue;
            }
            if let Some(name) = &fact.static_name {
                let m = static_modes.entry(name.clone()).or_default();
                if fact.is_store {
                    m.written = true;
                } else {
                    m.read = true;
                }
            } else if let Some(base) = &fact.base {
                for o in gen.solver.pts.get(base).into_iter().flatten() {
                    let m = modes.entry(*o).or_default();
                    if fact.is_store {
                        m.written = true;
                    } else {
                        m.read = true;
                    }
                }
            }
        }

        // Thread-shared closure for TL: roots are statics' and spawn
        // arguments' points-to sets; anything reachable through fields of a
        // shared object is shared.
        let mut shared: HashSet<AbsObj> = HashSet::new();
        let mut queue: VecDeque<AbsObj> = VecDeque::new();
        for (var, set) in &gen.solver.pts {
            let is_root = matches!(var, Var::Static(_)) || gen.spawn_roots.contains(var);
            if is_root {
                for o in set {
                    if shared.insert(*o) {
                        queue.push_back(*o);
                    }
                }
            }
        }
        while let Some(o) = queue.pop_front() {
            let fields: Vec<FieldKey> = gen
                .solver
                .obj_fields
                .get(&o)
                .map(|s| s.iter().cloned().collect())
                .unwrap_or_default();
            for f in fields {
                if let Some(set) = gen.solver.pts.get(&Var::ObjField(o, f)) {
                    for t in set {
                        if shared.insert(*t) {
                            queue.push_back(*t);
                        }
                    }
                }
            }
        }

        WholeProgram {
            reachable: gen.reachable,
            accesses: gen.accesses,
            modes,
            static_modes,
            shared,
            pts: gen.solver.pts,
        }
    }

    /// Points-to set of a variable (empty if unknown).
    pub fn points_to(&self, var: &Var) -> HashSet<AbsObj> {
        self.pts.get(var).cloned().unwrap_or_default()
    }

    /// The in-transaction mode of an abstract object.
    pub fn mode(&self, obj: AbsObj) -> TxnMode {
        self.modes.get(&obj).copied().unwrap_or_default()
    }
}

struct Gen<'p> {
    program: &'p Program,
    solver: Solver,
    next_temp: u32,
    accesses: Vec<AccessFact>,
    spawn_roots: Vec<Var>,
    reachable: HashSet<(String, Ctx)>,
    worklist: VecDeque<(String, Ctx)>,
}

impl Gen<'_> {
    fn seed(&mut self) {
        if self.program.func("init").is_some() {
            self.enqueue("init", Ctx::Out);
        }
        self.enqueue("main", Ctx::Out);
    }

    fn enqueue(&mut self, func: &str, ctx: Ctx) {
        if self.reachable.insert((func.to_string(), ctx)) {
            self.worklist.push_back((func.to_string(), ctx));
        }
    }

    fn temp(&mut self) -> Var {
        self.next_temp += 1;
        Var::Temp(self.next_temp)
    }

    fn local(&self, func: &str, name: &str, ctx: Ctx) -> Var {
        Var::Local { func: func.to_string(), name: name.to_string(), ctx }
    }

    fn gen_block(&mut self, func: &str, body: &[Stmt], ctx: Ctx, in_atomic: bool) {
        for stmt in body {
            self.gen_stmt(func, stmt, ctx, in_atomic);
        }
    }

    fn gen_stmt(&mut self, func: &str, stmt: &Stmt, ctx: Ctx, in_atomic: bool) {
        match stmt {
            Stmt::Let { name, init, .. } => {
                if let Some(v) = self.gen_expr(func, init, ctx, in_atomic) {
                    self.solver.add_edge(v, self.local(func, name, ctx));
                }
            }
            Stmt::Assign { place, value } => {
                let val = self.gen_expr(func, value, ctx, in_atomic);
                match place {
                    Place::Local(name) => {
                        if let Some(v) = val {
                            self.solver.add_edge(v, self.local(func, name, ctx));
                        }
                    }
                    Place::Field { base, field, site } => {
                        let b = self.gen_expr(func, base, ctx, in_atomic);
                        self.record(func, *site, ctx, in_atomic, true, b.clone(), None);
                        if let (Some(b), Some(v)) = (b, val) {
                            self.solver.add_store(b, FieldKey::Named(field.clone()), v);
                        }
                    }
                    Place::Static { name, site } => {
                        self.record(func, *site, ctx, in_atomic, true, None, Some(name.clone()));
                        if let Some(v) = val {
                            self.solver.add_edge(v, Var::Static(name.clone()));
                        }
                    }
                    Place::Index { base, index, site } => {
                        self.gen_expr(func, index, ctx, in_atomic);
                        let b = self.gen_expr(func, base, ctx, in_atomic);
                        self.record(func, *site, ctx, in_atomic, true, b.clone(), None);
                        if let (Some(b), Some(v)) = (b, val) {
                            self.solver.add_store(b, FieldKey::Elem, v);
                        }
                    }
                }
            }
            Stmt::Expr(e) | Stmt::Print(e) | Stmt::Assert(e) => {
                self.gen_expr(func, e, ctx, in_atomic);
            }
            Stmt::If { cond, then_body, else_body } => {
                self.gen_expr(func, cond, ctx, in_atomic);
                self.gen_block(func, then_body, ctx, in_atomic);
                self.gen_block(func, else_body, ctx, in_atomic);
            }
            Stmt::While { cond, body } => {
                self.gen_expr(func, cond, ctx, in_atomic);
                self.gen_block(func, body, ctx, in_atomic);
            }
            Stmt::Atomic { body } => self.gen_block(func, body, ctx, true),
            Stmt::Lock { obj, body } => {
                self.gen_expr(func, obj, ctx, in_atomic);
                self.gen_block(func, body, ctx, in_atomic);
            }
            Stmt::Return(Some(e)) => {
                if let Some(v) = self.gen_expr(func, e, ctx, in_atomic) {
                    self.solver
                        .add_edge(v, Var::Ret { func: func.to_string(), ctx });
                }
            }
            Stmt::Retry | Stmt::Return(None) => {}
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        func: &str,
        site: SiteId,
        ctx: Ctx,
        in_atomic: bool,
        is_store: bool,
        base: Option<Var>,
        static_name: Option<String>,
    ) {
        self.accesses.push(AccessFact {
            site,
            ctx,
            in_txn: in_atomic || ctx == Ctx::In,
            is_store,
            base,
            static_name,
            func: func.to_string(),
        });
    }

    /// Generates constraints for `e`; returns the variable holding its value
    /// if the value is a reference.
    fn gen_expr(&mut self, func: &str, e: &Expr, ctx: Ctx, in_atomic: bool) -> Option<Var> {
        match e {
            Expr::Int(_) | Expr::Null => None,
            Expr::Local(name) => Some(self.local(func, name, ctx)),
            Expr::Static { name, site } => {
                self.record(func, *site, ctx, in_atomic, false, None, Some(name.clone()));
                Some(Var::Static(name.clone()))
            }
            Expr::Field { base, field, site } => {
                let b = self.gen_expr(func, base, ctx, in_atomic);
                self.record(func, *site, ctx, in_atomic, false, b.clone(), None);
                let t = self.temp();
                if let Some(b) = b {
                    self.solver.add_load(b, FieldKey::Named(field.clone()), t.clone());
                }
                Some(t)
            }
            Expr::Index { base, index, site } => {
                self.gen_expr(func, index, ctx, in_atomic);
                let b = self.gen_expr(func, base, ctx, in_atomic);
                self.record(func, *site, ctx, in_atomic, false, b.clone(), None);
                let t = self.temp();
                if let Some(b) = b {
                    self.solver.add_load(b, FieldKey::Elem, t.clone());
                }
                Some(t)
            }
            Expr::New { site, .. } | Expr::NewArray { site, .. } => {
                // Heap specialization: the abstract object records the
                // allocating context.
                let obj_ctx = if in_atomic { Ctx::In } else { ctx };
                if let Expr::NewArray { len, .. } = e {
                    self.gen_expr(func, len, ctx, in_atomic);
                }
                let t = self.temp();
                self.solver.add_obj(t.clone(), AbsObj { site: *site, ctx: obj_ctx });
                Some(t)
            }
            Expr::Len(b) => {
                self.gen_expr(func, b, ctx, in_atomic);
                None
            }
            Expr::Bin { lhs, rhs, .. } => {
                self.gen_expr(func, lhs, ctx, in_atomic);
                self.gen_expr(func, rhs, ctx, in_atomic);
                None
            }
            Expr::Un { expr, .. } => {
                self.gen_expr(func, expr, ctx, in_atomic);
                None
            }
            Expr::Call { func: callee, args } => {
                let callee_ctx = if in_atomic { Ctx::In } else { ctx };
                self.enqueue(callee, callee_ctx);
                self.bind_args(func, callee, args, ctx, in_atomic, callee_ctx, false);
                let t = self.temp();
                self.solver
                    .add_edge(Var::Ret { func: callee.to_string(), ctx: callee_ctx }, t.clone());
                Some(t)
            }
            Expr::Spawn { func: callee, args } => {
                self.enqueue(callee, Ctx::Out);
                self.bind_args(func, callee, args, ctx, in_atomic, Ctx::Out, true);
                None // thread handles are not references
            }
            Expr::Join(b) => {
                self.gen_expr(func, b, ctx, in_atomic);
                None
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn bind_args(
        &mut self,
        func: &str,
        callee: &str,
        args: &[Expr],
        ctx: Ctx,
        in_atomic: bool,
        callee_ctx: Ctx,
        is_spawn: bool,
    ) {
        let params: Vec<String> = self
            .program
            .func(callee)
            .map(|f| f.params.iter().map(|(n, _)| n.clone()).collect())
            .unwrap_or_default();
        for (i, a) in args.iter().enumerate() {
            let av = self.gen_expr(func, a, ctx, in_atomic);
            if let (Some(av), Some(p)) = (av, params.get(i)) {
                if is_spawn {
                    self.spawn_roots.push(av.clone());
                }
                self.solver.add_edge(av, self.local(callee, p, callee_ctx));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmir::parse::parse;
    use tmir::types::check;

    fn analyze(src: &str) -> (Program, WholeProgram) {
        let p = check(parse(src).unwrap()).unwrap().program;
        let w = WholeProgram::analyze(&p);
        (p, w)
    }

    fn new_site(p: &Program, func: &str, nth: usize) -> SiteId {
        let mut sites = Vec::new();
        walk_stmts(&p.func(func).unwrap().body, &mut |s| {
            walk_exprs(s, &mut |e| {
                if let Expr::New { site, .. } | Expr::NewArray { site, .. } = e {
                    sites.push(*site);
                }
            });
        });
        sites[nth]
    }

    #[test]
    fn flows_through_locals_and_fields() {
        let (p, w) = analyze(
            "class C { n: ref C }\n\
             fn main() {\n\
               let a: ref C = new C;\n\
               let b: ref C = new C;\n\
               a.n = b;\n\
               let c: ref C = a.n;\n\
               c.n = c;\n\
             }",
        );
        let b_site = new_site(&p, "main", 1);
        let c_var = Var::Local { func: "main".into(), name: "c".into(), ctx: Ctx::Out };
        let pts = w.points_to(&c_var);
        assert!(pts.contains(&AbsObj { site: b_site, ctx: Ctx::Out }));
        assert_eq!(pts.len(), 1, "field-sensitive: c only sees b's object");
    }

    #[test]
    fn contexts_split_reachability() {
        let (_, w) = analyze(
            "class C { x: int }\n\
             static g: ref C;\n\
             fn touch(c: ref C) { c.x = 1; }\n\
             fn main() {\n\
               let a: ref C = new C;\n\
               touch(a);\n\
               atomic { touch(g); }\n\
             }",
        );
        assert!(w.reachable.contains(&("touch".to_string(), Ctx::Out)));
        assert!(w.reachable.contains(&("touch".to_string(), Ctx::In)));
        assert!(!w.reachable.contains(&("main".to_string(), Ctx::In)));
    }

    #[test]
    fn heap_specialization_separates_contexts() {
        // The same allocation site reached in both contexts yields two
        // abstract objects.
        let (p, w) = analyze(
            "class C { x: int }\n\
             static g: ref C;\n\
             fn make() -> ref C { return new C; }\n\
             fn main() {\n\
               let a: ref C = make();\n\
               atomic { g = make(); }\n\
             }",
        );
        let site = new_site(&p, "make", 0);
        let a = w.points_to(&Var::Local { func: "main".into(), name: "a".into(), ctx: Ctx::Out });
        assert_eq!(a, HashSet::from([AbsObj { site, ctx: Ctx::Out }]));
        let g = w.points_to(&Var::Static("g".into()));
        assert_eq!(g, HashSet::from([AbsObj { site, ctx: Ctx::In }]));
    }

    #[test]
    fn txn_modes_computed() {
        let (p, w) = analyze(
            "class C { x: int }\n\
             static g: ref C;\n\
             fn main() {\n\
               let a: ref C = new C;\n\
               g = a;\n\
               atomic { g.x = g.x + 1; }\n\
               a.x = 5;\n\
             }",
        );
        let site = new_site(&p, "main", 0);
        let m = w.mode(AbsObj { site, ctx: Ctx::Out });
        assert!(m.read && m.written, "read and written inside the atomic block");
        let gm = w.static_modes.get("g").copied().unwrap_or_default();
        assert!(gm.read, "static g read in txn");
        assert!(!gm.written, "static g never written in txn");
    }

    #[test]
    fn shared_closure_covers_spawn_args_and_statics() {
        let (p, w) = analyze(
            "class C { n: ref C, x: int }\n\
             static g: ref C;\n\
             fn worker(c: ref C) -> int { return c.x; }\n\
             fn main() {\n\
               let s: ref C = new C;\n\
               let inner: ref C = new C;\n\
               s.n = inner;\n\
               let t: thread = spawn worker(s);\n\
               let private: ref C = new C;\n\
               private.x = join t;\n\
             }",
        );
        let s_site = new_site(&p, "main", 0);
        let inner_site = new_site(&p, "main", 1);
        let priv_site = new_site(&p, "main", 2);
        assert!(w.shared.contains(&AbsObj { site: s_site, ctx: Ctx::Out }));
        assert!(
            w.shared.contains(&AbsObj { site: inner_site, ctx: Ctx::Out }),
            "reachable through a spawn argument's field"
        );
        assert!(!w.shared.contains(&AbsObj { site: priv_site, ctx: Ctx::Out }));
    }

    #[test]
    fn unreachable_functions_not_analyzed() {
        let (_, w) = analyze(
            "fn dead() { }\n\
             fn main() { }",
        );
        assert!(!w.reachable.contains(&("dead".to_string(), Ctx::Out)));
        assert!(!w.reachable.contains(&("dead".to_string(), Ctx::In)));
    }

    #[test]
    fn access_facts_track_transactionality() {
        let (_, w) = analyze(
            "static g: int;\n\
             fn main() { g = 1; atomic { g = 2; } }",
        );
        let stores: Vec<_> = w
            .accesses
            .iter()
            .filter(|a| a.is_store && a.static_name.as_deref() == Some("g"))
            .collect();
        assert_eq!(stores.len(), 2);
        assert_eq!(stores.iter().filter(|a| a.in_txn).count(), 1);
    }
}
