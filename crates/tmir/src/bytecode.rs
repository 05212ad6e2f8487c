//! TMIR bytecode: a flat, stack-based instruction stream with *explicit
//! barrier opcodes*.
//!
//! This is the StarJIT-shaped representation the paper's §6 optimizations
//! want: every heap access compiles to one instruction that carries its
//! [`SiteId`] and a [`BarrierOp`] — the barrier decision baked in from the
//! [`crate::sites::BarrierTable`] at compile time. Barrier *elision*
//! (immutable fields, non-escaping objects, NAIT facts from `tmir-analysis`)
//! is then an opcode rewrite, and Figure-14 barrier *aggregation* is a
//! peephole pass over straight-line instruction runs — no AST surgery.
//!
//! Whether an access runs the transactional protocol is a dynamic property
//! (a function called both inside and outside `atomic` flattens into the
//! caller's transaction), so there are no separate `TxnOpenRead`/`TxnRead`
//! opcodes: the dispatch loop in [`crate::vm`] routes each barrier opcode
//! through the transactional read/write protocol when a transaction is
//! active, and through the [`BarrierOp`] otherwise — exactly like the
//! tree-walking interpreter, but over a representation the passes can
//! rewrite in O(instructions).

use crate::ast::{
    walk_exprs, walk_stmts, BinOp, Expr, FuncDecl, Place, Program, SiteId, Stmt, UnOp,
};
use crate::sites::classify;
use std::collections::{HashMap, HashSet};

/// The barrier decision carried by a heap-access instruction, resolved at
/// compile time from the [`crate::sites::BarrierTable`] and rewritten by the
/// bytecode passes.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BarrierOp {
    /// No barrier (weak atomicity, or the site never had one).
    Raw,
    /// Non-transactional isolation read barrier (strong atomicity).
    Read,
    /// Non-transactional isolation write barrier (strong atomicity).
    Write,
    /// A read barrier removed by an elision pass; executes raw but is
    /// counted separately so the win is measurable.
    ElidedRead,
    /// A write barrier removed by an elision pass.
    ElidedWrite,
    /// A read folded into an enclosing [`Insn::AggBegin`] region.
    AggRead,
    /// A write folded into an enclosing [`Insn::AggBegin`] region.
    AggWrite,
}

impl BarrierOp {
    /// Whether this opcode still executes a per-access isolation barrier.
    pub fn is_barriered(self) -> bool {
        matches!(self, BarrierOp::Read | BarrierOp::Write)
    }
}

/// Why a region of code must not be entered transactionally.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum NoTxnOp {
    Spawn,
    Join,
    Lock,
}

impl NoTxnOp {
    pub(crate) fn message(self) -> &'static str {
        match self {
            NoTxnOp::Spawn => "spawn inside a transaction",
            NoTxnOp::Join => "join inside a transaction",
            NoTxnOp::Lock => "lock inside a transaction",
        }
    }
}

/// One bytecode instruction. Operands travel on a per-frame value stack;
/// jump targets are absolute instruction indices within the function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Insn {
    /// Push a constant.
    Const(i64),
    /// Push local slot.
    Load(u16),
    /// Pop into local slot.
    Store(u16),
    /// Discard the top of stack.
    Pop,
    /// Trap with "null pointer dereference" if the top of stack (peeked,
    /// not popped) is null. Emitted before an array index expression so the
    /// base's null trap precedes any trap inside the index, as in the
    /// interpreter.
    NullCheck,
    /// Unconditional jump.
    Jump(u32),
    /// Pop; jump if zero.
    JumpIfZero(u32),
    /// Pop; jump if non-zero.
    JumpIfNonZero(u32),
    /// Pop rhs, pop lhs, push the result. `And`/`Or` here are the
    /// non-short-circuit forms; the compiler emits jumps for short-circuit.
    Bin(BinOp),
    /// Pop, apply, push.
    Un(UnOp),
    /// Pop base object; push field `fidx`.
    GetField {
        /// Field index, resolved at compile time from the static types.
        fidx: u16,
        /// Access site.
        site: SiteId,
        /// Barrier decision.
        barrier: BarrierOp,
        /// When the base expression is a local, its slot — the anchor the
        /// escape-elision and aggregation passes key on.
        base: Option<u16>,
    },
    /// Pop base object, pop value; store into field `fidx`.
    PutField {
        /// Field index.
        fidx: u16,
        /// Access site.
        site: SiteId,
        /// Barrier decision.
        barrier: BarrierOp,
        /// Base local slot, if the base expression is a local.
        base: Option<u16>,
    },
    /// Push static cell `sidx`.
    GetStatic {
        /// Static index.
        sidx: u16,
        /// Access site.
        site: SiteId,
        /// Barrier decision.
        barrier: BarrierOp,
    },
    /// Pop value; store into static cell `sidx`.
    PutStatic {
        /// Static index.
        sidx: u16,
        /// Access site.
        site: SiteId,
        /// Barrier decision.
        barrier: BarrierOp,
    },
    /// Pop index, pop base array; push element.
    GetIndex {
        /// Access site.
        site: SiteId,
        /// Barrier decision.
        barrier: BarrierOp,
        /// Base local slot, if the base expression is a local.
        base: Option<u16>,
    },
    /// Pop index, pop base array, pop value; store element.
    PutIndex {
        /// Access site.
        site: SiteId,
        /// Barrier decision.
        barrier: BarrierOp,
        /// Base local slot, if the base expression is a local.
        base: Option<u16>,
    },
    /// Allocate an instance of class `class` (by declaration index); push.
    New {
        /// Class index.
        class: u16,
    },
    /// Pop length; allocate an int array; push.
    NewIntArray,
    /// Pop length; allocate a ref array; push.
    NewRefArray,
    /// Pop array; push its length.
    Len,
    /// Pop the callee's arguments (last on top); push the return value.
    Call {
        /// Function index.
        func: u16,
    },
    /// Pop the callee's arguments; publish reference args; push the 1-based
    /// thread handle.
    Spawn {
        /// Function index.
        func: u16,
    },
    /// Pop a thread handle; push the joined thread's return value.
    Join,
    /// Trap with the matching message if a transaction is active. Emitted
    /// *before* operand evaluation for spawn/join/lock so the trap order
    /// matches the interpreter.
    NoTxn(NoTxnOp),
    /// Pop; append to the output log.
    Print,
    /// Pop; trap "assertion failed" if zero.
    Assert,
    /// Pop; return from the function.
    Ret,
    /// Begin an `atomic` region; `end` is the index of the matching
    /// [`Insn::AtomicEnd`]. Flattens when a transaction is already active.
    AtomicBegin {
        /// Index of the matching end marker.
        end: u32,
    },
    /// End marker for [`Insn::AtomicBegin`]; never executed.
    AtomicEnd,
    /// Pop the monitor object and begin a `lock` region; `end` is the index
    /// of the matching [`Insn::LockEnd`].
    LockBegin {
        /// Index of the matching end marker.
        end: u32,
    },
    /// End marker for [`Insn::LockBegin`]; never executed.
    LockEnd,
    /// Begin an aggregated-barrier region (paper Figure 14): acquire the
    /// record of the object in local `slot` once for the whole region.
    /// Inside a transaction the region body runs transactionally instead.
    AggBegin {
        /// Local slot holding the single object the region touches.
        slot: u16,
        /// Index of the matching end marker.
        end: u32,
    },
    /// End marker for [`Insn::AggBegin`]; never executed.
    AggEnd,
    /// User-initiated transaction retry.
    Retry,
}

/// A compiled function: flat code plus frame layout.
#[derive(Clone, Debug)]
pub struct CompiledFunc {
    /// Function name (for diagnostics).
    pub name: String,
    /// The instruction stream.
    pub code: Vec<Insn>,
    /// Number of parameters (stored in the first slots).
    pub num_params: u16,
    /// Total local slots.
    pub num_slots: u16,
    /// Per-parameter: whether the parameter is a heap reference (drives
    /// publication on spawn).
    pub param_ref_mask: Vec<bool>,
    /// Slot index → local name, aligned with the type checker's layout.
    pub slot_names: Vec<String>,
}

/// A whole compiled program, ready for [`crate::vm::BytecodeVm`] and for
/// the bytecode passes below.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The checked source program (kept for shapes, statics, spawn
    /// signatures, and the escape pass).
    pub program: Program,
    /// Functions, aligned with `program.funcs` by index.
    pub funcs: Vec<CompiledFunc>,
    /// Function name → index.
    pub func_index: HashMap<String, usize>,
    /// Total number of access sites in the program.
    pub num_sites: u32,
}

impl CompiledProgram {
    /// Total instruction count across all functions.
    pub fn insn_count(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }

    /// Looks up a compiled function by name.
    pub fn func(&self, name: &str) -> Option<&CompiledFunc> {
        self.func_index.get(name).map(|&i| &self.funcs[i])
    }
}

/// Which bytecode passes to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PassOptions {
    /// Rewrite barriers on `final` fields to elided form.
    pub immutable: bool,
    /// Rewrite barriers on provably non-escaping locals to elided form.
    pub escape: bool,
    /// Fuse straight-line runs of barriered accesses to one object into
    /// aggregated regions.
    pub aggregate: bool,
}

impl PassOptions {
    /// All passes on.
    pub fn all() -> Self {
        PassOptions { immutable: true, escape: true, aggregate: true }
    }

    /// Elision only, no aggregation.
    pub fn elim_only() -> Self {
        PassOptions { immutable: true, escape: true, aggregate: false }
    }
}

/// What the bytecode passes did.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PassReport {
    /// Barrier opcodes rewritten because the field is immutable.
    pub immutable_elided: usize,
    /// Barrier opcodes rewritten by intraprocedural escape analysis.
    pub escape_elided: usize,
    /// Barrier opcodes folded into aggregated regions.
    pub aggregated_sites: usize,
    /// Aggregated regions created.
    pub regions: usize,
}

/// Runs the enabled passes over `cp` in place.
pub fn optimize(cp: &mut CompiledProgram, opts: PassOptions) -> PassReport {
    let mut report = PassReport::default();
    if opts.immutable {
        let finals: HashSet<SiteId> = classify(&cp.program)
            .into_iter()
            .filter(|i| i.final_field)
            .map(|i| i.id)
            .collect();
        report.immutable_elided = elide_sites(cp, |s| finals.contains(&s));
    }
    if opts.escape {
        report.escape_elided = elide_escaping(cp);
    }
    if opts.aggregate {
        for func in &mut cp.funcs {
            let (s, r) = aggregate_func(func);
            report.aggregated_sites += s;
            report.regions += r;
        }
    }
    report
}

/// Rewrites every still-barriered opcode whose site satisfies `pred` to its
/// elided form; returns the number rewritten. This is how external facts —
/// e.g. `tmir-analysis` NAIT results — plug into the bytecode without any
/// recompile: the sites in the instruction stream are the same ids the
/// whole-program analysis reasons about.
pub fn elide_sites(cp: &mut CompiledProgram, pred: impl Fn(SiteId) -> bool) -> usize {
    let mut n = 0;
    for func in &mut cp.funcs {
        for insn in &mut func.code {
            let (site, barrier) = match insn {
                Insn::GetField { site, barrier, .. }
                | Insn::PutField { site, barrier, .. }
                | Insn::GetStatic { site, barrier, .. }
                | Insn::PutStatic { site, barrier, .. }
                | Insn::GetIndex { site, barrier, .. }
                | Insn::PutIndex { site, barrier, .. } => (*site, barrier),
                _ => continue,
            };
            if pred(site) {
                n += elide(barrier);
            }
        }
    }
    n
}

/// Rewrites a still-barriered opcode to its elided form; returns 1 if it
/// did, 0 otherwise.
fn elide(barrier: &mut BarrierOp) -> usize {
    *barrier = match *barrier {
        BarrierOp::Read => BarrierOp::ElidedRead,
        BarrierOp::Write => BarrierOp::ElidedWrite,
        _ => return 0,
    };
    1
}

/// Escape-analysis elision: barriers on accesses anchored to a provably
/// non-escaping local are rewritten to elided form. The analysis
/// ([`non_escaping_locals`]) runs over the source function; the bytecode
/// keeps the anchor slot on every access whose base is a local, so applying
/// the result is a linear rewrite.
fn elide_escaping(cp: &mut CompiledProgram) -> usize {
    let mut n = 0;
    for (decl, func) in cp.program.funcs.iter().zip(&mut cp.funcs) {
        let names = non_escaping_locals(decl);
        if names.is_empty() {
            continue;
        }
        let slots: HashSet<u16> = func
            .slot_names
            .iter()
            .enumerate()
            .filter(|(_, name)| names.contains(*name))
            .map(|(i, _)| i as u16)
            .collect();
        for insn in &mut func.code {
            let (barrier, base) = match insn {
                Insn::GetField { barrier, base, .. }
                | Insn::PutField { barrier, base, .. }
                | Insn::GetIndex { barrier, base, .. }
                | Insn::PutIndex { barrier, base, .. } => (barrier, *base),
                _ => continue,
            };
            if matches!(base, Some(s) if slots.contains(&s)) {
                n += elide(barrier);
            }
        }
    }
    n
}

/// Computes the set of locals in `func` proven not to escape.
///
/// A local is a *candidate* if its every assignment is a fresh allocation.
/// Candidates escape if their value is stored to a static, stored into a
/// field/element of anything that is not itself a non-escaping candidate,
/// copied to another local, passed to a call or spawn, returned, or used as
/// a monitor. Containment edges (`base.f = x`) propagate escape from
/// container to containee to a fixpoint.
pub(crate) fn non_escaping_locals(func: &FuncDecl) -> HashSet<String> {
    let mut candidates: HashSet<String> = HashSet::new();
    let mut disqualified: HashSet<String> =
        func.params.iter().map(|(n, _)| n.clone()).collect();
    walk_stmts(&func.body, &mut |stmt| {
        let (name, value) = match stmt {
            Stmt::Let { name, init, .. } => (name, init),
            Stmt::Assign { place: Place::Local(name), value } => (name, value),
            _ => return,
        };
        if matches!(value, Expr::New { .. } | Expr::NewArray { .. }) {
            if !disqualified.contains(name) {
                candidates.insert(name.clone());
            }
        } else {
            disqualified.insert(name.clone());
            candidates.remove(name);
        }
    });

    let mut escaped: HashSet<String> = HashSet::new();
    let mut contains: Vec<(String, String)> = Vec::new(); // (container, containee)
    let local_name = |e: &Expr| match e {
        Expr::Local(n) => Some(n.clone()),
        _ => None,
    };
    walk_stmts(&func.body, &mut |stmt| {
        walk_exprs(stmt, &mut |e| {
            if let Expr::Call { args, .. } | Expr::Spawn { args, .. } = e {
                for a in args {
                    if let Some(n) = local_name(a) {
                        escaped.insert(n);
                    }
                }
            }
        });
        match stmt {
            Stmt::Return(Some(e)) => {
                if let Some(n) = local_name(e) {
                    escaped.insert(n);
                }
            }
            Stmt::Lock { obj, .. } => {
                if let Some(n) = local_name(obj) {
                    escaped.insert(n);
                }
            }
            Stmt::Assign { place, value } => match place {
                Place::Static { .. } => {
                    if let Some(n) = local_name(value) {
                        escaped.insert(n);
                    }
                }
                Place::Field { base, .. } | Place::Index { base, .. } => match local_name(base) {
                    Some(b) => {
                        if let Some(v) = local_name(value) {
                            contains.push((b, v));
                        }
                    }
                    None => {
                        if let Some(v) = local_name(value) {
                            escaped.insert(v);
                        }
                    }
                },
                Place::Local(target) => {
                    if let Some(v) = local_name(value) {
                        if v != *target {
                            escaped.insert(v);
                        }
                    }
                }
            },
            Stmt::Let { name, init, .. } => {
                if let Some(v) = local_name(init) {
                    if v != *name {
                        escaped.insert(v);
                    }
                }
            }
            _ => {}
        }
    });

    loop {
        let mut changed = false;
        for (container, containee) in &contains {
            let container_escapes =
                escaped.contains(container) || !candidates.contains(container);
            if container_escapes && escaped.insert(containee.clone()) {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    candidates.retain(|c| !escaped.contains(c));
    candidates
}

/// A planned aggregation region over the *old* instruction indices:
/// `[first, last]` inclusive, anchored on local `slot`.
struct Region {
    first: usize,
    last: usize,
    slot: u16,
    accesses: usize,
}

/// The Figure-14 peephole: find maximal straight-line runs of ≥2 barriered
/// field accesses anchored to one local, rewrite their opcodes to
/// [`BarrierOp::AggRead`]/[`BarrierOp::AggWrite`], and bracket the run with
/// [`Insn::AggBegin`]/[`Insn::AggEnd`] so the object's record is acquired
/// once for the whole run.
///
/// Basic-block safety is enforced on the instruction stream itself: jump
/// instructions *and jump-target instructions* break runs (so control never
/// enters a region other than through its `AggBegin`), as do calls, region
/// markers, allocation, statics/array accesses, unbarriered or already
/// elided field ops, and stores to the anchor slot (re-pointing the base
/// mid-region would make later accesses touch a foreign object).
/// Instructions lexically inside `atomic` are skipped: transactional code
/// uses its own protocol.
fn aggregate_func(func: &mut CompiledFunc) -> (usize, usize) {
    let code = &func.code;
    let mut targets = HashSet::new();
    for insn in code {
        match insn {
            Insn::Jump(t) | Insn::JumpIfZero(t) | Insn::JumpIfNonZero(t) => {
                targets.insert(*t as usize);
            }
            Insn::AtomicBegin { end } | Insn::LockBegin { end } | Insn::AggBegin { end, .. } => {
                targets.insert(*end as usize);
            }
            _ => {}
        }
    }

    // Plan the regions over the current instruction indices.
    let mut regions: Vec<Region> = Vec::new();
    let mut run: Option<Region> = None;
    let mut atomic_depth = 0usize;
    let close = |run: &mut Option<Region>, regions: &mut Vec<Region>| {
        if let Some(r) = run.take() {
            if r.accesses >= 2 {
                regions.push(r);
            }
        }
    };
    for (i, insn) in code.iter().enumerate() {
        match insn {
            Insn::AtomicBegin { .. } => atomic_depth += 1,
            Insn::AtomicEnd => atomic_depth = atomic_depth.saturating_sub(1),
            _ => {}
        }
        if atomic_depth > 0 || targets.contains(&i) {
            close(&mut run, &mut regions);
            continue;
        }
        match insn {
            // Anchored, still-barriered field access: extends or starts a run.
            Insn::GetField { barrier, base: Some(b), .. }
            | Insn::PutField { barrier, base: Some(b), .. }
                if barrier.is_barriered() =>
            {
                match &mut run {
                    Some(r) if r.slot == *b => {
                        r.last = i;
                        r.accesses += 1;
                    }
                    _ => {
                        close(&mut run, &mut regions);
                        run = Some(Region { first: i, last: i, slot: *b, accesses: 1 });
                    }
                }
            }
            // Neutral instructions may sit between accesses of a run.
            Insn::Const(_) | Insn::Load(_) | Insn::Pop | Insn::NullCheck | Insn::Bin(_)
            | Insn::Un(_) => {}
            Insn::Store(s) => {
                if matches!(&run, Some(r) if r.slot == *s) {
                    close(&mut run, &mut regions);
                }
            }
            // Everything else — jumps, calls, region markers, allocation,
            // statics, arrays, unanchored or unbarriered field ops — breaks.
            _ => close(&mut run, &mut regions),
        }
    }
    close(&mut run, &mut regions);
    if regions.is_empty() {
        return (0, 0);
    }

    // Rebuild the stream with the regions bracketed, rewriting the anchored
    // accesses and remapping every old-index jump target.
    let old = std::mem::take(&mut func.code);
    let mut new: Vec<Insn> = Vec::with_capacity(old.len() + regions.len() * 2);
    let mut map = vec![0u32; old.len() + 1];
    let mut inserted: HashSet<usize> = HashSet::new();
    let mut ridx = 0usize;
    let mut open: Option<(usize, usize)> = None; // (old last index, new AggBegin pos)
    let mut sites = 0usize;
    for (i, mut insn) in old.into_iter().enumerate() {
        if ridx < regions.len() && regions[ridx].first == i {
            inserted.insert(new.len());
            open = Some((regions[ridx].last, new.len()));
            new.push(Insn::AggBegin { slot: regions[ridx].slot, end: 0 });
        }
        map[i] = new.len() as u32;
        if let Some((_, _)) = open {
            let slot = regions[ridx].slot;
            match &mut insn {
                Insn::GetField { barrier, base: Some(b), .. } if *b == slot && barrier.is_barriered() => {
                    *barrier = BarrierOp::AggRead;
                    sites += 1;
                }
                Insn::PutField { barrier, base: Some(b), .. } if *b == slot && barrier.is_barriered() => {
                    *barrier = BarrierOp::AggWrite;
                    sites += 1;
                }
                _ => {}
            }
        }
        new.push(insn);
        if let Some((last, begin_pos)) = open {
            if i == last {
                let end_pos = new.len() as u32;
                new.push(Insn::AggEnd);
                if let Insn::AggBegin { end, .. } = &mut new[begin_pos] {
                    *end = end_pos;
                }
                open = None;
                ridx += 1;
            }
        }
    }
    let tail = map.len() - 1;
    map[tail] = new.len() as u32;
    for (pos, insn) in new.iter_mut().enumerate() {
        match insn {
            Insn::Jump(t) | Insn::JumpIfZero(t) | Insn::JumpIfNonZero(t) => {
                *t = map[*t as usize];
            }
            Insn::AtomicBegin { end } | Insn::LockBegin { end } => {
                *end = map[*end as usize];
            }
            Insn::AggBegin { end, .. } if !inserted.contains(&pos) => {
                *end = map[*end as usize];
            }
            _ => {}
        }
    }
    func.code = new;
    (sites, regions.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::types::{check, Checked};

    fn checked(src: &str) -> Checked {
        check(parse(src).unwrap()).unwrap()
    }

    #[test]
    fn escape_analysis_finds_local_objects() {
        let f = checked(
            "class C { x: int, n: ref C }\n\
             static g: ref C;\n\
             fn main() {\n\
               let local: ref C = new C;\n\
               local.x = 1;\n\
               let escapes: ref C = new C;\n\
               g = escapes;\n\
               escapes.x = 2;\n\
             }",
        );
        let set = non_escaping_locals(f.program.func("main").unwrap());
        assert!(set.contains("local"));
        assert!(!set.contains("escapes"));
    }

    #[test]
    fn containment_propagates_escape() {
        let f = checked(
            "class C { x: int, n: ref C }\n\
             static g: ref C;\n\
             fn main() {\n\
               let inner: ref C = new C;\n\
               let outer: ref C = new C;\n\
               outer.n = inner;\n\
               g = outer;\n\
             }",
        );
        let set = non_escaping_locals(f.program.func("main").unwrap());
        assert!(!set.contains("outer"));
        assert!(!set.contains("inner"), "reachable through escaped container");
    }

    #[test]
    fn containment_in_local_container_is_fine() {
        let f = checked(
            "class C { x: int, n: ref C }\n\
             fn main() {\n\
               let inner: ref C = new C;\n\
               let outer: ref C = new C;\n\
               outer.n = inner;\n\
               outer.x = inner.x;\n\
             }",
        );
        let set = non_escaping_locals(f.program.func("main").unwrap());
        assert!(set.contains("outer"));
        assert!(set.contains("inner"));
    }

    #[test]
    fn call_args_escape() {
        let f = checked(
            "class C { x: int }\n\
             fn use_it(c: ref C) { c.x = 1; }\n\
             fn main() { let c: ref C = new C; use_it(c); }",
        );
        let set = non_escaping_locals(f.program.func("main").unwrap());
        assert!(!set.contains("c"));
    }
}
