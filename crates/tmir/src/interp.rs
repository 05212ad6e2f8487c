//! The TMIR virtual machine.
//!
//! A tree-walking interpreter whose every heap access is mediated by
//! `stm-core`: inside `atomic` blocks through the transactional read/write
//! protocol, outside them through whatever the [`BarrierTable`] dictates —
//! raw access (weak atomicity) or isolation barriers (strong atomicity).
//! This mirrors the role of the paper's JIT-compiled code: the *same*
//! program text runs weakly or strongly atomic purely by swapping the
//! annotation table. It runs no §6 optimizations — those are opcode
//! rewrites in [`crate::bytecode`] — and serves as the unoptimized
//! differential reference for the bytecode VM.
//!
//! Transactional execution details:
//! * `atomic` blocks re-execute on conflict with locals restored from a
//!   snapshot (the JIT's live-variable checkpoint);
//! * nested `atomic` blocks are flattened into the enclosing transaction;
//! * a trap raised inside a transaction first validates the read set — a
//!   doomed transaction that read inconsistent data retries instead of
//!   trapping (the type-safety argument of paper §3.4, footnote 4);
//! * every `validate_interval` interpreter steps a transaction revalidates,
//!   bounding doomed execution and keeping quiescence live.

use crate::ast::*;
use crate::sites::{BarrierKind, BarrierTable};
use crate::types::{Checked, FuncMeta};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use stm_core::config::StmConfig;
use stm_core::dea;
use stm_core::heap::{FieldDef, Heap, Kind, ObjRef, Shape, ShapeId, Word};
use stm_core::locks::SyncTable;
use stm_core::stats::StatsSnapshot;
use stm_core::txn::{try_atomic, Abort, Txn};

/// VM configuration.
#[derive(Clone, Debug)]
pub struct VmConfig {
    /// STM configuration for the heap.
    pub stm: StmConfig,
    /// Per-site barrier decisions for non-transactional execution.
    pub table: BarrierTable,
    /// Steps between in-transaction revalidations.
    pub validate_interval: u32,
    /// In-transaction load sites whose open-for-read barrier is removed
    /// (§5.2's weak-atomicity extension; sound only when the analysis
    /// proved no transaction writes the data AND the system runs weakly
    /// atomic).
    pub unlogged_txn_reads: std::collections::HashSet<SiteId>,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            stm: StmConfig::default(),
            table: BarrierTable::weak(),
            validate_interval: 256,
            unlogged_txn_reads: std::collections::HashSet::new(),
        }
    }
}

/// A runtime error (null dereference, bounds, division by zero, failed
/// assert, or a propagated thread failure).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trap {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trap: {}", self.message)
    }
}

impl std::error::Error for Trap {}

/// Result of a completed program run.
#[derive(Clone, Debug)]
pub struct VmResult {
    /// Values printed by `print`, in order.
    pub output: Vec<i64>,
    /// `main`'s return value (0 for void).
    pub ret: Word,
    /// Heap statistics at completion.
    pub stats: StatsSnapshot,
}

pub(crate) enum VmErr {
    Trap(String),
    Stm(Abort),
}

impl VmErr {
    pub(crate) fn trap(m: impl Into<String>) -> Self {
        VmErr::Trap(m.into())
    }
}

pub(crate) enum Flow {
    Normal,
    Return(Word),
}

pub(crate) type ThreadResult = Result<Word, String>;

/// The shared virtual machine. Create with [`Vm::new`], execute with
/// [`Vm::run`].
pub struct Vm {
    checked: Checked,
    heap: Arc<Heap>,
    /// One public single-field cell per static, so conflict detection (and
    /// the analyses) treat statics as distinct memory locations.
    statics: Vec<ObjRef>,
    shapes: HashMap<String, ShapeId>,
    table: BarrierTable,
    sync: SyncTable,
    threads: Mutex<Vec<Option<std::thread::JoinHandle<ThreadResult>>>>,
    output: Mutex<Vec<i64>>,
    validate_interval: u32,
    unlogged_txn_reads: std::collections::HashSet<SiteId>,
}

impl Vm {
    /// Builds a VM for a checked program.
    pub fn new(checked: Checked, config: VmConfig) -> Arc<Vm> {
        let heap = Heap::new(config.stm);
        let mut shapes = HashMap::new();
        for class in &checked.program.classes {
            let fields = class
                .fields
                .iter()
                .map(|f| {
                    let mut d = if f.ty.is_ref() {
                        FieldDef::reference(&f.name)
                    } else {
                        FieldDef::int(&f.name)
                    };
                    if f.is_final {
                        d = d.final_();
                    }
                    d
                })
                .collect();
            shapes.insert(class.name.clone(), heap.define_shape(Shape::new(&class.name, fields)));
        }
        // Statics are visible to every thread by construction: one public
        // single-field cell object per static.
        let statics = checked
            .program
            .statics
            .iter()
            .map(|s| {
                let field = if s.ty.is_ref() {
                    FieldDef::reference(&s.name)
                } else {
                    FieldDef::int(&s.name)
                };
                let shape =
                    heap.define_shape(Shape::new(&format!("$static${}", s.name), vec![field]));
                heap.alloc_public(shape)
            })
            .collect();
        let sync = SyncTable::for_heap(Arc::clone(&heap));
        Arc::new(Vm {
            checked,
            heap,
            statics,
            shapes,
            table: config.table,
            sync,
            threads: Mutex::new(Vec::new()),
            output: Mutex::new(Vec::new()),
            validate_interval: config.validate_interval.max(1),
            unlogged_txn_reads: config.unlogged_txn_reads,
        })
    }

    /// The underlying heap (for assertions in tests and experiments).
    pub fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    /// The static cells, in declaration order — the GC roots for
    /// [`crate::vm::heap_dump`].
    pub fn statics(&self) -> &[ObjRef] {
        &self.statics
    }

    /// Runs `init` (if declared) then `main`, joins any threads the program
    /// left running, and returns the collected output.
    ///
    /// # Errors
    /// Returns a [`Trap`] if any thread trapped.
    pub fn run(self: &Arc<Self>) -> Result<VmResult, Trap> {
        let mut interp = Interp { vm: Arc::clone(self), steps: 0 };
        if self.checked.program.func("init").is_some() {
            interp
                .call("init", Vec::new(), &mut None)
                .map_err(into_trap)?;
        }
        let ret = interp
            .call("main", Vec::new(), &mut None)
            .map_err(into_trap)?;
        // Join stragglers so their effects (and failures) are observed.
        loop {
            let next = {
                let mut table = self.threads.lock();
                table.iter_mut().find_map(|h| h.take())
            };
            match next {
                Some(h) => match h.join() {
                    Ok(Ok(_)) => {}
                    Ok(Err(m)) => return Err(Trap { message: m }),
                    Err(_) => {
                        return Err(Trap { message: "thread panicked".to_string() })
                    }
                },
                None => break,
            }
        }
        Ok(VmResult {
            output: self.output.lock().clone(),
            ret,
            stats: self.heap.stats().snapshot(),
        })
    }

    fn thread_main(self: Arc<Self>, func: String, args: Vec<Word>) -> ThreadResult {
        let mut interp = Interp { vm: Arc::clone(&self), steps: 0 };
        match interp.call(&func, args, &mut None) {
            Ok(w) => Ok(w),
            Err(VmErr::Trap(m)) => Err(m),
            Err(VmErr::Stm(_)) => Err("transaction control escaped a thread".to_string()),
        }
    }

    fn field_index(&self, r: ObjRef, field: &str) -> Result<usize, VmErr> {
        match self.heap.kind(r) {
            Kind::Object(sid) => self
                .heap
                .shape(sid)
                .field_index(field)
                .ok_or_else(|| VmErr::trap(format!("object has no field `{field}`"))),
            _ => Err(VmErr::trap(format!("field `{field}` access on array"))),
        }
    }
}

pub(crate) fn into_trap(e: VmErr) -> Trap {
    match e {
        VmErr::Trap(message) => Trap { message },
        VmErr::Stm(a) => Trap { message: format!("transaction control escaped: {a}") },
    }
}

type Tx<'a, 'h> = Option<&'a mut Txn<'h>>;

struct Interp {
    vm: Arc<Vm>,
    steps: u32,
}

impl Interp {
    fn step(&mut self, tx: &mut Tx<'_, '_>) -> Result<(), VmErr> {
        self.steps = self.steps.wrapping_add(1);
        if let Some(t) = tx {
            if self.steps.is_multiple_of(self.vm.validate_interval) {
                t.validate().map_err(VmErr::Stm)?;
            }
        }
        Ok(())
    }

    fn call(&mut self, func: &str, args: Vec<Word>, tx: &mut Tx<'_, '_>) -> Result<Word, VmErr> {
        let vm = Arc::clone(&self.vm);
        let decl = vm
            .checked
            .program
            .func(func)
            .ok_or_else(|| VmErr::trap(format!("unknown function `{func}`")))?;
        let meta = &vm.checked.funcs[func];
        let mut locals = vec![0u64; meta.slots.len()];
        locals[..args.len()].copy_from_slice(&args);
        match self.exec_block(&decl.body, meta, &mut locals, tx)? {
            Flow::Return(w) => Ok(w),
            Flow::Normal => Ok(0),
        }
    }

    fn exec_block(
        &mut self,
        body: &[Stmt],
        meta: &FuncMeta,
        locals: &mut Vec<Word>,
        tx: &mut Tx<'_, '_>,
    ) -> Result<Flow, VmErr> {
        for stmt in body {
            if let Flow::Return(w) = self.exec_stmt(stmt, meta, locals, tx)? {
                return Ok(Flow::Return(w));
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        meta: &FuncMeta,
        locals: &mut Vec<Word>,
        tx: &mut Tx<'_, '_>,
    ) -> Result<Flow, VmErr> {
        self.step(tx)?;
        match stmt {
            Stmt::Let { name, init, .. } => {
                let v = self.eval(init, meta, locals, tx)?;
                locals[meta.slot_of[name]] = v;
                Ok(Flow::Normal)
            }
            Stmt::Assign { place, value } => {
                let v = self.eval(value, meta, locals, tx)?;
                self.assign(place, v, meta, locals, tx)?;
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e, meta, locals, tx)?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then_body, else_body } => {
                if self.eval(cond, meta, locals, tx)? != 0 {
                    self.exec_block(then_body, meta, locals, tx)
                } else {
                    self.exec_block(else_body, meta, locals, tx)
                }
            }
            Stmt::While { cond, body } => {
                while self.eval(cond, meta, locals, tx)? != 0 {
                    if let Flow::Return(w) = self.exec_block(body, meta, locals, tx)? {
                        return Ok(Flow::Return(w));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Atomic { body } => self.exec_atomic(body, meta, locals, tx),
            Stmt::Retry => match tx {
                Some(t) => Err(VmErr::Stm(t.retry::<()>().unwrap_err())),
                None => Err(VmErr::trap("retry outside a transaction")),
            },
            Stmt::Lock { obj, body } => {
                if tx.is_some() {
                    return Err(VmErr::trap("lock inside a transaction"));
                }
                let r = self.eval_ref(obj, meta, locals, tx)?;
                let _guard = self.vm.sync.lock(r);
                self.exec_block(body, meta, locals, tx)
            }
            Stmt::Return(e) => {
                let w = match e {
                    Some(e) => self.eval(e, meta, locals, tx)?,
                    None => 0,
                };
                Ok(Flow::Return(w))
            }
            Stmt::Print(e) => {
                let v = self.eval(e, meta, locals, tx)? as i64;
                self.vm.output.lock().push(v);
                Ok(Flow::Normal)
            }
            Stmt::Assert(e) => {
                if self.eval(e, meta, locals, tx)? == 0 {
                    return Err(VmErr::trap("assertion failed"));
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn exec_atomic(
        &mut self,
        body: &[Stmt],
        meta: &FuncMeta,
        locals: &mut Vec<Word>,
        tx: &mut Tx<'_, '_>,
    ) -> Result<Flow, VmErr> {
        if tx.is_some() {
            // Closed nesting by flattening.
            return self.exec_block(body, meta, locals, tx);
        }
        let snapshot = locals.clone();
        let heap = Arc::clone(&self.vm.heap);
        let mut trap_slot: Option<String> = None;
        let mut flow_slot: Option<Flow> = None;
        let committed = try_atomic(&heap, |t| {
            locals.clone_from(&snapshot);
            let mut inner: Tx<'_, '_> = Some(t);
            match self.exec_block(body, meta, locals, &mut inner) {
                Ok(flow) => {
                    flow_slot = Some(flow);
                    Ok(())
                }
                Err(VmErr::Stm(a)) => Err(a),
                Err(VmErr::Trap(m)) => {
                    // A doomed transaction may have read inconsistent data;
                    // retry instead of trapping if validation fails.
                    if let Some(t) = inner.as_mut() {
                        if t.validate().is_err() {
                            return Err(Abort::Conflict);
                        }
                    }
                    trap_slot = Some(m);
                    Err(Abort::Cancel)
                }
            }
        });
        match (committed, trap_slot) {
            (Some(()), _) => Ok(flow_slot.unwrap_or(Flow::Normal)),
            (None, Some(m)) => Err(VmErr::Trap(m)),
            (None, None) => Err(VmErr::trap("atomic block cancelled unexpectedly")),
        }
    }

    fn eval_ref(
        &mut self,
        e: &Expr,
        meta: &FuncMeta,
        locals: &mut Vec<Word>,
        tx: &mut Tx<'_, '_>,
    ) -> Result<ObjRef, VmErr> {
        ObjRef::from_word(self.eval(e, meta, locals, tx)?)
            .ok_or_else(|| VmErr::trap("null pointer dereference"))
    }

    fn heap_read(&mut self, tx: &mut Tx<'_, '_>, r: ObjRef, idx: usize, site: SiteId) -> Result<Word, VmErr> {
        if idx >= self.vm.heap.num_fields(r) {
            return Err(VmErr::trap(format!("index {idx} out of bounds")));
        }
        match tx {
            Some(t) => {
                if self.vm.unlogged_txn_reads.contains(&site) {
                    // §5.2: the analysis proved no transaction ever writes
                    // this data, so (under weak atomicity) the read needs no
                    // logging or validation.
                    return Ok(self.vm.heap.read_raw(r, idx));
                }
                t.read(r, idx).map_err(VmErr::Stm)
            }
            None => Ok(match self.vm.table.kind(site) {
                BarrierKind::None => self.vm.heap.read_raw(r, idx),
                _ => stm_core::barrier::read_barrier(&self.vm.heap, r, idx),
            }),
        }
    }

    fn heap_write(
        &mut self,
        tx: &mut Tx<'_, '_>,
        r: ObjRef,
        idx: usize,
        v: Word,
        site: SiteId,
    ) -> Result<(), VmErr> {
        if idx >= self.vm.heap.num_fields(r) {
            return Err(VmErr::trap(format!("index {idx} out of bounds")));
        }
        match tx {
            Some(t) => t.write(r, idx, v).map_err(VmErr::Stm),
            None => {
                match self.vm.table.kind(site) {
                    BarrierKind::Write => {
                        stm_core::barrier::write_barrier(&self.vm.heap, r, idx, v)
                    }
                    _ => {
                        // Weak (or barrier-removed) store; still publishes
                        // under DEA when storing a reference into a public
                        // object — publication is a correctness mechanism,
                        // not a barrier.
                        if self.vm.heap.config().dea
                            && !self.vm.heap.is_private(r)
                            && self.vm.heap.field_is_ref(r, idx)
                        {
                            dea::publish_word(&self.vm.heap, v);
                        }
                        self.vm.heap.write_raw(r, idx, v);
                    }
                }
                Ok(())
            }
        }
    }

    fn assign(
        &mut self,
        place: &Place,
        v: Word,
        meta: &FuncMeta,
        locals: &mut Vec<Word>,
        tx: &mut Tx<'_, '_>,
    ) -> Result<(), VmErr> {
        match place {
            Place::Local(name) => {
                locals[meta.slot_of[name]] = v;
                Ok(())
            }
            Place::Field { base, field, site } => {
                let r = self.eval_ref(base, meta, locals, tx)?;
                let idx = self.vm.field_index(r, field)?;
                self.heap_write(tx, r, idx, v, *site)
            }
            Place::Static { name, site } => {
                let idx = self
                    .vm
                    .checked
                    .program
                    .static_index(name)
                    .ok_or_else(|| VmErr::trap(format!("unknown static `{name}`")))?;
                self.heap_write(tx, self.vm.statics[idx], 0, v, *site)
            }
            Place::Index { base, index, site } => {
                let r = self.eval_ref(base, meta, locals, tx)?;
                let i = self.eval(index, meta, locals, tx)? as usize;
                self.heap_write(tx, r, i, v, *site)
            }
        }
    }

    fn eval(
        &mut self,
        e: &Expr,
        meta: &FuncMeta,
        locals: &mut Vec<Word>,
        tx: &mut Tx<'_, '_>,
    ) -> Result<Word, VmErr> {
        match e {
            Expr::Int(n) => Ok(*n as Word),
            Expr::Null => Ok(0),
            Expr::Local(name) => Ok(locals[meta.slot_of[name]]),
            Expr::Field { base, field, site } => {
                let r = self.eval_ref(base, meta, locals, tx)?;
                let idx = self.vm.field_index(r, field)?;
                self.heap_read(tx, r, idx, *site)
            }
            Expr::Static { name, site } => {
                let idx = self
                    .vm
                    .checked
                    .program
                    .static_index(name)
                    .ok_or_else(|| VmErr::trap(format!("unknown static `{name}`")))?;
                self.heap_read(tx, self.vm.statics[idx], 0, *site)
            }
            Expr::Index { base, index, site } => {
                let r = self.eval_ref(base, meta, locals, tx)?;
                let i = self.eval(index, meta, locals, tx)? as usize;
                self.heap_read(tx, r, i, *site)
            }
            Expr::New { class, .. } => {
                let shape = self.vm.shapes[class];
                Ok(self.vm.heap.alloc(shape).to_word())
            }
            Expr::NewArray { elem, len, .. } => {
                let n = self.eval(len, meta, locals, tx)? as usize;
                if n > (1 << 28) {
                    return Err(VmErr::trap("array too large"));
                }
                let r = if elem.is_ref() || matches!(**elem, Ty::Ref(_)) {
                    self.vm.heap.alloc_ref_array(n)
                } else {
                    self.vm.heap.alloc_int_array(n)
                };
                Ok(r.to_word())
            }
            Expr::Len(b) => {
                let r = self.eval_ref(b, meta, locals, tx)?;
                Ok(self.vm.heap.num_fields(r) as Word)
            }
            Expr::Bin { op, lhs, rhs } => {
                let l = self.eval(lhs, meta, locals, tx)?;
                // Short-circuit.
                match op {
                    BinOp::And if l == 0 => return Ok(0),
                    BinOp::Or if l != 0 => return Ok(1),
                    _ => {}
                }
                let r = self.eval(rhs, meta, locals, tx)?;
                bin_op(*op, l, r).map_err(VmErr::Trap)
            }
            Expr::Un { op, expr } => {
                let v = self.eval(expr, meta, locals, tx)? as i64;
                Ok(match op {
                    UnOp::Neg => (-v) as Word,
                    UnOp::Not => (v == 0) as Word,
                })
            }
            Expr::Call { func, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, meta, locals, tx)?);
                }
                self.call(func, vals, tx)
            }
            Expr::Spawn { func, args } => {
                if tx.is_some() {
                    return Err(VmErr::trap("spawn inside a transaction"));
                }
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, meta, locals, tx)?);
                }
                // Publish reference arguments before the thread exists
                // (paper §4).
                let decl = self
                    .vm
                    .checked
                    .program
                    .func(func)
                    .ok_or_else(|| VmErr::trap(format!("unknown function `{func}`")))?;
                let ref_roots: Vec<Word> = decl
                    .params
                    .iter()
                    .zip(&vals)
                    .filter(|((_, ty), _)| ty.is_ref())
                    .map(|(_, &w)| w)
                    .collect();
                dea::publish_for_spawn(&self.vm.heap, &ref_roots);
                let vm = Arc::clone(&self.vm);
                let fname = func.clone();
                let handle = std::thread::spawn(move || vm.thread_main(fname, vals));
                let mut table = self.vm.threads.lock();
                table.push(Some(handle));
                Ok(table.len() as Word) // ids are 1-based; 0 stays "null"
            }
            Expr::Join(b) => {
                if tx.is_some() {
                    return Err(VmErr::trap("join inside a transaction"));
                }
                let id = self.eval(b, meta, locals, tx)? as usize;
                let handle = {
                    let mut table = self.vm.threads.lock();
                    if id == 0 || id > table.len() {
                        return Err(VmErr::trap("join of invalid thread handle"));
                    }
                    table[id - 1].take()
                };
                match handle {
                    Some(h) => match h.join() {
                        Ok(Ok(w)) => Ok(w),
                        Ok(Err(m)) => Err(VmErr::Trap(m)),
                        Err(_) => Err(VmErr::trap("thread panicked")),
                    },
                    None => Err(VmErr::trap("thread joined twice")),
                }
            }
        }
    }
}

pub(crate) fn bin_op(op: BinOp, l: Word, r: Word) -> Result<Word, String> {
    let (a, b) = (l as i64, r as i64);
    Ok(match op {
        BinOp::Add => a.wrapping_add(b) as Word,
        BinOp::Sub => a.wrapping_sub(b) as Word,
        BinOp::Mul => a.wrapping_mul(b) as Word,
        BinOp::Div => {
            if b == 0 {
                return Err("division by zero".to_string());
            }
            a.wrapping_div(b) as Word
        }
        BinOp::Rem => {
            if b == 0 {
                return Err("remainder by zero".to_string());
            }
            a.wrapping_rem(b) as Word
        }
        BinOp::Lt => (a < b) as Word,
        BinOp::Le => (a <= b) as Word,
        BinOp::Gt => (a > b) as Word,
        BinOp::Ge => (a >= b) as Word,
        BinOp::Eq => (l == r) as Word,
        BinOp::Ne => (l != r) as Word,
        BinOp::And => ((a != 0) && (b != 0)) as Word,
        BinOp::Or => ((a != 0) || (b != 0)) as Word,
        BinOp::BitXor => l ^ r,
        BinOp::Shl => l << (r & 63),
        BinOp::Shr => l >> (r & 63),
    })
}

/// Convenience: parse, check, and run a TMIR program.
///
/// # Errors
/// Returns the first parse/type/runtime failure as a string.
pub fn run_source(src: &str, config: VmConfig) -> Result<VmResult, String> {
    let program = crate::parse::parse(src).map_err(|e| e.to_string())?;
    let checked = crate::types::check(program).map_err(|e| e.to_string())?;
    Vm::new(checked, config).run().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::config::BarrierMode;

    fn run(src: &str) -> VmResult {
        run_source(src, VmConfig::default()).unwrap()
    }

    fn run_strong(src: &str) -> VmResult {
        let program = crate::parse::parse(src).unwrap();
        let checked = crate::types::check(program).unwrap();
        let table = BarrierTable::strong(&checked.program);
        let config = VmConfig { table, ..VmConfig::default() };
        Vm::new(checked, config).run().unwrap()
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let r = run(
            "fn fib(n: int) -> int {\n\
               if (n < 2) { return n; }\n\
               return fib(n - 1) + fib(n - 2);\n\
             }\n\
             fn main() { print fib(10); }",
        );
        assert_eq!(r.output, vec![55]);
    }

    #[test]
    fn objects_and_fields() {
        let r = run(
            "class P { x: int, y: int }\n\
             fn main() {\n\
               let p: ref P = new P;\n\
               p.x = 3; p.y = 4;\n\
               print p.x * p.x + p.y * p.y;\n\
             }",
        );
        assert_eq!(r.output, vec![25]);
    }

    #[test]
    fn statics_and_arrays() {
        let r = run(
            "static total: int;\n\
             fn main() {\n\
               let a: array int = new_array<int>(5);\n\
               let i: int = 0;\n\
               while (i < len(a)) { a[i] = i * i; i = i + 1; }\n\
               i = 0;\n\
               while (i < 5) { total = total + a[i]; i = i + 1; }\n\
               print total;\n\
             }",
        );
        assert_eq!(r.output, vec![30]);
    }

    #[test]
    fn linked_list_via_statics() {
        let r = run(
            "class Node { val: int, next: ref Node }\n\
             static head: ref Node;\n\
             fn push(v: int) {\n\
               let n: ref Node = new Node;\n\
               n.val = v; n.next = head; head = n;\n\
             }\n\
             fn main() {\n\
               push(1); push(2); push(3);\n\
               let sum: int = 0;\n\
               let cur: ref Node = head;\n\
               while (cur != null) { sum = sum + cur.val; cur = cur.next; }\n\
               print sum;\n\
             }",
        );
        assert_eq!(r.output, vec![6]);
    }

    #[test]
    fn atomic_blocks_commit() {
        let r = run(
            "static x: int;\n\
             fn main() { atomic { x = x + 1; x = x + 1; } print x; }",
        );
        assert_eq!(r.output, vec![2]);
        assert_eq!(r.stats.commits, 1);
    }

    #[test]
    fn threads_and_transactions_race_free() {
        let r = run(
            "static counter: int;\n\
             fn worker(n: int) -> int {\n\
               let i: int = 0;\n\
               while (i < n) { atomic { counter = counter + 1; } i = i + 1; }\n\
               return 0;\n\
             }\n\
             fn main() {\n\
               let t1: thread = spawn worker(200);\n\
               let t2: thread = spawn worker(200);\n\
               let a: int = join t1;\n\
               let b: int = join t2;\n\
               print counter;\n\
             }",
        );
        assert_eq!(r.output, vec![400]);
    }

    #[test]
    fn locks_work() {
        let r = run(
            "class Cell { v: int }\n\
             static c: ref Cell;\n\
             fn worker(n: int) -> int {\n\
               let i: int = 0;\n\
               while (i < n) { lock (c) { c.v = c.v + 1; } i = i + 1; }\n\
               return 0;\n\
             }\n\
             fn main() {\n\
               c = new Cell;\n\
               let t1: thread = spawn worker(150);\n\
               let t2: thread = spawn worker(150);\n\
               let a: int = join t1;\n\
               let b: int = join t2;\n\
               print c.v;\n\
             }",
        );
        assert_eq!(r.output, vec![300]);
    }

    #[test]
    fn retry_waits_for_producer() {
        let r = run(
            "static flag: int;\n\
             static data: int;\n\
             fn consumer() -> int {\n\
               let v: int = 0;\n\
               atomic {\n\
                 if (flag == 0) { retry; }\n\
                 v = data;\n\
               }\n\
               return v;\n\
             }\n\
             fn main() {\n\
               let t: thread = spawn consumer();\n\
               atomic { data = 99; flag = 1; }\n\
               print join t;\n\
             }",
        );
        assert_eq!(r.output, vec![99]);
    }

    #[test]
    fn strong_atomicity_runs_barriers() {
        let r = run_strong(
            "class C { x: int }\n\
             fn main() {\n\
               let c: ref C = new C;\n\
               c.x = 5;\n\
               print c.x;\n\
             }",
        );
        assert_eq!(r.output, vec![5]);
        assert_eq!(r.stats.write_barriers, 1);
        assert_eq!(r.stats.read_barriers, 1);
    }

    #[test]
    fn traps_on_null_deref() {
        let e = run_source(
            "class C { x: int }\n\
             fn main() { let c: ref C = null; print c.x; }",
            VmConfig::default(),
        )
        .unwrap_err();
        assert!(e.contains("null pointer"), "{e}");
    }

    #[test]
    fn traps_on_assert_failure() {
        let e = run_source("fn main() { assert 0; }", VmConfig::default()).unwrap_err();
        assert!(e.contains("assertion"), "{e}");
    }

    #[test]
    fn traps_on_division_by_zero() {
        let e =
            run_source("fn main() { let z: int = 0; print 1 / z; }", VmConfig::default())
                .unwrap_err();
        assert!(e.contains("division"), "{e}");
    }

    #[test]
    fn child_thread_trap_propagates() {
        let e = run_source(
            "fn bad() -> int { assert 0; return 0; }\n\
             fn main() { let t: thread = spawn bad(); print join t; }",
            VmConfig::default(),
        )
        .unwrap_err();
        assert!(e.contains("assertion"), "{e}");
    }

    #[test]
    fn nested_atomic_flattens() {
        let r = run(
            "static x: int;\n\
             fn bump() { atomic { x = x + 1; } }\n\
             fn main() { atomic { bump(); x = x + 1; } print x; }",
        );
        assert_eq!(r.output, vec![2]);
        assert_eq!(r.stats.commits, 1, "inner atomic flattened into outer");
    }

    #[test]
    fn init_runs_before_main() {
        let r = run(
            "static x: int;\n\
             fn init() { x = 7; }\n\
             fn main() { print x; }",
        );
        assert_eq!(r.output, vec![7]);
    }

    #[test]
    fn dea_vm_keeps_unshared_objects_private() {
        let program = crate::parse::parse(
            "class C { x: int }\n\
             static shared: ref C;\n\
             fn main() {\n\
               let mine: ref C = new C;\n\
               mine.x = 1;\n\
               let escaped: ref C = new C;\n\
               shared = escaped;\n\
             }",
        )
        .unwrap();
        let checked = crate::types::check(program).unwrap();
        let table = BarrierTable::strong(&checked.program);
        let config = VmConfig {
            stm: StmConfig { dea: true, ..StmConfig::default() },
            table,
            ..VmConfig::default()
        };
        let vm = Vm::new(checked, config);
        let r = vm.run().unwrap();
        assert!(r.stats.private_fast_paths > 0, "private object used fast path");
        assert_eq!(r.stats.publishes, 1, "only the escaping object published");
    }

    #[test]
    fn weak_vs_strong_barrier_counts() {
        let src = "class C { x: int }\n\
                   fn main() {\n\
                     let c: ref C = new C;\n\
                     let i: int = 0;\n\
                     while (i < 10) { c.x = c.x + 1; i = i + 1; }\n\
                     print c.x;\n\
                   }";
        let weak = run(src);
        assert_eq!(weak.stats.read_barriers + weak.stats.write_barriers, 0);
        let strong = run_strong(src);
        assert_eq!(strong.stats.read_barriers, 11, "10 loop loads + final print");
        assert_eq!(strong.stats.write_barriers, 10);
        assert_eq!(weak.output, strong.output);
    }

    // Silence the unused-import warning for BarrierMode if feature sets shift.
    #[allow(dead_code)]
    fn _unused(_: BarrierMode) {}
}
