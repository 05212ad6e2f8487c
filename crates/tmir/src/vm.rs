//! The bytecode dispatch-loop VM.
//!
//! Executes a [`CompiledProgram`] with *identical observable semantics* to
//! the tree-walking interpreter ([`crate::interp::Vm`]) — same outputs,
//! same committed heap state, same traps in the same order — but over a
//! flat instruction stream with compile-time-resolved field indices and
//! baked-in barrier decisions. The tree-walker remains the reference
//! semantics; `tests/vm_equiv.rs` holds this VM to it differentially.
//!
//! Transactional execution mirrors the interpreter: nested `atomic` flattens,
//! locals (and the operand stack) restore from a snapshot on conflict,
//! traps inside a doomed transaction revalidate before propagating, and the
//! transaction revalidates every `validate_interval` instructions.
//!
//! The VM additionally keeps per-site *dynamic* barrier statistics —
//! executed, elided, aggregated — so the bytecode passes' effect is
//! measurable at runtime, not just as static opcode counts.

use crate::ast::SiteId;
use crate::bytecode::{BarrierOp, CompiledFunc, CompiledProgram, Insn};
use crate::interp::{into_trap, Flow, ThreadResult, Trap, VmErr, VmResult};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stm_core::config::StmConfig;
use stm_core::dea;
use stm_core::heap::{FieldDef, Heap, Kind, ObjRef, Shape, ShapeId, Word};
use stm_core::locks::SyncTable;
use stm_core::txn::{try_atomic, Abort, Txn};

/// Bytecode VM configuration. The barrier table is *not* here — it was
/// baked into the instruction stream by [`crate::compile::compile`].
#[derive(Clone, Debug)]
pub struct BcVmConfig {
    /// STM configuration for the heap.
    pub stm: StmConfig,
    /// Instructions between in-transaction revalidations.
    pub validate_interval: u32,
    /// In-transaction load sites whose open-for-read barrier is removed
    /// (§5.2; see [`crate::interp::VmConfig::unlogged_txn_reads`]).
    pub unlogged_txn_reads: HashSet<SiteId>,
}

impl Default for BcVmConfig {
    fn default() -> Self {
        BcVmConfig {
            stm: StmConfig::default(),
            validate_interval: 256,
            unlogged_txn_reads: HashSet::new(),
        }
    }
}

/// Per-site dynamic barrier counters (lock-free; shared by all VM threads).
struct BarrierCounters {
    executed: Vec<AtomicU64>,
    elided: Vec<AtomicU64>,
    aggregated: Vec<AtomicU64>,
    regions: AtomicU64,
}

impl BarrierCounters {
    fn new(num_sites: u32) -> Self {
        let make = || (0..num_sites).map(|_| AtomicU64::new(0)).collect();
        BarrierCounters {
            executed: make(),
            elided: make(),
            aggregated: make(),
            regions: AtomicU64::new(0),
        }
    }

}

/// Bumps a per-thread counter slot (bounds-guarded; sites are dense).
#[inline]
fn bump(v: &mut [u64], site: SiteId) {
    if let Some(c) = v.get_mut(site.0 as usize) {
        *c += 1;
    }
}

/// Snapshot of the VM's dynamic barrier statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BarrierStats {
    /// Non-transactional isolation barriers actually executed.
    pub executed: u64,
    /// Accesses whose barrier a pass elided (ran raw instead).
    pub elided: u64,
    /// Accesses served from inside an aggregated region.
    pub aggregated: u64,
    /// Aggregated regions entered (one record acquire each).
    pub regions: u64,
    /// Per-site rows `(site, executed, elided, aggregated)`, non-zero only.
    pub per_site: Vec<(SiteId, u64, u64, u64)>,
}

/// The shared bytecode VM. Create with [`BytecodeVm::new`], execute with
/// [`BytecodeVm::run`].
pub struct BytecodeVm {
    compiled: Arc<CompiledProgram>,
    heap: Arc<Heap>,
    /// Shapes by class declaration index (matching `Insn::New`).
    class_shapes: Vec<ShapeId>,
    /// One public single-field cell per static, as in the interpreter.
    statics: Vec<ObjRef>,
    sync: SyncTable,
    threads: Mutex<Vec<Option<std::thread::JoinHandle<ThreadResult>>>>,
    output: Mutex<Vec<i64>>,
    validate_interval: u32,
    unlogged_txn_reads: HashSet<SiteId>,
    counters: BarrierCounters,
}

impl BytecodeVm {
    /// Builds a VM for a compiled program. Shapes and static cells are
    /// defined in the same order as the interpreter so the two engines
    /// produce bit-identical [`heap_dump`] fingerprints.
    pub fn new(compiled: CompiledProgram, config: BcVmConfig) -> Arc<BytecodeVm> {
        let heap = Heap::new(config.stm);
        let class_shapes = compiled
            .program
            .classes
            .iter()
            .map(|class| {
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
                heap.define_shape(Shape::new(&class.name, fields))
            })
            .collect();
        let statics = compiled
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
        let counters = BarrierCounters::new(compiled.num_sites);
        Arc::new(BytecodeVm {
            compiled: Arc::new(compiled),
            heap,
            class_shapes,
            statics,
            sync,
            threads: Mutex::new(Vec::new()),
            output: Mutex::new(Vec::new()),
            validate_interval: config.validate_interval.max(1),
            unlogged_txn_reads: config.unlogged_txn_reads,
            counters,
        })
    }

    /// The underlying heap.
    pub fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    /// The static cells, in declaration order.
    pub fn statics(&self) -> &[ObjRef] {
        &self.statics
    }

    /// The compiled program this VM executes.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// Snapshot of the dynamic barrier statistics.
    pub fn barrier_stats(&self) -> BarrierStats {
        let mut s = BarrierStats { regions: self.counters.regions.load(Ordering::Relaxed), ..Default::default() };
        for i in 0..self.counters.executed.len() {
            let e = self.counters.executed[i].load(Ordering::Relaxed);
            let l = self.counters.elided[i].load(Ordering::Relaxed);
            let a = self.counters.aggregated[i].load(Ordering::Relaxed);
            s.executed += e;
            s.elided += l;
            s.aggregated += a;
            if e + l + a > 0 {
                s.per_site.push((SiteId(i as u32), e, l, a));
            }
        }
        s
    }

    /// Runs `init` (if declared) then `main`, joins stragglers, and returns
    /// the collected output.
    ///
    /// # Errors
    /// Returns a [`Trap`] if any thread trapped.
    pub fn run(self: &Arc<Self>) -> Result<VmResult, Trap> {
        let mut exec = Exec::new(Arc::clone(self));
        if let Some(&fi) = self.compiled.func_index.get("init") {
            exec.call_func(fi, &[], &mut None).map_err(into_trap)?;
        }
        let main = *self
            .compiled
            .func_index
            .get("main")
            .ok_or_else(|| Trap { message: "unknown function `main`".to_string() })?;
        let ret = exec.call_func(main, &[], &mut None).map_err(into_trap)?;
        loop {
            let next = {
                let mut table = self.threads.lock();
                table.iter_mut().find_map(|h| h.take())
            };
            match next {
                Some(h) => match h.join() {
                    Ok(Ok(_)) => {}
                    Ok(Err(m)) => return Err(Trap { message: m }),
                    Err(_) => return Err(Trap { message: "thread panicked".to_string() }),
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

    fn thread_main(self: Arc<Self>, func: usize, args: Vec<Word>) -> ThreadResult {
        let mut exec = Exec::new(Arc::clone(&self));
        match exec.call_func(func, &args, &mut None) {
            Ok(w) => Ok(w),
            Err(VmErr::Trap(m)) => Err(m),
            Err(VmErr::Stm(_)) => Err("transaction control escaped a thread".to_string()),
        }
    }
}

type Tx<'a, 'h> = Option<&'a mut Txn<'h>>;
type Agg<'a, 'h> = Option<&'a mut stm_core::barrier::OwnedObj<'h>>;

struct Frame {
    locals: Vec<Word>,
    stack: Vec<Word>,
}

/// Per-thread counter deltas. Bumping a shared atomic on every heap access
/// would cost the VM one RMW per barrier; instead each executor counts
/// locally and flushes into [`BarrierCounters`] once, when it drops.
struct LocalCounters {
    executed: Vec<u64>,
    elided: Vec<u64>,
    aggregated: Vec<u64>,
    regions: u64,
}

struct Exec {
    vm: Arc<BytecodeVm>,
    steps: u32,
    counts: LocalCounters,
}

impl Drop for Exec {
    fn drop(&mut self) {
        let shared = &self.vm.counters;
        shared.regions.fetch_add(self.counts.regions, Ordering::Relaxed);
        for (local, atomic) in [
            (&self.counts.executed, &shared.executed),
            (&self.counts.elided, &shared.elided),
            (&self.counts.aggregated, &shared.aggregated),
        ] {
            for (i, &v) in local.iter().enumerate() {
                if v > 0 {
                    atomic[i].fetch_add(v, Ordering::Relaxed);
                }
            }
        }
    }
}

impl Exec {
    fn new(vm: Arc<BytecodeVm>) -> Exec {
        let n = vm.compiled.num_sites as usize;
        Exec {
            steps: 0,
            counts: LocalCounters {
                executed: vec![0; n],
                elided: vec![0; n],
                aggregated: vec![0; n],
                regions: 0,
            },
            vm,
        }
    }

    #[inline]
    fn step(&mut self, tx: &mut Tx<'_, '_>) -> Result<(), VmErr> {
        // Countdown instead of `steps % interval` — a modulo by a runtime
        // divisor on every dispatched instruction dominates the loop.
        self.steps += 1;
        if self.steps >= self.vm.validate_interval {
            self.steps = 0;
            if let Some(t) = tx {
                t.validate().map_err(VmErr::Stm)?;
            }
        }
        Ok(())
    }

    fn call_func(&mut self, fi: usize, args: &[Word], tx: &mut Tx<'_, '_>) -> Result<Word, VmErr> {
        let compiled = Arc::clone(&self.vm.compiled);
        let func = &compiled.funcs[fi];
        let mut frame = Frame {
            locals: vec![0u64; func.num_slots as usize],
            stack: Vec::with_capacity(8),
        };
        frame.locals[..args.len()].copy_from_slice(args);
        match self.run_range(func, &mut frame, 0, func.code.len(), tx, &mut None)? {
            Flow::Return(w) => Ok(w),
            Flow::Normal => Ok(0),
        }
    }

    #[inline]
    fn pop(frame: &mut Frame) -> Result<Word, VmErr> {
        frame.stack.pop().ok_or_else(|| VmErr::trap("operand stack underflow"))
    }

    /// Transactional heap read (with the §5.2 unlogged-site carve-out).
    #[inline]
    fn txn_read(&self, t: &mut Txn<'_>, r: ObjRef, idx: usize, site: SiteId) -> Result<Word, VmErr> {
        if self.vm.unlogged_txn_reads.contains(&site) {
            return Ok(self.vm.heap.read_raw(r, idx));
        }
        t.read(r, idx).map_err(VmErr::Stm)
    }

    /// Non-transactional heap read, dispatched by the baked-in barrier op.
    #[inline]
    fn plain_read(&mut self, r: ObjRef, idx: usize, site: SiteId, barrier: BarrierOp) -> Word {
        match barrier {
            BarrierOp::Read => {
                bump(&mut self.counts.executed, site);
                stm_core::barrier::read_barrier(&self.vm.heap, r, idx)
            }
            BarrierOp::ElidedRead => {
                bump(&mut self.counts.elided, site);
                self.vm.heap.read_raw(r, idx)
            }
            _ => self.vm.heap.read_raw(r, idx),
        }
    }

    /// Non-transactional heap write, dispatched by the baked-in barrier op.
    #[inline]
    fn plain_write(&mut self, r: ObjRef, idx: usize, v: Word, site: SiteId, barrier: BarrierOp) {
        match barrier {
            BarrierOp::Write => {
                bump(&mut self.counts.executed, site);
                stm_core::barrier::write_barrier(&self.vm.heap, r, idx, v);
            }
            other => {
                if other == BarrierOp::ElidedWrite {
                    bump(&mut self.counts.elided, site);
                }
                // Weak (or barrier-removed) store; still publishes under DEA
                // when storing a reference into a public object.
                if self.vm.heap.config().dea
                    && !self.vm.heap.is_private(r)
                    && self.vm.heap.field_is_ref(r, idx)
                {
                    dea::publish_word(&self.vm.heap, v);
                }
                self.vm.heap.write_raw(r, idx, v);
            }
        }
    }

    fn read_at(
        &mut self,
        r: ObjRef,
        idx: usize,
        site: SiteId,
        barrier: BarrierOp,
        tx: &mut Tx<'_, '_>,
        agg: &mut Agg<'_, '_>,
    ) -> Result<Word, VmErr> {
        if barrier == BarrierOp::AggRead {
            if let Some(t) = tx {
                return self.txn_read(t, r, idx, site);
            }
            if let Some(owned) = agg {
                if r != owned.obj_ref() {
                    return Err(VmErr::trap("aggregated region touched a foreign object"));
                }
                bump(&mut self.counts.aggregated, site);
                return Ok(owned.get(idx));
            }
            return Err(VmErr::trap("aggregated access outside its region"));
        }
        match tx {
            Some(t) => self.txn_read(t, r, idx, site),
            None => Ok(self.plain_read(r, idx, site, barrier)),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn write_at(
        &mut self,
        r: ObjRef,
        idx: usize,
        v: Word,
        site: SiteId,
        barrier: BarrierOp,
        tx: &mut Tx<'_, '_>,
        agg: &mut Agg<'_, '_>,
    ) -> Result<(), VmErr> {
        if barrier == BarrierOp::AggWrite {
            if let Some(t) = tx {
                return t.write(r, idx, v).map_err(VmErr::Stm);
            }
            if let Some(owned) = agg {
                if r != owned.obj_ref() {
                    return Err(VmErr::trap("aggregated region touched a foreign object"));
                }
                bump(&mut self.counts.aggregated, site);
                owned.set(idx, v);
                return Ok(());
            }
            return Err(VmErr::trap("aggregated access outside its region"));
        }
        match tx {
            Some(t) => t.write(r, idx, v).map_err(VmErr::Stm),
            None => {
                self.plain_write(r, idx, v, site, barrier);
                Ok(())
            }
        }
    }

    /// Executes `code[start..end)`; `end` is a region boundary or the
    /// function end. All structured jumps stay inside `[start, end)`.
    #[allow(clippy::too_many_lines)]
    fn run_range(
        &mut self,
        func: &CompiledFunc,
        frame: &mut Frame,
        start: usize,
        end: usize,
        tx: &mut Tx<'_, '_>,
        agg: &mut Agg<'_, '_>,
    ) -> Result<Flow, VmErr> {
        let code = &func.code;
        let mut ip = start;
        // The revalidation countdown only matters inside a transaction;
        // skipping it entirely keeps the non-transactional dispatch tight.
        let in_txn = tx.is_some();
        while ip < end {
            if in_txn {
                self.step(tx)?;
            }
            match &code[ip] {
                Insn::Const(n) => frame.stack.push(*n as Word),
                Insn::Load(s) => frame.stack.push(frame.locals[*s as usize]),
                Insn::Store(s) => {
                    let v = Self::pop(frame)?;
                    frame.locals[*s as usize] = v;
                }
                Insn::Pop => {
                    Self::pop(frame)?;
                }
                Insn::NullCheck => {
                    let w = *frame
                        .stack
                        .last()
                        .ok_or_else(|| VmErr::trap("operand stack underflow"))?;
                    if ObjRef::from_word(w).is_none() {
                        return Err(VmErr::trap("null pointer dereference"));
                    }
                }
                Insn::Jump(t) => {
                    ip = *t as usize;
                    continue;
                }
                Insn::JumpIfZero(t) => {
                    if Self::pop(frame)? == 0 {
                        ip = *t as usize;
                        continue;
                    }
                }
                Insn::JumpIfNonZero(t) => {
                    if Self::pop(frame)? != 0 {
                        ip = *t as usize;
                        continue;
                    }
                }
                Insn::Bin(op) => {
                    let r = Self::pop(frame)?;
                    let l = Self::pop(frame)?;
                    frame.stack.push(crate::interp::bin_op(*op, l, r).map_err(VmErr::Trap)?);
                }
                Insn::Un(op) => {
                    let v = Self::pop(frame)? as i64;
                    frame.stack.push(match op {
                        crate::ast::UnOp::Neg => (-v) as Word,
                        crate::ast::UnOp::Not => (v == 0) as Word,
                    });
                }
                Insn::GetField { fidx, site, barrier, .. } => {
                    let r = ObjRef::from_word(Self::pop(frame)?)
                        .ok_or_else(|| VmErr::trap("null pointer dereference"))?;
                    let v = self.read_at(r, *fidx as usize, *site, *barrier, tx, agg)?;
                    frame.stack.push(v);
                }
                Insn::PutField { fidx, site, barrier, .. } => {
                    let r = ObjRef::from_word(Self::pop(frame)?)
                        .ok_or_else(|| VmErr::trap("null pointer dereference"))?;
                    let v = Self::pop(frame)?;
                    self.write_at(r, *fidx as usize, v, *site, *barrier, tx, agg)?;
                }
                Insn::GetStatic { sidx, site, barrier } => {
                    let r = self.vm.statics[*sidx as usize];
                    let v = self.read_at(r, 0, *site, *barrier, tx, agg)?;
                    frame.stack.push(v);
                }
                Insn::PutStatic { sidx, site, barrier } => {
                    let r = self.vm.statics[*sidx as usize];
                    let v = Self::pop(frame)?;
                    self.write_at(r, 0, v, *site, *barrier, tx, agg)?;
                }
                Insn::GetIndex { site, barrier, .. } => {
                    let i = Self::pop(frame)? as usize;
                    let r = ObjRef::from_word(Self::pop(frame)?)
                        .ok_or_else(|| VmErr::trap("null pointer dereference"))?;
                    if i >= self.vm.heap.num_fields(r) {
                        return Err(VmErr::trap(format!("index {i} out of bounds")));
                    }
                    let v = self.read_at(r, i, *site, *barrier, tx, agg)?;
                    frame.stack.push(v);
                }
                Insn::PutIndex { site, barrier, .. } => {
                    let i = Self::pop(frame)? as usize;
                    let r = ObjRef::from_word(Self::pop(frame)?)
                        .ok_or_else(|| VmErr::trap("null pointer dereference"))?;
                    let v = Self::pop(frame)?;
                    if i >= self.vm.heap.num_fields(r) {
                        return Err(VmErr::trap(format!("index {i} out of bounds")));
                    }
                    self.write_at(r, i, v, *site, *barrier, tx, agg)?;
                }
                Insn::New { class } => {
                    let shape = self.vm.class_shapes[*class as usize];
                    frame.stack.push(self.vm.heap.alloc(shape).to_word());
                }
                Insn::NewIntArray | Insn::NewRefArray => {
                    let n = Self::pop(frame)? as usize;
                    if n > (1 << 28) {
                        return Err(VmErr::trap("array too large"));
                    }
                    let r = if matches!(code[ip], Insn::NewRefArray) {
                        self.vm.heap.alloc_ref_array(n)
                    } else {
                        self.vm.heap.alloc_int_array(n)
                    };
                    frame.stack.push(r.to_word());
                }
                Insn::Len => {
                    let r = ObjRef::from_word(Self::pop(frame)?)
                        .ok_or_else(|| VmErr::trap("null pointer dereference"))?;
                    frame.stack.push(self.vm.heap.num_fields(r) as Word);
                }
                Insn::Call { func: fi } => {
                    // Arguments were pushed left-to-right, so the top `n`
                    // stack words are already the callee's leading locals —
                    // pass them in place, no per-call argument buffer.
                    let n = self.vm.compiled.funcs[*fi as usize].num_params as usize;
                    let split = frame
                        .stack
                        .len()
                        .checked_sub(n)
                        .ok_or_else(|| VmErr::trap("operand stack underflow"))?;
                    let w = self.call_func(*fi as usize, &frame.stack[split..], tx)?;
                    frame.stack.truncate(split);
                    frame.stack.push(w);
                }
                Insn::Spawn { func: fi } => {
                    if tx.is_some() {
                        return Err(VmErr::trap("spawn inside a transaction"));
                    }
                    let compiled = Arc::clone(&self.vm.compiled);
                    let callee = &compiled.funcs[*fi as usize];
                    let n = callee.num_params as usize;
                    let mut args = vec![0u64; n];
                    for a in args.iter_mut().rev() {
                        *a = Self::pop(frame)?;
                    }
                    // Publish reference arguments before the thread exists
                    // (paper §4).
                    let ref_roots: Vec<Word> = args
                        .iter()
                        .zip(&callee.param_ref_mask)
                        .filter(|(_, is_ref)| **is_ref)
                        .map(|(&w, _)| w)
                        .collect();
                    dea::publish_for_spawn(&self.vm.heap, &ref_roots);
                    let vm = Arc::clone(&self.vm);
                    let target = *fi as usize;
                    let handle = std::thread::spawn(move || vm.thread_main(target, args));
                    let mut table = self.vm.threads.lock();
                    table.push(Some(handle));
                    frame.stack.push(table.len() as Word); // 1-based; 0 is null
                }
                Insn::Join => {
                    if tx.is_some() {
                        return Err(VmErr::trap("join inside a transaction"));
                    }
                    let id = Self::pop(frame)? as usize;
                    let handle = {
                        let mut table = self.vm.threads.lock();
                        if id == 0 || id > table.len() {
                            return Err(VmErr::trap("join of invalid thread handle"));
                        }
                        table[id - 1].take()
                    };
                    match handle {
                        Some(h) => match h.join() {
                            Ok(Ok(w)) => frame.stack.push(w),
                            Ok(Err(m)) => return Err(VmErr::Trap(m)),
                            Err(_) => return Err(VmErr::trap("thread panicked")),
                        },
                        None => return Err(VmErr::trap("thread joined twice")),
                    }
                }
                Insn::NoTxn(op) => {
                    if tx.is_some() {
                        return Err(VmErr::trap(op.message()));
                    }
                }
                Insn::Print => {
                    let v = Self::pop(frame)? as i64;
                    self.vm.output.lock().push(v);
                }
                Insn::Assert => {
                    if Self::pop(frame)? == 0 {
                        return Err(VmErr::trap("assertion failed"));
                    }
                }
                Insn::Ret => {
                    let w = Self::pop(frame)?;
                    return Ok(Flow::Return(w));
                }
                Insn::Retry => match tx {
                    Some(t) => return Err(VmErr::Stm(t.retry::<()>().unwrap_err())),
                    None => return Err(VmErr::trap("retry outside a transaction")),
                },
                Insn::AtomicBegin { end: region_end } => {
                    let region_end = *region_end as usize;
                    if tx.is_some() {
                        // Closed nesting by flattening.
                        match self.run_range(func, frame, ip + 1, region_end, tx, &mut None)? {
                            Flow::Normal => {
                                ip = region_end + 1;
                                continue;
                            }
                            Flow::Return(w) => return Ok(Flow::Return(w)),
                        }
                    }
                    let snap_locals = frame.locals.clone();
                    let snap_stack = frame.stack.len();
                    let heap = Arc::clone(&self.vm.heap);
                    let mut trap_slot: Option<String> = None;
                    let mut flow_slot: Option<Flow> = None;
                    let committed = try_atomic(&heap, |t| {
                        frame.locals.clone_from(&snap_locals);
                        frame.stack.truncate(snap_stack);
                        let mut inner: Tx<'_, '_> = Some(t);
                        match self.run_range(func, frame, ip + 1, region_end, &mut inner, &mut None)
                        {
                            Ok(flow) => {
                                flow_slot = Some(flow);
                                Ok(())
                            }
                            Err(VmErr::Stm(a)) => Err(a),
                            Err(VmErr::Trap(m)) => {
                                // A doomed transaction may have read
                                // inconsistent data; retry instead of
                                // trapping if validation fails.
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
                        (Some(()), _) => match flow_slot.unwrap_or(Flow::Normal) {
                            Flow::Normal => {
                                ip = region_end + 1;
                                continue;
                            }
                            Flow::Return(w) => return Ok(Flow::Return(w)),
                        },
                        (None, Some(m)) => return Err(VmErr::Trap(m)),
                        (None, None) => {
                            return Err(VmErr::trap("atomic block cancelled unexpectedly"))
                        }
                    }
                }
                Insn::LockBegin { end: region_end } => {
                    let region_end = *region_end as usize;
                    if tx.is_some() {
                        return Err(VmErr::trap("lock inside a transaction"));
                    }
                    let r = ObjRef::from_word(Self::pop(frame)?)
                        .ok_or_else(|| VmErr::trap("null pointer dereference"))?;
                    let _guard = self.vm.sync.lock(r);
                    match self.run_range(func, frame, ip + 1, region_end, tx, agg)? {
                        Flow::Normal => {
                            ip = region_end + 1;
                            continue;
                        }
                        Flow::Return(w) => return Ok(Flow::Return(w)),
                    }
                }
                Insn::AggBegin { slot, end: region_end } => {
                    let region_end = *region_end as usize;
                    if tx.is_some() {
                        // Aggregation is a non-transactional optimization;
                        // inside a transaction the body runs transactionally.
                        match self.run_range(func, frame, ip + 1, region_end, tx, &mut None)? {
                            Flow::Normal => {
                                ip = region_end + 1;
                                continue;
                            }
                            Flow::Return(w) => return Ok(Flow::Return(w)),
                        }
                    }
                    let r = ObjRef::from_word(frame.locals[*slot as usize])
                        .ok_or_else(|| VmErr::trap("null object in aggregated barrier"))?;
                    self.counts.regions += 1;
                    let heap = Arc::clone(&self.vm.heap);
                    let mut out: Result<Flow, VmErr> = Ok(Flow::Normal);
                    stm_core::barrier::aggregate(&heap, r, |owned| {
                        out = self.run_range(
                            func,
                            frame,
                            ip + 1,
                            region_end,
                            &mut None,
                            &mut Some(owned),
                        );
                    });
                    match out? {
                        Flow::Normal => {
                            ip = region_end + 1;
                            continue;
                        }
                        Flow::Return(w) => return Ok(Flow::Return(w)),
                    }
                }
                Insn::AtomicEnd | Insn::LockEnd | Insn::AggEnd => {
                    return Err(VmErr::trap("stray region marker"));
                }
            }
            ip += 1;
        }
        Ok(Flow::Normal)
    }
}

/// A canonical fingerprint of the committed heap state reachable from
/// `roots` (breadth-first): per object a kind tag, the field count, then
/// each field — raw value for ints, `-(1 + visit index)` for non-null
/// references, `0` for null. Two runs that allocated isomorphic object
/// graphs in the same order produce identical dumps, which is what the
/// interpreter-vs-VM equivalence test compares.
pub fn heap_dump(heap: &Heap, roots: &[ObjRef]) -> Vec<i64> {
    let mut ids: HashMap<u64, i64> = HashMap::new();
    let mut queue: VecDeque<ObjRef> = VecDeque::new();
    let mut out = Vec::new();
    let visit = |r: ObjRef, queue: &mut VecDeque<ObjRef>, ids: &mut HashMap<u64, i64>| -> i64 {
        let next = ids.len() as i64;
        *ids.entry(r.to_word()).or_insert_with(|| {
            queue.push_back(r);
            next
        })
    };
    for &r in roots {
        visit(r, &mut queue, &mut ids);
    }
    while let Some(r) = queue.pop_front() {
        let n = heap.num_fields(r);
        out.push(match heap.kind(r) {
            Kind::Object(_) => 1,
            Kind::IntArray => 2,
            Kind::RefArray => 3,
        });
        out.push(n as i64);
        for i in 0..n {
            let w = heap.read_raw(r, i);
            if heap.field_is_ref(r, i) {
                match ObjRef::from_word(w) {
                    Some(c) => {
                        let id = visit(c, &mut queue, &mut ids);
                        out.push(-(1 + id));
                    }
                    None => out.push(0),
                }
            } else {
                out.push(w as i64);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{optimize, PassOptions};
    use crate::compile::compile;
    use crate::interp::{Vm, VmConfig};
    use crate::sites::BarrierTable;
    use crate::types::{check, Checked};

    fn checked(src: &str) -> Checked {
        check(crate::parse::parse(src).unwrap()).unwrap()
    }

    fn run_bc(src: &str, strong: bool, opts: Option<PassOptions>) -> (Arc<BytecodeVm>, VmResult) {
        let c = checked(src);
        let table = if strong {
            BarrierTable::strong(&c.program)
        } else {
            BarrierTable::weak()
        };
        let mut cp = compile(&c, &table);
        if let Some(opts) = opts {
            optimize(&mut cp, opts);
        }
        let vm = BytecodeVm::new(cp, BcVmConfig::default());
        let r = vm.run().unwrap();
        (vm, r)
    }

    #[test]
    fn recursion_and_control_flow() {
        let (_, r) = run_bc(
            "fn fib(n: int) -> int {\n\
               if (n < 2) { return n; }\n\
               return fib(n - 1) + fib(n - 2);\n\
             }\n\
             fn main() { print fib(10); }",
            false,
            None,
        );
        assert_eq!(r.output, vec![55]);
    }

    #[test]
    fn objects_statics_arrays_match_interp() {
        let src = "static total: int;\n\
                   class P { x: int, y: int }\n\
                   fn main() {\n\
                     let p: ref P = new P;\n\
                     p.x = 3; p.y = 4;\n\
                     let a: array int = new_array<int>(5);\n\
                     let i: int = 0;\n\
                     while (i < len(a)) { a[i] = i * i; i = i + 1; }\n\
                     i = 0;\n\
                     while (i < 5) { total = total + a[i]; i = i + 1; }\n\
                     print total + p.x * p.x + p.y * p.y;\n\
                   }";
        let (_, r) = run_bc(src, false, None);
        let ri = crate::interp::run_source(src, VmConfig::default()).unwrap();
        assert_eq!(r.output, ri.output);
        assert_eq!(r.output, vec![55]);
    }

    #[test]
    fn strong_barrier_counts_match_interp() {
        let src = "class C { x: int }\n\
                   fn main() {\n\
                     let c: ref C = new C;\n\
                     let i: int = 0;\n\
                     while (i < 10) { c.x = c.x + 1; i = i + 1; }\n\
                     print c.x;\n\
                   }";
        let (vm, r) = run_bc(src, true, None);
        assert_eq!(r.stats.read_barriers, 11, "10 loop loads + final print");
        assert_eq!(r.stats.write_barriers, 10);
        let b = vm.barrier_stats();
        assert_eq!(b.executed, 21, "per-site counters agree with heap stats");
        assert_eq!(b.elided + b.aggregated, 0);
    }

    #[test]
    fn atomic_commits_and_flattens() {
        let (_, r) = run_bc(
            "static x: int;\n\
             fn bump() { atomic { x = x + 1; } }\n\
             fn main() { atomic { bump(); x = x + 1; } print x; }",
            false,
            None,
        );
        assert_eq!(r.output, vec![2]);
        assert_eq!(r.stats.commits, 1, "inner atomic flattened into outer");
    }

    #[test]
    fn threads_and_transactions_race_free() {
        let (_, r) = run_bc(
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
            true,
            None,
        );
        assert_eq!(r.output, vec![400]);
    }

    #[test]
    fn locks_and_retry_work() {
        let (_, r) = run_bc(
            "class Cell { v: int }\n\
             static c: ref Cell;\n\
             static flag: int;\n\
             fn consumer() -> int {\n\
               let v: int = 0;\n\
               atomic { if (flag == 0) { retry; } v = c.v; }\n\
               return v;\n\
             }\n\
             fn main() {\n\
               c = new Cell;\n\
               lock (c) { c.v = 41; }\n\
               let t: thread = spawn consumer();\n\
               atomic { c.v = c.v + 1; flag = 1; }\n\
               print join t;\n\
             }",
            false,
            None,
        );
        assert_eq!(r.output, vec![42]);
    }

    #[test]
    fn traps_match_interp_messages() {
        let cases = [
            ("class C { x: int }\nfn main() { let c: ref C = null; print c.x; }", "null pointer"),
            ("fn main() { assert 0; }", "assertion"),
            ("fn main() { let z: int = 0; print 1 / z; }", "division by zero"),
            (
                "fn main() { let a: array int = new_array<int>(2); print a[5]; }",
                "index 5 out of bounds",
            ),
        ];
        for (src, needle) in cases {
            let c = checked(src);
            let cp = compile(&c, &BarrierTable::weak());
            let err = BytecodeVm::new(cp, BcVmConfig::default()).run().unwrap_err();
            assert!(err.message.contains(needle), "{src}: {}", err.message);
        }
    }

    #[test]
    fn null_trap_precedes_index_trap() {
        // interp: the base's null trap fires before the index expression
        // (which would divide by zero) is evaluated.
        let c = checked(
            "fn main() { let a: array int = null; let z: int = 0; print a[1 / z]; }",
        );
        let cp = compile(&c, &BarrierTable::weak());
        let err = BytecodeVm::new(cp, BcVmConfig::default()).run().unwrap_err();
        assert!(err.message.contains("null pointer"), "{}", err.message);
    }

    #[test]
    fn figure14_aggregates_at_bytecode_level() {
        let src = "class A { x: int, y: int }\n\
                   fn work(a: ref A) { a.x = 5; a.y = a.y + 1; a.y = a.y + a.x; }\n\
                   fn main() { let a: ref A = new A; work(a); work(a); print a.y; }";
        let c = checked(src);
        let table = BarrierTable::strong(&c.program);
        let mut cp = compile(&c, &table);
        let report = optimize(
            &mut cp,
            PassOptions { immutable: false, escape: false, aggregate: true },
        );
        assert_eq!(report.regions, 1, "one region in work()");
        assert_eq!(report.aggregated_sites, 6, "3 stores + 3 loads folded");
        let vm = BytecodeVm::new(cp, BcVmConfig::default());
        let r = vm.run().unwrap();
        assert_eq!(r.output, vec![12]);
        let b = vm.barrier_stats();
        assert_eq!(b.regions, 2, "work() called twice");
        assert_eq!(b.aggregated, 12, "6 accesses per call");
        assert_eq!(r.stats.write_barriers, 2, "one record acquisition per region entry");
    }

    #[test]
    fn aggregation_skips_atomic_loop_and_object_boundaries() {
        let cases = [
            // Atomic bodies and loop-split accesses stay unfused; the two
            // non-transactional stores keep their barriers.
            (
                "class A { x: int, y: int }\n\
                 fn main() {\n\
                   let a: ref A = new A;\n\
                   atomic { a.x = 1; a.y = 2; }\n\
                   let i: int = 0;\n\
                   a.x = 3;\n\
                   while (i < 2) { i = i + 1; }\n\
                   a.y = 4;\n\
                 }",
                2,
            ),
            // Alternating objects: no run of two accesses to one object.
            (
                "class A { x: int }\n\
                 fn work(a: ref A, b: ref A) { a.x = 1; b.x = 2; a.x = 3; }\n\
                 fn main() { let a: ref A = new A; let b: ref A = new A; work(a, b); }",
                3,
            ),
        ];
        for (src, write_barriers) in cases {
            let c = checked(src);
            let table = BarrierTable::strong(&c.program);
            let mut cp = compile(&c, &table);
            let report = optimize(
                &mut cp,
                PassOptions { immutable: false, escape: false, aggregate: true },
            );
            assert_eq!(report.regions, 0, "{src}");
            let vm = BytecodeVm::new(cp, BcVmConfig::default());
            let r = vm.run().unwrap();
            assert_eq!(r.stats.write_barriers, write_barriers, "{src}");
            assert_eq!(vm.barrier_stats().aggregated, 0, "{src}");
        }
    }

    #[test]
    fn aggregation_breaks_on_store_to_base() {
        // Repointing the anchor local mid-run must not be fused: the second
        // access targets a different object than the region would own.
        let src = "class A { x: int, y: int }\n\
                   fn work(a: ref A, b: ref A) { a.x = 1; a = b; a.y = 2; }\n\
                   fn main() {\n\
                     let a: ref A = new A;\n\
                     let b: ref A = new A;\n\
                     work(a, b);\n\
                     print a.x + a.y;\n\
                     print b.x + b.y;\n\
                   }";
        let c = checked(src);
        let table = BarrierTable::strong(&c.program);
        let mut cp = compile(&c, &table);
        let report = optimize(
            &mut cp,
            PassOptions { immutable: false, escape: false, aggregate: true },
        );
        assert_eq!(report.regions, 2, "only main's two print statements fuse");
        let work = cp.func("work").unwrap();
        assert!(
            !work.code.iter().any(|i| matches!(i, Insn::AggBegin { .. })),
            "the repointed run in work() must stay unfused"
        );
        let vm = BytecodeVm::new(cp, BcVmConfig::default());
        let r = vm.run().unwrap();
        assert_eq!(r.output, vec![1, 2]);
    }

    #[test]
    fn elision_passes_rewrite_and_count() {
        let cases = [
            // Two final loads go to the immutable pass, the store through
            // `c` (which never escapes main) to the escape pass.
            (
                "class C { final id: int, x: int }\n\
                 fn main() {\n\
                   let c: ref C = new C;\n\
                   c.x = c.id;\n\
                   print c.id;\n\
                 }",
                2,
                1,
            ),
            // Escape elision reaches into a loop body: load + store via `c`.
            (
                "class C { x: int }\n\
                 fn main() {\n\
                   let c: ref C = new C;\n\
                   let i: int = 0;\n\
                   while (i < 4) { c.x = c.x + 1; i = i + 1; }\n\
                 }",
                0,
                2,
            ),
        ];
        for (src, immutable, escape) in cases {
            let c = checked(src);
            let table = BarrierTable::strong(&c.program);
            let mut cp = compile(&c, &table);
            let report = optimize(&mut cp, PassOptions::elim_only());
            assert_eq!(report.immutable_elided, immutable, "{src}");
            assert_eq!(report.escape_elided, escape, "{src}");
            let vm = BytecodeVm::new(cp, BcVmConfig::default());
            let r = vm.run().unwrap();
            let b = vm.barrier_stats();
            assert_eq!(b.executed, 0, "every barrier elided: {src}");
            assert!(b.elided >= (immutable + escape) as u64, "{src}");
            assert_eq!(r.stats.read_barriers + r.stats.write_barriers, 0, "{src}");
        }
    }

    #[test]
    fn elide_sites_feeds_external_facts() {
        let src = "static g: int;\n\
                   fn main() { g = 1; print g; }";
        let c = checked(src);
        let table = BarrierTable::strong(&c.program);
        let mut cp = compile(&c, &table);
        let n = crate::bytecode::elide_sites(&mut cp, |_| true);
        assert_eq!(n, 2, "one static store + one static load");
        let vm = BytecodeVm::new(cp, BcVmConfig::default());
        let r = vm.run().unwrap();
        assert_eq!(r.stats.read_barriers + r.stats.write_barriers, 0);
        assert_eq!(vm.barrier_stats().elided, 2);
        assert_eq!(r.output, vec![1]);
    }

    #[test]
    fn heap_dump_agrees_with_interp() {
        let src = "class Node { val: int, next: ref Node }\n\
                   static head: ref Node;\n\
                   fn push(v: int) {\n\
                     let n: ref Node = new Node;\n\
                     n.val = v; n.next = head; head = n;\n\
                   }\n\
                   fn main() { push(1); push(2); push(3); }";
        let c = checked(src);
        let ivm = Vm::new(c.clone(), VmConfig::default());
        ivm.run().unwrap();
        let cp = compile(&c, &BarrierTable::weak());
        let bvm = BytecodeVm::new(cp, BcVmConfig::default());
        bvm.run().unwrap();
        let di = heap_dump(ivm.heap(), ivm.statics());
        let db = heap_dump(bvm.heap(), bvm.statics());
        assert_eq!(di, db, "identical committed heap graphs");
        assert!(!di.is_empty());
    }
}
