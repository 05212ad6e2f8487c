//! The TMIR → bytecode compiler.
//!
//! Compiles a type-checked program ([`Checked`]) into a
//! [`CompiledProgram`]: one flat instruction stream per function, with
//! every heap access lowered to a single opcode carrying its [`SiteId`] and
//! the barrier decision from the given [`BarrierTable`].
//!
//! Two properties the compiler must preserve exactly (the differential
//! proptest in `tests/vm_equiv.rs` holds it to this):
//!
//! * **evaluation order** — including trap order: assignment values before
//!   place bases, array base null-traps before the index expression, and
//!   the `spawn`/`join`/`lock` in-transaction traps before their operands
//!   (via [`Insn::NoTxn`]);
//! * **field indices** — resolved here, once, from the static types (the
//!   checker guarantees every field access's base has a concrete class
//!   type), instead of the interpreter's per-access shape lookup. This is
//!   where most of the VM's speedup over the tree-walker comes from.

use crate::ast::*;
use crate::bytecode::{BarrierOp, CompiledFunc, CompiledProgram, Insn, NoTxnOp};
use crate::sites::{BarrierKind, BarrierTable};
use crate::types::{Checked, FuncMeta};
use std::collections::HashMap;

/// Compiles a checked program against a barrier table.
///
/// # Panics
/// Panics on a malformed `Checked` (impossible for checker output) or on a
/// program exceeding bytecode limits (65535 locals/fields/functions).
pub fn compile(checked: &Checked, table: &BarrierTable) -> CompiledProgram {
    let program = &checked.program;
    let func_index: HashMap<String, usize> = program
        .funcs
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), i))
        .collect();
    let funcs = program
        .funcs
        .iter()
        .map(|decl| {
            let meta = &checked.funcs[&decl.name];
            let mut c = FnCompiler {
                program,
                table,
                meta,
                func_index: &func_index,
                code: Vec::new(),
            };
            c.block(&decl.body);
            assert!(meta.slots.len() <= u16::MAX as usize, "too many locals");
            CompiledFunc {
                name: decl.name.clone(),
                code: c.code,
                num_params: decl.params.len() as u16,
                num_slots: meta.slots.len() as u16,
                param_ref_mask: decl.params.iter().map(|(_, t)| t.is_ref()).collect(),
                slot_names: meta.slots.iter().map(|(n, _)| n.clone()).collect(),
            }
        })
        .collect();
    CompiledProgram {
        program: program.clone(),
        funcs,
        func_index,
        num_sites: program.num_sites,
    }
}

struct FnCompiler<'a> {
    program: &'a Program,
    table: &'a BarrierTable,
    meta: &'a FuncMeta,
    func_index: &'a HashMap<String, usize>,
    code: Vec<Insn>,
}

impl FnCompiler<'_> {
    fn emit(&mut self, insn: Insn) -> usize {
        self.code.push(insn);
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch_jump(&mut self, at: usize) {
        let target = self.here();
        match &mut self.code[at] {
            Insn::Jump(t) | Insn::JumpIfZero(t) | Insn::JumpIfNonZero(t) => *t = target,
            _ => unreachable!("patching a non-jump"),
        }
    }

    fn slot(&self, name: &str) -> u16 {
        self.meta.slot_of[name] as u16
    }

    fn load_barrier(&self, site: SiteId) -> BarrierOp {
        // Mirrors the interpreter: any non-`None` table entry on a load
        // runs the read barrier.
        match self.table.kind(site) {
            BarrierKind::None => BarrierOp::Raw,
            _ => BarrierOp::Read,
        }
    }

    fn store_barrier(&self, site: SiteId) -> BarrierOp {
        // Mirrors the interpreter: only a `Write` entry runs the write
        // barrier; anything else stores raw (plus DEA publication).
        match self.table.kind(site) {
            BarrierKind::Write => BarrierOp::Write,
            _ => BarrierOp::Raw,
        }
    }

    fn base_slot(&self, base: &Expr) -> Option<u16> {
        match base {
            Expr::Local(n) => Some(self.slot(n)),
            _ => None,
        }
    }

    /// Static type of an expression, mirroring the checker's rules (which
    /// already validated the program, so every lookup succeeds).
    fn ty_of(&self, e: &Expr) -> Ty {
        match e {
            Expr::Int(_) | Expr::Len(_) | Expr::Bin { .. } | Expr::Un { .. } | Expr::Join(_) => {
                Ty::Int
            }
            Expr::Null => Ty::Ref(String::new()),
            Expr::Local(n) => self.meta.slots[self.meta.slot_of[n]].1.clone(),
            Expr::Field { base, field, .. } => {
                let Ty::Ref(c) = self.ty_of(base) else {
                    panic!("field access on non-class value")
                };
                let class = self.program.class(&c).expect("checked class");
                let idx = class.field_index(field).expect("checked field");
                class.fields[idx].ty.clone()
            }
            Expr::Static { name, .. } => {
                let idx = self.program.static_index(name).expect("checked static");
                self.program.statics[idx].ty.clone()
            }
            Expr::Index { base, .. } => match self.ty_of(base) {
                Ty::IntArray => Ty::Int,
                Ty::RefArray(c) => Ty::Ref(c),
                _ => panic!("index on non-array value"),
            },
            Expr::New { class, .. } => Ty::Ref(class.clone()),
            Expr::NewArray { elem, .. } => match &**elem {
                Ty::Ref(c) => Ty::RefArray(c.clone()),
                _ => Ty::IntArray,
            },
            Expr::Call { func, .. } => self
                .program
                .func(func)
                .expect("checked callee")
                .ret
                .clone()
                .unwrap_or(Ty::Int),
            Expr::Spawn { .. } => Ty::Thread,
        }
    }

    /// Field index of `base.field`, from the static type of `base`.
    fn field_index(&self, base: &Expr, field: &str) -> u16 {
        let Ty::Ref(c) = self.ty_of(base) else {
            panic!("field access on non-class value")
        };
        let class = self.program.class(&c).expect("checked class");
        let idx = class.field_index(field).expect("checked field");
        assert!(idx <= u16::MAX as usize, "too many fields");
        idx as u16
    }

    fn block(&mut self, body: &[Stmt]) {
        for stmt in body {
            self.stmt(stmt);
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match stmt {
            Stmt::Let { name, init, .. } => {
                self.expr(init);
                let s = self.slot(name);
                self.emit(Insn::Store(s));
            }
            Stmt::Assign { place, value } => {
                // Value first, then the place's base (and index) — the
                // interpreter's order, which fixes which trap fires first.
                self.expr(value);
                match place {
                    Place::Local(name) => {
                        let s = self.slot(name);
                        self.emit(Insn::Store(s));
                    }
                    Place::Field { base, field, site } => {
                        let fidx = self.field_index(base, field);
                        let anchor = self.base_slot(base);
                        self.expr(base);
                        self.emit(Insn::PutField {
                            fidx,
                            site: *site,
                            barrier: self.store_barrier(*site),
                            base: anchor,
                        });
                    }
                    Place::Static { name, site } => {
                        let sidx = self.program.static_index(name).expect("checked static");
                        self.emit(Insn::PutStatic {
                            sidx: sidx as u16,
                            site: *site,
                            barrier: self.store_barrier(*site),
                        });
                    }
                    Place::Index { base, index, site } => {
                        let anchor = self.base_slot(base);
                        self.expr(base);
                        self.emit(Insn::NullCheck);
                        self.expr(index);
                        self.emit(Insn::PutIndex {
                            site: *site,
                            barrier: self.store_barrier(*site),
                            base: anchor,
                        });
                    }
                }
            }
            Stmt::Expr(e) => {
                self.expr(e);
                self.emit(Insn::Pop);
            }
            Stmt::If { cond, then_body, else_body } => {
                self.expr(cond);
                let to_else = self.emit(Insn::JumpIfZero(0));
                self.block(then_body);
                if else_body.is_empty() {
                    self.patch_jump(to_else);
                } else {
                    let to_end = self.emit(Insn::Jump(0));
                    self.patch_jump(to_else);
                    self.block(else_body);
                    self.patch_jump(to_end);
                }
            }
            Stmt::While { cond, body } => {
                let head = self.here();
                self.expr(cond);
                let to_end = self.emit(Insn::JumpIfZero(0));
                self.block(body);
                self.emit(Insn::Jump(head));
                self.patch_jump(to_end);
            }
            Stmt::Atomic { body } => {
                let begin = self.emit(Insn::AtomicBegin { end: 0 });
                self.block(body);
                let end = self.emit(Insn::AtomicEnd) as u32;
                if let Insn::AtomicBegin { end: e } = &mut self.code[begin] {
                    *e = end;
                }
            }
            Stmt::Retry => {
                self.emit(Insn::Retry);
            }
            Stmt::Lock { obj, body } => {
                self.emit(Insn::NoTxn(NoTxnOp::Lock));
                self.expr(obj);
                let begin = self.emit(Insn::LockBegin { end: 0 });
                self.block(body);
                let end = self.emit(Insn::LockEnd) as u32;
                if let Insn::LockBegin { end: e } = &mut self.code[begin] {
                    *e = end;
                }
            }
            Stmt::Return(e) => {
                match e {
                    Some(e) => self.expr(e),
                    None => {
                        self.emit(Insn::Const(0));
                    }
                }
                self.emit(Insn::Ret);
            }
            Stmt::Print(e) => {
                self.expr(e);
                self.emit(Insn::Print);
            }
            Stmt::Assert(e) => {
                self.expr(e);
                self.emit(Insn::Assert);
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Int(n) => {
                self.emit(Insn::Const(*n));
            }
            Expr::Null => {
                self.emit(Insn::Const(0));
            }
            Expr::Local(n) => {
                let s = self.slot(n);
                self.emit(Insn::Load(s));
            }
            Expr::Field { base, field, site } => {
                let fidx = self.field_index(base, field);
                let anchor = self.base_slot(base);
                self.expr(base);
                self.emit(Insn::GetField {
                    fidx,
                    site: *site,
                    barrier: self.load_barrier(*site),
                    base: anchor,
                });
            }
            Expr::Static { name, site } => {
                let sidx = self.program.static_index(name).expect("checked static");
                self.emit(Insn::GetStatic {
                    sidx: sidx as u16,
                    site: *site,
                    barrier: self.load_barrier(*site),
                });
            }
            Expr::Index { base, index, site } => {
                let anchor = self.base_slot(base);
                self.expr(base);
                // Null-trap on the base *before* the index expression runs.
                self.emit(Insn::NullCheck);
                self.expr(index);
                self.emit(Insn::GetIndex {
                    site: *site,
                    barrier: self.load_barrier(*site),
                    base: anchor,
                });
            }
            Expr::New { class, .. } => {
                let idx = self
                    .program
                    .classes
                    .iter()
                    .position(|c| c.name == *class)
                    .expect("checked class");
                self.emit(Insn::New { class: idx as u16 });
            }
            Expr::NewArray { elem, len, .. } => {
                self.expr(len);
                if elem.is_ref() {
                    self.emit(Insn::NewRefArray);
                } else {
                    self.emit(Insn::NewIntArray);
                }
            }
            Expr::Len(b) => {
                self.expr(b);
                self.emit(Insn::Len);
            }
            Expr::Bin { op: BinOp::And, lhs, rhs } => {
                // lhs == 0 short-circuits to 0; otherwise the result is
                // rhs != 0 (the interpreter's normalization).
                self.expr(lhs);
                let to_false = self.emit(Insn::JumpIfZero(0));
                self.expr(rhs);
                self.emit(Insn::Const(0));
                self.emit(Insn::Bin(BinOp::Ne));
                let to_end = self.emit(Insn::Jump(0));
                self.patch_jump(to_false);
                self.emit(Insn::Const(0));
                self.patch_jump(to_end);
            }
            Expr::Bin { op: BinOp::Or, lhs, rhs } => {
                self.expr(lhs);
                let to_true = self.emit(Insn::JumpIfNonZero(0));
                self.expr(rhs);
                self.emit(Insn::Const(0));
                self.emit(Insn::Bin(BinOp::Ne));
                let to_end = self.emit(Insn::Jump(0));
                self.patch_jump(to_true);
                self.emit(Insn::Const(1));
                self.patch_jump(to_end);
            }
            Expr::Bin { op, lhs, rhs } => {
                self.expr(lhs);
                self.expr(rhs);
                self.emit(Insn::Bin(*op));
            }
            Expr::Un { op, expr } => {
                self.expr(expr);
                self.emit(Insn::Un(*op));
            }
            Expr::Call { func, args } => {
                for a in args {
                    self.expr(a);
                }
                let fi = self.func_index[func.as_str()];
                self.emit(Insn::Call { func: fi as u16 });
            }
            Expr::Spawn { func, args } => {
                // The in-transaction trap precedes argument evaluation.
                self.emit(Insn::NoTxn(NoTxnOp::Spawn));
                for a in args {
                    self.expr(a);
                }
                let fi = self.func_index[func.as_str()];
                self.emit(Insn::Spawn { func: fi as u16 });
            }
            Expr::Join(b) => {
                self.emit(Insn::NoTxn(NoTxnOp::Join));
                self.expr(b);
                self.emit(Insn::Join);
            }
        }
    }
}
