//! Differential properties: the bytecode VM is observationally equivalent
//! to the tree-walking interpreter.
//!
//! For random single-threaded programs mixing fields, statics, arrays,
//! calls, control flow, and atomic blocks, we check that interpreter and
//! VM produce identical printed output, identical `main` return values,
//! and an identical committed heap (compared structurally via
//! [`tmir::vm::heap_dump`]) — under both the weak and the strong barrier
//! table, with dynamic escape analysis off and on. The generated `o` is
//! re-allocated and published through a static at random points, so the
//! pre-publication elision starts and stops mid-program. We also check the
//! optimization contract: the VM with all bytecode passes enabled never
//! *executes* more barriers than the unoptimized VM on the same program.

use proptest::prelude::*;
use stm_core::config::StmConfig;
use tmir::interp::{Vm, VmConfig};
use tmir::parse::parse;
use tmir::sites::BarrierTable;
use tmir::types::check;
use tmir::vm::{heap_dump, BcVmConfig, BytecodeVm};
use tmir::{compile, Checked, PassOptions};

/// One generated statement for the program body.
#[derive(Debug, Clone)]
enum Op {
    /// `o.fD = o.fS + K;`
    Field(usize, usize, i64),
    /// `a[I] = a[J] + o.fS;`
    Array(usize, usize, usize),
    /// `counter = counter + a[I];`
    Static(usize),
    /// `if (o.fD < K) { o.fS = o.fS + 1; } else { a[I] = K; }`
    Branch(usize, usize, usize, i64),
    /// `atomic { o.fD = o.fD + K; counter = counter + 1; }`
    Atomic(usize, i64),
    /// `o.fD = bump(o.fS);`
    Call(usize, usize),
    /// `while (iN < K) { o.fD = o.fD + 1; iN = iN + 1; }`
    Loop(usize, i64),
    /// `shared = o;` — publishes the current `o`.
    Publish,
    /// `o = new O;` — starts a fresh, unpublished `o`.
    Fresh,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..3, 0usize..3, 1i64..100).prop_map(|(d, s, k)| Op::Field(d, s, k)),
        (0usize..8, 0usize..8, 0usize..3).prop_map(|(i, j, s)| Op::Array(i, j, s)),
        (0usize..8).prop_map(Op::Static),
        (0usize..3, 0usize..3, 0usize..8, 1i64..100)
            .prop_map(|(d, s, i, k)| Op::Branch(d, s, i, k)),
        (0usize..3, 1i64..50).prop_map(|(d, k)| Op::Atomic(d, k)),
        (0usize..3, 0usize..3).prop_map(|(d, s)| Op::Call(d, s)),
        (0usize..3, 1i64..6).prop_map(|(d, k)| Op::Loop(d, k)),
        Just(Op::Publish),
        Just(Op::Fresh),
    ]
}

/// Renders a generated op sequence into a complete TMIR program.
fn render(ops: &[Op]) -> String {
    let mut body = String::new();
    for (n, op) in ops.iter().enumerate() {
        match op {
            Op::Field(d, s, k) => body.push_str(&format!("o.f{d} = o.f{s} + {k};\n")),
            Op::Array(i, j, s) => body.push_str(&format!("a[{i}] = a[{j}] + o.f{s};\n")),
            Op::Static(i) => body.push_str(&format!("counter = counter + a[{i}] + 1;\n")),
            Op::Branch(d, s, i, k) => body.push_str(&format!(
                "if (o.f{d} < {k}) {{ o.f{s} = o.f{s} + 1; }} else {{ a[{i}] = {k}; }}\n"
            )),
            Op::Atomic(d, k) => body.push_str(&format!(
                "atomic {{ o.f{d} = o.f{d} + {k}; counter = counter + 1; }}\n"
            )),
            Op::Call(d, s) => body.push_str(&format!("o.f{d} = bump(o.f{s});\n")),
            Op::Loop(d, k) => body.push_str(&format!(
                "let i{n}: int = 0;\n\
                 while (i{n} < {k}) {{ o.f{d} = o.f{d} + 1; i{n} = i{n} + 1; }}\n"
            )),
            Op::Publish => body.push_str("shared = o;\n"),
            Op::Fresh => body.push_str("o = new O;\n"),
        }
    }
    format!(
        "class O {{ f0: int, f1: int, f2: int }}\n\
         static counter: int;\n\
         static shared: ref O;\n\
         fn bump(x: int) -> int {{ return x + 7; }}\n\
         fn main() {{\n\
           let o: ref O = new O;\n\
           let a: array int = new_array<int>(8);\n\
           {body}\
           print o.f0; print o.f1; print o.f2;\n\
           print counter;\n\
           let p: int = 0;\n\
           while (p < 8) {{ print a[p]; p = p + 1; }}\n\
         }}"
    )
}

/// The heap configuration with dynamic escape analysis off or on.
fn stm(dea: bool) -> StmConfig {
    StmConfig { dea, ..StmConfig::default() }
}

/// Runs `checked` on the interpreter and returns (output, ret, heap dump).
fn run_interp(checked: &Checked, table: BarrierTable, dea: bool) -> (Vec<i64>, u64, Vec<i64>) {
    let vm = Vm::new(checked.clone(), VmConfig { stm: stm(dea), table, ..Default::default() });
    let res = vm.run().expect("interpreter runs");
    let dump = heap_dump(vm.heap(), vm.statics());
    (res.output, res.ret, dump)
}

/// Runs `checked` on the bytecode VM; returns (output, ret, heap dump,
/// executed barrier count).
fn run_vm(
    checked: &Checked,
    table: &BarrierTable,
    passes: Option<PassOptions>,
    dea: bool,
) -> (Vec<i64>, u64, Vec<i64>, u64) {
    let mut cp = compile(checked, table);
    if let Some(opts) = passes {
        tmir::bytecode::optimize(&mut cp, opts);
    }
    let vm = BytecodeVm::new(cp, BcVmConfig { stm: stm(dea), ..BcVmConfig::default() });
    let res = vm.run().expect("bytecode VM runs");
    let dump = heap_dump(vm.heap(), vm.statics());
    let executed = vm.barrier_stats().executed;
    (res.output, res.ret, dump, executed)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Interpreter and bytecode VM agree on output, return value, and the
    /// final committed heap, under both weak and strong barrier tables and
    /// with DEA off and on; the optimized VM never executes more barriers
    /// than the unoptimized VM.
    #[test]
    fn vm_matches_interpreter(ops in prop::collection::vec(op_strategy(), 1..20)) {
        let src = render(&ops);
        let checked = check(parse(&src).unwrap()).expect("typechecks");

        for (strong, dea) in [(false, false), (true, false), (false, true), (true, true)] {
            let table = if strong {
                BarrierTable::strong(&checked.program)
            } else {
                BarrierTable::weak()
            };
            let ctx = format!("strong={strong}, dea={dea}");
            let (i_out, i_ret, i_dump) = run_interp(&checked, table.clone(), dea);
            let (v_out, v_ret, v_dump, v_exec) = run_vm(&checked, &table, None, dea);
            prop_assert_eq!(&i_out, &v_out, "output diverged ({})", ctx);
            prop_assert_eq!(i_ret, v_ret, "return value diverged ({})", ctx);
            prop_assert_eq!(&i_dump, &v_dump, "heap diverged ({})", ctx);

            let (o_out, o_ret, o_dump, o_exec) =
                run_vm(&checked, &table, Some(PassOptions::all()), dea);
            prop_assert_eq!(&i_out, &o_out, "optimized output diverged ({})", ctx);
            prop_assert_eq!(i_ret, o_ret, "optimized ret diverged ({})", ctx);
            prop_assert_eq!(&i_dump, &o_dump, "optimized heap diverged ({})", ctx);
            prop_assert!(
                o_exec <= v_exec,
                "passes increased executed barriers: {} > {} ({})",
                o_exec, v_exec, ctx
            );
        }
    }
}

/// A fixed multi-threaded program still agrees between engines (outputs
/// are deterministic because each thread works on disjoint state and the
/// main thread joins before printing).
#[test]
fn vm_matches_interpreter_threaded() {
    let src = "static total: int;
        fn worker(n: int) -> int {
            let i: int = 0;
            while (i < n) { atomic { total = total + 1; } i = i + 1; }
            return n;
        }
        fn main() {
            let t1: thread = spawn worker(150);
            let t2: thread = spawn worker(250);
            let r: int = join t1;
            let s: int = join t2;
            print total; print r + s;
        }";
    let checked = check(parse(src).unwrap()).unwrap();
    let table = BarrierTable::strong(&checked.program);
    let (i_out, i_ret, _) = run_interp(&checked, table.clone(), false);
    let (v_out, v_ret, _, _) = run_vm(&checked, &table, Some(PassOptions::all()), false);
    assert_eq!(i_out, v_out);
    assert_eq!(i_ret, v_ret);
    assert_eq!(v_out, vec![400, 400]);
}

/// One thread allocates an object, initializes it with pre-publication
/// (elided) stores and publishes it through a transactional static store;
/// another waits for it in a transaction and reads it. The consumer must
/// see the initialized fields, and VM+passes must agree with the
/// interpreter, with DEA off and on.
#[test]
fn pre_publication_stores_are_visible_after_publication() {
    let src = "class Box { v: int, w: int }
        static slot: ref Box;
        fn producer(k: int) -> int {
            let b: ref Box = new Box;
            b.v = k;
            b.w = b.v * 2;
            atomic { slot = b; }
            return 0;
        }
        fn consumer() -> int {
            let s: int = 0;
            atomic {
                if (slot == null) { retry; }
                s = slot.v + slot.w;
            }
            return s;
        }
        fn main() {
            let c: thread = spawn consumer();
            let p: thread = spawn producer(21);
            let a: int = join p;
            let b: int = join c;
            print a + b;
            print slot.v;
        }";
    let checked = check(parse(src).unwrap()).unwrap();
    let table = BarrierTable::strong(&checked.program);
    let mut cp = compile(&checked, &table);
    let report = tmir::bytecode::optimize(&mut cp, PassOptions::all());
    assert_eq!(report.escape_elided, 3, "b.v store, b.v load and b.w store");
    for dea in [false, true] {
        let (i_out, i_ret, i_dump) = run_interp(&checked, table.clone(), dea);
        let (v_out, v_ret, v_dump, _) = run_vm(&checked, &table, Some(PassOptions::all()), dea);
        assert_eq!(i_out, vec![63, 21], "dea={dea}");
        assert_eq!(i_out, v_out, "dea={dea}");
        assert_eq!(i_ret, v_ret, "dea={dea}");
        assert_eq!(i_dump, v_dump, "dea={dea}");
    }
}
