//! Cross-crate integration tests: the whole system assembled the way the
//! paper's evaluation uses it.

use strong_stm::prelude::*;
use strong_stm::{analysis, anomalies, lang, sim};

/// The paper's central promise, executed: the full anomaly matrix matches
/// Figure 6 and the strong column is clean.
#[test]
fn figure6_matrix_end_to_end() {
    assert_eq!(anomalies::anomaly_matrix(), anomalies::expected_matrix());
}

/// A TMIR program compiled through the full pipeline (strong barriers →
/// bytecode §6 passes → NAIT) behaves on the bytecode VM exactly as the
/// unoptimized strong interpreter does, while running strictly fewer
/// barriers.
#[test]
fn pipeline_preserves_semantics_and_reduces_barriers() {
    let src = "class C { v: int, final tag: int }\n\
               static shared: ref C;\n\
               static total: int;\n\
               fn work(n: int) -> int {\n\
                 let local: ref C = new C;\n\
                 let i: int = 0;\n\
                 while (i < n) { local.v = local.v + i; i = i + 1; }\n\
                 atomic { total = total + local.v; }\n\
                 return local.v;\n\
               }\n\
               fn main() {\n\
                 shared = new C;\n\
                 let a: int = work(10);\n\
                 shared.v = a;\n\
                 print shared.v;\n\
                 print total;\n\
               }";
    let checked = lang::check(lang::parse::parse(src).unwrap()).unwrap();

    let strong_table = lang::BarrierTable::strong(&checked.program);
    let strong = lang::Vm::new(
        checked.clone(),
        lang::VmConfig { table: strong_table.clone(), ..Default::default() },
    )
    .run()
    .unwrap();

    let mut cp = lang::compile(&checked, &strong_table);
    lang::bytecode::optimize(&mut cp, lang::PassOptions::all());
    let run = |cp: lang::CompiledProgram| {
        lang::BytecodeVm::new(cp, lang::BcVmConfig::default()).run().unwrap()
    };
    let passes = run(cp.clone());

    let (_, removal) = analysis::analyze_and_remove(&checked.program);
    removal.apply_nait_bytecode(&mut cp);
    let nait = run(cp);

    assert_eq!(strong.output, passes.output);
    assert_eq!(strong.output, nait.output);
    let b = |s: &strong_stm::stm::stats::StatsSnapshot| s.read_barriers + s.write_barriers;
    assert!(b(&passes.stats) < b(&strong.stats), "passes reduced executed barriers");
    assert!(b(&nait.stats) <= b(&passes.stats), "NAIT reduced them further");
}

/// The STM's correctness is independent of the clock source: the same
/// contended counter program is exact natively and under the simulator.
#[test]
fn stm_exact_native_and_simulated() {
    // Native.
    let heap = Heap::new(StmConfig::strong_default());
    let shape = heap.define_shape(Shape::new("N", vec![FieldDef::int("v")]));
    let c = heap.alloc_public(shape);
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let heap = std::sync::Arc::clone(&heap);
            std::thread::spawn(move || {
                for _ in 0..250 {
                    atomic(&heap, |tx| {
                        let v = tx.read(c, 0)?;
                        tx.write(c, 0, v + 1)
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(heap.read_raw(c, 0), 1000);

    // Simulated.
    let heap = Heap::new(StmConfig::strong_default());
    let shape = heap.define_shape(Shape::new("N", vec![FieldDef::int("v")]));
    let c = heap.alloc_public(shape);
    let machine = sim::Machine::new(sim::SimConfig::with_processors(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let heap = std::sync::Arc::clone(&heap);
            machine.spawn(move || {
                for _ in 0..250 {
                    atomic(&heap, |tx| {
                        let v = tx.read(c, 0)?;
                        tx.write(c, 0, v + 1)
                    });
                }
            })
        })
        .collect();
    machine.start();
    for h in handles {
        h.join();
    }
    assert_eq!(heap.read_raw(c, 0), 1000);
    assert!(machine.report().makespan > 0);
}

/// Strong atomicity composes with every workload: the three scalability
/// benchmarks produce mode-independent results.
#[test]
fn workloads_agree_across_all_modes() {
    use strong_stm::bench_workloads::{jbb, oo7, scale::SyncMode, tsp};
    let tsp_ref = tsp::run(&tsp::TspConfig::tiny(SyncMode::Locks, 2)).checksum;
    let jbb_ref = jbb::run(&jbb::JbbConfig::tiny(SyncMode::Locks, 2)).checksum;
    let oo7_ref = oo7::run(&oo7::Oo7Config::tiny(SyncMode::Locks, 2)).checksum;
    for mode in [SyncMode::WeakAtom, SyncMode::StrongNoOpts, SyncMode::StrongWholeProg] {
        assert_eq!(tsp::run(&tsp::TspConfig::tiny(mode, 2)).checksum, tsp_ref);
        assert_eq!(jbb::run(&jbb::JbbConfig::tiny(mode, 2)).checksum, jbb_ref);
        assert_eq!(oo7::run(&oo7::Oo7Config::tiny(mode, 2)).checksum, oo7_ref);
    }
}

/// A non-transactional program loses all its barriers to NAIT while a
/// transactional one keeps exactly the conflicting ones (Figure 12's rule,
/// through the whole stack).
#[test]
fn nait_figure12_end_to_end() {
    let src = "class C { x: int }\n\
               static never_in_txn: ref C;\n\
               static read_in_txn: ref C;\n\
               static written_in_txn: ref C;\n\
               static sink: int;\n\
               fn init() {\n\
                 never_in_txn = new C;\n\
                 read_in_txn = new C;\n\
                 written_in_txn = new C;\n\
               }\n\
               fn main() {\n\
                 atomic { sink = read_in_txn.x; written_in_txn.x = 1; }\n\
                 never_in_txn.x = 10;\n\
                 let a: int = never_in_txn.x;\n\
                 let b: int = read_in_txn.x;\n\
                 read_in_txn.x = 5;\n\
                 let c: int = written_in_txn.x;\n\
                 print a + b + c;\n\
               }";
    let checked = lang::check(lang::parse::parse(src).unwrap()).unwrap();
    let (_, removal) = analysis::analyze_and_remove(&checked.program);
    let mut kept_reads = 0;
    let mut kept_writes = 0;
    for (site, access) in &removal.non_txn_sites {
        if !removal.nait_removes(*site) {
            match access {
                lang::Access::Load => kept_reads += 1,
                _ => kept_writes += 1,
            }
        }
    }
    // Kept: the load of written_in_txn.x (object written in txn) and the
    // store read_in_txn.x = 5 (object read in txn). Everything touching
    // never_in_txn is removed, as are the static-cell loads of names only
    // read in transactions per Figure 12's "only read" row.
    assert_eq!(kept_writes, 1, "exactly the store to a txn-read object stays");
    assert!(kept_reads >= 1, "the load of the txn-written object stays");
}

/// Retry + threads + barriers: a producer/consumer handshake through the
/// strongly atomic system.
#[test]
fn retry_handshake_strong() {
    let heap = Heap::new(StmConfig::strong_default());
    let s = heap.define_shape(Shape::new(
        "Slot",
        vec![FieldDef::int("full"), FieldDef::int("data")],
    ));
    let slot = heap.alloc_public(s);
    let consumer = {
        let heap = std::sync::Arc::clone(&heap);
        std::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..10 {
                let v = atomic(&heap, |tx| {
                    if tx.read(slot, 0)? == 0 {
                        return tx.retry();
                    }
                    let v = tx.read(slot, 1)?;
                    tx.write(slot, 0, 0)?;
                    Ok(v)
                });
                got.push(v);
            }
            got
        })
    };
    for i in 0..10u64 {
        atomic(&heap, |tx| {
            if tx.read(slot, 0)? == 1 {
                return tx.retry();
            }
            tx.write(slot, 1, i * i)?;
            tx.write(slot, 0, 1)
        });
    }
    let got = consumer.join().unwrap();
    assert_eq!(got, (0..10).map(|i| i * i).collect::<Vec<u64>>());
}
