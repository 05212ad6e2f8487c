//! Integration: the real STM protocols running under the simulated
//! multiprocessor. These tests pin down the properties the paper's
//! scalability figures (18–20) rely on: correctness is unchanged under
//! simulation, independent transactional work scales with processors, and
//! contended work does not.

use simsched::{Machine, SimConfig};
use std::sync::Arc;
use stm_core::prelude::*;

fn counter_heap() -> (Arc<Heap>, ShapeId) {
    let heap = Heap::new(StmConfig::default());
    let s = heap.define_shape(Shape::new("C", vec![FieldDef::int("n")]));
    (heap, s)
}

#[test]
fn transactions_are_correct_under_simulation() {
    let (heap, s) = counter_heap();
    let c = heap.alloc_public(s);
    let machine = Machine::new(SimConfig::with_processors(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let heap = Arc::clone(&heap);
            machine.spawn(move || {
                for _ in 0..100 {
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
    assert_eq!(heap.read_raw(c, 0), 400);
    assert!(machine.report().makespan > 0);
}

fn disjoint_counters_makespan(processors: usize, threads: usize) -> u64 {
    let (heap, s) = counter_heap();
    let counters: Vec<ObjRef> = (0..threads).map(|_| heap.alloc_public(s)).collect();
    let machine = Machine::new(SimConfig::with_processors(processors));
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let heap = Arc::clone(&heap);
            let c = counters[i];
            machine.spawn(move || {
                for _ in 0..200 {
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
    machine.report().makespan
}

#[test]
fn disjoint_transactions_scale_with_processors() {
    let one = disjoint_counters_makespan(1, 8);
    let eight = disjoint_counters_makespan(8, 8);
    let speedup = one as f64 / eight as f64;
    assert!(
        speedup > 4.0,
        "disjoint txns should scale: 1p={one}, 8p={eight}, speedup={speedup:.2}"
    );
}

#[test]
fn contended_transactions_do_not_scale() {
    // All threads increment one counter: adding processors cannot help much.
    let run = |processors: usize| {
        let (heap, s) = counter_heap();
        let c = heap.alloc_public(s);
        let machine = Machine::new(SimConfig::with_processors(processors));
        let handles: Vec<_> = (0..processors.max(2))
            .map(|_| {
                let heap = Arc::clone(&heap);
                machine.spawn(move || {
                    for _ in 0..100 {
                        atomic(&heap, |tx| {
                            let v = tx.read(c, 0)?;
                            tx.write(c, 0, v + 1)
                        });
                    }
                })
            })
            .collect();
        machine.start();
        let n = handles.len();
        for h in handles {
            h.join();
        }
        (machine.report().makespan, n)
    };
    let (m2, n2) = run(2);
    let (m8, n8) = run(8);
    // Normalize per transaction executed.
    let per2 = m2 as f64 / (n2 * 100) as f64;
    let per8 = m8 as f64 / (n8 * 100) as f64;
    assert!(
        per8 > per2 * 0.5,
        "serialized counter shows no superlinear gain: per2={per2:.1} per8={per8:.1}"
    );
}

/// Everything a simulated run reports: makespan, per-processor busy
/// cycles and the heap's counters.
type RunOutcome = (u64, Vec<u64>, StatsSnapshot);

/// `threads` vthreads on as many processors each commit `txns`
/// transactions over a shared pool of `objects` counters; transaction `k`
/// of thread `t` increments `writes` of them, starting at `(k + t) % objects`
/// with stride 3 so that rivals' write sets overlap.
fn contended_writes(threads: usize, objects: usize, writes: usize, txns: usize) -> RunOutcome {
    let (heap, s) = counter_heap();
    let objs: Arc<Vec<ObjRef>> = Arc::new((0..objects).map(|_| heap.alloc_public(s)).collect());
    let machine = Machine::new(SimConfig::with_processors(threads));
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let heap = Arc::clone(&heap);
            let objs = Arc::clone(&objs);
            machine.spawn(move || {
                for k in 0..txns {
                    atomic(&heap, |tx| {
                        for w in 0..writes {
                            let o = objs[(k + t + 3 * w) % objects];
                            let v = tx.read(o, 0)?;
                            tx.write(o, 0, v + 1)?;
                        }
                        Ok(())
                    });
                }
            })
        })
        .collect();
    machine.start();
    for h in handles {
        h.join();
    }
    let total: u64 = objs.iter().map(|&o| heap.read_raw(o, 0)).sum();
    assert_eq!(total, (threads * txns * writes) as u64, "every increment committed");
    let report = machine.report();
    (report.makespan, report.proc_busy, heap.stats().snapshot())
}

#[test]
fn simulation_is_deterministic_with_stm() {
    // Inputs are (threads, objects, writes per transaction, transactions
    // per thread): one hot counter; and transactions that each own three
    // records, so the release at commit drains a multi-entry owned set
    // while a rival waits on one of them.
    for input in [(4, 1, 1, 50), (2, 4, 3, 100)] {
        let (threads, objects, writes, txns) = input;
        let first = contended_writes(threads, objects, writes, txns);
        for _ in 0..4 {
            let again = contended_writes(threads, objects, writes, txns);
            assert_eq!(again, first, "{input:?}: same program, same simulated outcome");
        }
    }
}

#[test]
fn strong_barriers_cost_more_than_weak_in_virtual_time() {
    let run = |mode: BarrierMode| {
        let (heap, s) = counter_heap();
        let objs: Vec<ObjRef> = (0..64).map(|_| heap.alloc_public(s)).collect();
        let machine = Machine::new(SimConfig::with_processors(1));
        let heap2 = Arc::clone(&heap);
        let h = machine.spawn(move || {
            for k in 0..2000u64 {
                let o = objs[(k % 64) as usize];
                let v = read_access(&heap2, mode, o, 0);
                write_access(&heap2, mode, o, 0, v + 1);
            }
        });
        machine.start();
        h.join();
        machine.report().makespan
    };
    let weak = run(BarrierMode::Weak);
    let strong = run(BarrierMode::Strong);
    let overhead = strong as f64 / weak as f64;
    // Paper Figure 15: unoptimized strong atomicity costs multiples of the
    // weak execution (up to 8x for barrier-dense code).
    assert!(
        overhead > 3.0,
        "strong {strong} vs weak {weak}: overhead {overhead:.2}x"
    );
}
