//! Experiment runners: one function per table/figure of the paper's
//! evaluation. Each returns a formatted report string (and the `repro`
//! binary prints them); EXPERIMENTS.md records representative output.

use litmus::privatization::privatization_outcome;
use litmus::{anomaly_matrix, render_matrix, Mode};
use std::fmt::Write as _;
use std::time::Instant;
use stm_core::config::BarrierMode;
use tmir::sites::BarrierTable;
use tmir_analysis::nait::analyze_and_remove;
use workloads::jbb::JbbConfig;
use workloads::jvm98::{Kernel, KernelConfig, OptLevel};
use workloads::oo7::Oo7Config;
use workloads::scale::{Outcome, SyncMode};
use workloads::tsp::TspConfig;

/// Thread counts swept in the scalability figures (paper: 1–16).
pub const THREADS: [usize; 5] = [1, 2, 4, 8, 16];

/// Figures 1–5: each anomaly litmus under each regime, plus the §3.4
/// quiescence variants of the privatization idiom.
pub fn figs_1_to_5() -> String {
    let mut out = String::new();
    writeln!(out, "== Figures 1-5: anomaly litmus tests ==\n").unwrap();
    for a in litmus::Anomaly::ALL {
        write!(out, "{:<4} ({:>13}):", a.abbrev(), a.access_pattern()).unwrap();
        for mode in Mode::FIGURE6 {
            let observed = a.observe(mode);
            write!(out, "  {}={}", mode.label(), if observed { "YES" } else { "no " }).unwrap();
        }
        writeln!(out).unwrap();
    }
    writeln!(out, "\nFigure 1 privatization (r1, r2) by regime:").unwrap();
    for (label, mode, q) in [
        ("eager weak", Mode::EagerWeak, false),
        ("eager weak + quiescence", Mode::EagerWeak, true),
        ("lazy weak", Mode::LazyWeak, false),
        ("lazy weak + quiescence", Mode::LazyWeak, true),
        ("locks", Mode::Locks, false),
        ("strong", Mode::Strong, false),
    ] {
        let o = privatization_outcome(mode, q);
        writeln!(
            out,
            "  {label:<26} r1={} r2={}  {}",
            o.r1,
            o.r2,
            if o.anomalous() { "VIOLATED" } else { "ok" }
        )
        .unwrap();
    }
    out
}

/// Figure 6: the anomaly matrix, checked against the published values.
pub fn fig6() -> String {
    let got = anomaly_matrix();
    let want = litmus::expected_matrix();
    let mut out = String::new();
    writeln!(out, "== Figure 6: summary of weak atomicity behaviors ==\n").unwrap();
    out.push_str(&render_matrix(&got));
    writeln!(
        out,
        "\nmatches paper: {}",
        if got == want { "YES (all 32 cells)" } else { "NO" }
    )
    .unwrap();
    out
}

/// Figure 13: static barrier-removal counts on the TMIR benchmark suite,
/// plus the dynamic effect measured on the bytecode VM: NAIT's verdicts
/// are applied to the instruction stream (`apply_nait_bytecode`) and the
/// per-site counters report how many barrier executions that saved.
pub fn fig13() -> String {
    let mut out = String::new();
    writeln!(out, "== Figure 13: barriers removed by NAIT vs TL (static counts) ==\n").unwrap();
    for (name, checked) in workloads::tmir_sources::all() {
        let (_, removal) = analyze_and_remove(&checked.program);
        out.push_str(&removal.report().render(name));
    }
    writeln!(
        out,
        "\nShape checks (paper): NAIT removes all barriers in the non-transactional\n\
         jvm98 suite; NAIT-TL > 0 on tsp (spawn-reachable worker state);\n\
         TL-NAIT > 0 on jbb (thread-local objects touched in transactions)."
    )
    .unwrap();
    writeln!(out, "\nDynamic counts (bytecode VM, strong table):").unwrap();
    for (name, checked) in workloads::tmir_sources::all() {
        let table = BarrierTable::strong(&checked.program);
        let run = |cp| {
            let vm = tmir::vm::BytecodeVm::new(cp, tmir::vm::BcVmConfig::default());
            vm.run().unwrap_or_else(|e| panic!("{name}: {e}"));
            vm.barrier_stats()
        };
        let strong = run(tmir::compile(&checked, &table));
        let mut cp = tmir::compile(&checked, &table);
        let (_, removal) = analyze_and_remove(&checked.program);
        let rewritten = removal.apply_nait_bytecode(&mut cp);
        let nait = run(cp);
        writeln!(
            out,
            "  {name:<8} strong executed={:<7} NAIT: {rewritten} opcodes elided -> \
             executed={:<7} ({} dynamic barriers saved)",
            strong.executed,
            nait.executed,
            strong.executed - nait.executed.min(strong.executed),
        )
        .unwrap();
    }
    out
}

/// Figure 14: barrier aggregation on the paper's example, as a bytecode
/// peephole pass executed on the VM.
///
/// # Panics
/// Panics if the bytecode counts deviate from the figure: one static
/// region of 3 sites, and per run two region entries covering all 6
/// dynamic accesses with exactly 2 barrier acquisitions.
pub fn fig14() -> String {
    let src = "class A { x: int, y: int }\n\
               fn work(a: ref A) { a.x = 0; a.y = a.y + 1; }\n\
               fn main() { let a: ref A = new A; work(a); work(a); print a.y; }";
    let checked = tmir::types::check(tmir::parse::parse(src).unwrap()).unwrap();
    let table = BarrierTable::strong(&checked.program);
    let before = table.counts();

    // Compile to bytecode, fuse with the peephole pass, execute on the VM,
    // and read the dynamic counters.
    let mut cp = tmir::compile(&checked, &table);
    let report = tmir::bytecode::optimize(
        &mut cp,
        tmir::bytecode::PassOptions { immutable: false, escape: false, aggregate: true },
    );
    let vm = tmir::vm::BytecodeVm::new(cp, tmir::vm::BcVmConfig::default());
    let r = vm.run().expect("runs");
    let bars = vm.barrier_stats();

    let mut out = String::new();
    writeln!(out, "== Figure 14: barrier aggregation (bytecode peephole) ==\n").unwrap();
    writeln!(out, "source:          a.x = 0; a.y = a.y + 1;").unwrap();
    writeln!(
        out,
        "barriers before: {} reads + {} writes (per execution of work)",
        before.0, before.1
    )
    .unwrap();
    writeln!(
        out,
        "bytecode pass:   {} region(s) covering {} access opcodes -> 1 acquire/release",
        report.regions, report.aggregated_sites
    )
    .unwrap();
    writeln!(
        out,
        "executed:        output {:?}; {} region entries served {} accesses with\n\
                 {} barrier acquisitions (3 barriers/call -> 1)",
        r.output, bars.regions, bars.aggregated, r.stats.write_barriers
    )
    .unwrap();
    assert_eq!(report.regions, 1, "one static region");
    assert_eq!(report.aggregated_sites, 3, "x-write, y-read, y-write fused");
    assert_eq!(bars.regions, 2, "work() runs twice");
    assert_eq!(bars.aggregated, 6, "all six dynamic accesses inside the region");
    assert_eq!(r.stats.write_barriers, 2, "one acquisition per region entry");
    out
}

fn measure_kernel(kernel: Kernel, level: OptLevel, barriers: BarrierMode, scale: usize) -> f64 {
    let cfg = KernelConfig { level, barriers, scale };
    // Warm-up + best-of-3, paper-style steady state.
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let heap = cfg.heap();
        let t0 = Instant::now();
        std::hint::black_box(kernel.run(&heap, &cfg));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn overhead_table(barriers: BarrierMode, title: &str, scale: usize) -> String {
    let levels = [
        OptLevel::NoOpts,
        OptLevel::BarrierElim,
        OptLevel::BarrierAggr,
        OptLevel::Dea,
        OptLevel::Nait,
    ];
    let mut out = String::new();
    writeln!(out, "== {title} ==\n").unwrap();
    write!(out, "{:<12}", "benchmark").unwrap();
    for l in levels {
        write!(out, "{:>15}", l.label()).unwrap();
    }
    writeln!(out).unwrap();
    for kernel in Kernel::ALL {
        let base = measure_kernel(kernel, OptLevel::Baseline, barriers, scale);
        write!(out, "{:<12}", kernel.name()).unwrap();
        for level in levels {
            let t = measure_kernel(kernel, level, barriers, scale);
            let overhead = (t / base - 1.0) * 100.0;
            write!(out, "{:>14.0}%", overhead.max(0.0)).unwrap();
        }
        writeln!(out).unwrap();
    }
    writeln!(
        out,
        "\n(overhead vs unbarriered baseline; NAIT = all barriers statically removed)"
    )
    .unwrap();
    out
}

/// Figure 15: strong-atomicity overhead on the JVM98 kernels, cumulative
/// optimizations.
pub fn fig15(scale: usize) -> String {
    overhead_table(
        BarrierMode::Strong,
        "Figure 15: overhead of strong atomicity (read + write barriers)",
        scale,
    )
}

/// Figure 16: read-barrier-only overhead.
pub fn fig16(scale: usize) -> String {
    overhead_table(BarrierMode::ReadOnly, "Figure 16: read-barrier-only overhead", scale)
}

/// Figure 17: write-barrier-only overhead.
pub fn fig17(scale: usize) -> String {
    overhead_table(BarrierMode::WriteOnly, "Figure 17: write-barrier-only overhead", scale)
}

fn scalability_table(
    title: &str,
    run: impl Fn(SyncMode, usize) -> Outcome,
) -> String {
    let mut out = String::new();
    writeln!(out, "== {title} ==").unwrap();
    writeln!(
        out,
        "(simulated 16-way multiprocessor; cells = throughput speedup vs 1-thread\n\
         Synch; Mcycles makespan in parens)\n"
    )
    .unwrap();
    let base = run(SyncMode::Locks, 1).throughput();
    write!(out, "{:<15}", "mode").unwrap();
    for t in THREADS {
        write!(out, "{:>16}", format!("{t} thr")).unwrap();
    }
    writeln!(out).unwrap();
    for mode in SyncMode::ALL {
        write!(out, "{:<15}", mode.label()).unwrap();
        for t in THREADS {
            let o = run(mode, t);
            let speedup = o.throughput() / base;
            write!(
                out,
                "{:>16}",
                format!("{:.2}x ({:.2})", speedup, o.makespan as f64 / 1e6)
            )
            .unwrap();
        }
        writeln!(out).unwrap();
    }
    out
}

/// Figure 18: Tsp scalability.
pub fn fig18() -> String {
    scalability_table("Figure 18: Tsp execution over multiple threads", |mode, t| {
        workloads::tsp::run(&TspConfig::fig18(mode, t))
    })
}

/// Figure 19: OO7 scalability.
pub fn fig19() -> String {
    scalability_table("Figure 19: OO7 execution over multiple threads", |mode, t| {
        workloads::oo7::run(&Oo7Config::fig19(mode, t))
    })
}

/// Figure 20: SpecJBB scalability.
pub fn fig20() -> String {
    scalability_table("Figure 20: SpecJBB execution over multiple threads", |mode, t| {
        workloads::jbb::run(&JbbConfig::fig20(mode, t))
    })
}

/// Contention-policy shootout: the same hot-object mix of transactional and
/// barriered traffic under each [`ContentionPolicy`], reported through the
/// heap's abort telemetry ([`stm_core::heap::Heap::stats_snapshot`]).
///
/// Not a figure of the paper — the paper fixes one bounded conflict manager
/// (§2.1) — but the telemetry makes the policies' different wait/abort
/// trade-offs visible on the paper's own workload shape.
pub fn contention() -> String {
    use stm_core::config::StmConfig;
    use stm_core::contention::ContentionPolicy;
    use stm_core::heap::{FieldDef, Heap, Shape};
    use stm_core::txn::atomic;

    const THREADS: usize = 4;
    const OPS: usize = 400;

    let mut out = String::new();
    writeln!(out, "== Contention policies: abort telemetry on a hot object set ==").unwrap();
    writeln!(
        out,
        "({} threads x {} ops, 2 shared objects; 50% txn increments,\n\
         25% barrier writes, 25% barrier reads)\n",
        THREADS, OPS
    )
    .unwrap();
    for policy in ContentionPolicy::ALL {
        let heap = Heap::new(StmConfig {
            contention: policy,
            ..StmConfig::default()
        });
        let shape = heap.define_shape(Shape::new(
            "Hot",
            vec![FieldDef::int("n"), FieldDef::int("side")],
        ));
        let objs = [heap.alloc_public(shape), heap.alloc_public(shape)];
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let heap = std::sync::Arc::clone(&heap);
                std::thread::spawn(move || {
                    let mut rng = 0xA5A5_5A5Au64.wrapping_mul(t as u64 + 1) | 1;
                    let mut next = move || {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        rng
                    };
                    for i in 0..OPS {
                        let pick = next() as usize % objs.len();
                        let o = objs[pick];
                        match next() % 4 {
                            // Two-object increment with a deliberate yield
                            // while holding the first record: on few-core
                            // hosts transactions otherwise never overlap, so
                            // the handoff manufactures the ownership windows
                            // the policies exist to arbitrate.
                            0 | 1 => atomic(&heap, |tx| {
                                let a = objs[pick];
                                let b = objs[1 - pick];
                                let va = tx.read(a, 0)?;
                                tx.write(a, 0, va + 1)?;
                                std::thread::yield_now();
                                let vb = tx.read(b, 1)?;
                                tx.write(b, 1, vb | 1)
                            }),
                            2 => stm_core::barrier::write_barrier(&heap, o, 1, i as u64),
                            _ => {
                                let _ = stm_core::barrier::read_barrier(&heap, o, 0);
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = heap.stats_snapshot();
        writeln!(
            out,
            "-- policy: {:<10} commits={} aborts={} (self={}, validation={})",
            policy.label(),
            snap.commits,
            snap.aborts,
            snap.total_self_aborts(),
            snap.aborts_validation,
        )
        .unwrap();
        out.push_str(&snap.render_contention());
        writeln!(out).unwrap();
    }
    out.push_str(
        "(aggressive trades waits for aborts; backoff bounds both; karma\n\
         shifts aborts onto the younger transaction)\n",
    );
    out
}

/// Chaos campaign: `count` seeded fault-injection runs starting at
/// `first_seed`, each swept across both versioning engines, the
/// multiversion axis (version rings off and on, with declared read-only
/// transactions in the op mix), all three contention policies, and both
/// conflict-detection granularities, with
/// [`Heap::audit`](stm_core::heap::Heap::audit) as the oracle after every
/// run.
///
/// Each run arms [`stm_core::fault::FaultPlan::seeded`] — injected delays,
/// forced aborts, and mid-critical-section panics are a pure function of
/// (seed, global event index) — and hammers a hot object set from three
/// threads with transactional increments, allocate-and-publish
/// transactions, and non-transactional barriers. Panic-safe rollback and
/// the stuck-owner watchdog are both on; a failed audit (stranded record,
/// undrained recovery log, version regression, privacy leak) fails the
/// whole campaign and prints the offending `(seed, engine, policy)`.
///
/// # Panics
/// Panics if any run's audit reports a finding, or (for campaigns of 8+
/// seeds) if the plan never actually fired a panic while a record was held
/// in `Exclusive` state — the scenario the auditor exists to check.
pub fn chaos(first_seed: u64, count: u64) -> String {
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use stm_core::config::{
        AdmissionConfig, ClockMode, Granularity, IsolationLevel, StmConfig, TxnPolicy, Versioning,
    };
    use stm_core::contention::ContentionPolicy;
    use stm_core::fault::{FaultPlan, FaultSite, InjectedPanic};
    use stm_core::heap::{FieldDef, Heap, Shape};
    use stm_core::txn::{atomic, try_atomic_read_only, try_atomic_with};
    use stm_core::watchdog::WatchdogConfig;

    const THREADS: u64 = 3;
    const OPS: u64 = 80;

    // Injected panics are expected by the hundreds; keep the default hook's
    // per-panic stderr report for *real* panics only.
    let prev_hook: Arc<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send> =
        Arc::from(std::panic::take_hook());
    let filtered = Arc::clone(&prev_hook);
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<InjectedPanic>().is_none() {
            filtered(info);
        }
    }));

    let injected_panics = Arc::new(AtomicU64::new(0));
    // Panics drawn at the eager post-write site fire while the transaction
    // holds the written record in `Exclusive` state — the acceptance case.
    let exclusive_panics = Arc::new(AtomicU64::new(0));
    let mut failures: Vec<String> = Vec::new();
    let mut commits = 0u64;
    let mut aborts = 0u64;
    let mut delays = 0u64;
    let mut forced = 0u64;
    let mut rollbacks = 0u64;
    let mut reclaims = 0u64;
    let mut deadline_stops = 0u64;
    let mut retry_stops = 0u64;
    let mut admission_stops = 0u64;
    let mut escalations = 0u64;

    // A deliberately small striped table (64 slots) so the hot objects and
    // the freshly published ones actually share stripes during the chaos.
    let granularities = [Granularity::PerObject, Granularity::Striped { stripes: 64 }];
    // The hostile half of every configuration runs its transactional ops
    // under a tight progress policy (small deadline, thin retry budget,
    // quick escalation) with admission control armed — so every
    // deadline/budget/admission abort path and the serialized escalation
    // path face the same injected faults the lenient half does.
    // The clock-mode axis: every configuration runs on the global clock
    // and again on the thread-local (GV5) clock. A heap with multiversion
    // on coerces the thread-local clock back to global; those cases
    // exercise the coercion rather than being skipped.
    let mut cases = Vec::new();
    for multiversion in [false, true] {
        for isolation in IsolationLevel::ALL {
            for granularity in granularities {
                for policy in ContentionPolicy::ALL {
                    for clock in [ClockMode::Global, ClockMode::ThreadLocal] {
                        for hostile in [false, true] {
                            cases.push((
                                multiversion,
                                isolation,
                                granularity,
                                policy,
                                clock,
                                hostile,
                            ));
                        }
                    }
                }
            }
        }
    }

    for seed in first_seed..first_seed + count {
        for versioning in [Versioning::Eager, Versioning::Lazy] {
            for &(multiversion, isolation, granularity, policy, clock, hostile) in &cases {
                let heap = Heap::new(StmConfig {
                    versioning,
                    granularity,
                    contention: policy,
                    isolation,
                    multiversion,
                    clock,
                    dea: true,
                    fault: Some(FaultPlan::seeded(seed)),
                    watchdog: WatchdogConfig { enabled: true, spin_budget: 64 },
                    panic_safety: true,
                    // A deliberately jumpy gate (small window, low close
                    // threshold): hostile chaos runs sit near a 40-60% abort
                    // ratio, so the default 80% gate would never close and
                    // the admission-reject path would go unexercised.
                    admission: hostile.then_some(AdmissionConfig {
                        window: 16,
                        reject_above_permille: 400,
                        reopen_below_permille: 200,
                    }),
                    ..StmConfig::default()
                });
                let shape = heap.define_shape(Shape::new(
                    "Hot",
                    vec![
                        FieldDef::int("n"),
                        FieldDef::int("side"),
                        FieldDef::reference("link"),
                    ],
                ));
                let objs = [heap.alloc_public(shape), heap.alloc_public(shape)];
                let handles: Vec<_> = (0..THREADS)
                    .map(|t| {
                        let heap = Arc::clone(&heap);
                        let injected = Arc::clone(&injected_panics);
                        let exclusive = Arc::clone(&exclusive_panics);
                        std::thread::spawn(move || {
                            let mut rng = seed
                                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                                .wrapping_add(t + 1)
                                | 1;
                            let mut next = move || {
                                rng ^= rng << 13;
                                rng ^= rng >> 7;
                                rng ^= rng << 17;
                                rng
                            };
                            // The hostile policy: tight enough that injected
                            // forced aborts actually burn the budget and
                            // drive every escalation rung under chaos.
                            let tight = TxnPolicy {
                                deadline: Some(96),
                                max_retries: Some(4),
                                boost_after: 2,
                                serialize_after: 3,
                                isolation: None,
                            };
                            // Deadline-dominant companion: no retry budget to
                            // win the race, so the only stop this block can
                            // reach is `DeadlineExceeded` at a wait site.
                            let impatient = TxnPolicy::default().with_deadline(8);
                            for i in 0..OPS {
                                let o = objs[next() as usize % objs.len()];
                                let op = next() % 6;
                                let run = catch_unwind(AssertUnwindSafe(|| match op {
                                    // Transactional increment of the hot
                                    // field. The hostile half treats a typed
                                    // policy stop as a shed request.
                                    0 | 1 if hostile => {
                                        let p = if op == 0 { tight } else { impatient };
                                        let _ = try_atomic_with(&heap, p, |tx| {
                                            let v = tx.read(o, 0)?;
                                            tx.write(o, 0, v + 1)?;
                                            std::thread::yield_now();
                                            tx.write(o, 1, i)
                                        });
                                    }
                                    0 | 1 => atomic(&heap, |tx| {
                                        let v = tx.read(o, 0)?;
                                        tx.write(o, 0, v + 1)?;
                                        std::thread::yield_now();
                                        tx.write(o, 1, i)
                                    }),
                                    // Allocate privately, publish through the
                                    // reference field (exercises the DEA
                                    // invariants the auditor checks).
                                    2 if hostile => {
                                        let _ = try_atomic_with(&heap, tight, |tx| {
                                            let p = tx.alloc(shape);
                                            tx.write(p, 0, i)?;
                                            tx.write_ref(o, 2, Some(p))
                                        });
                                    }
                                    2 => atomic(&heap, |tx| {
                                        let p = tx.alloc(shape);
                                        tx.write(p, 0, i)?;
                                        tx.write_ref(o, 2, Some(p))
                                    }),
                                    // Non-transactional barrier traffic.
                                    3 => stm_core::barrier::write_barrier(&heap, o, 1, i),
                                    4 => {
                                        let _ = stm_core::barrier::read_barrier(&heap, o, 0);
                                    }
                                    // Declared read-only transaction: the
                                    // wait-free snapshot path when the
                                    // multiversion axis is on, the ordinary
                                    // validated path when it is off. Under
                                    // admission control it may be shed, so
                                    // the fallible entry point is used.
                                    _ => {
                                        let _ = try_atomic_read_only(&heap, |tx| {
                                            let a = tx.read(o, 0)?;
                                            let b = tx.read(o, 1)?;
                                            Ok(a.wrapping_add(b))
                                        });
                                    }
                                }));
                                if let Err(payload) = run {
                                    match payload.downcast_ref::<InjectedPanic>() {
                                        Some(p) => {
                                            injected.fetch_add(1, Ordering::Relaxed);
                                            if versioning == Versioning::Eager
                                                && p.site == FaultSite::PostWrite
                                            {
                                                exclusive.fetch_add(1, Ordering::Relaxed);
                                            }
                                        }
                                        // A real bug, not an injected fault:
                                        // let it fail the campaign loudly.
                                        None => resume_unwind(payload),
                                    }
                                }
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().unwrap();
                }

                let report = heap.audit();
                if !report.is_clean() {
                    failures.push(format!(
                        "seed={seed} engine={versioning:?} isolation={} records={} \
                         policy={} multiversion={multiversion} clock={clock:?} \
                         hostile={hostile}:\n{report}",
                        isolation.label(),
                        granularity.label(),
                        policy.label()
                    ));
                }
                let snap = heap.stats_snapshot();
                commits += snap.commits;
                aborts += snap.aborts;
                delays += snap.faults_delays;
                forced += snap.faults_forced_aborts;
                rollbacks += snap.panic_rollbacks;
                reclaims += snap.orphan_reclaims;
                deadline_stops += snap.deadline_aborts;
                retry_stops += snap.retries_exhausted;
                admission_stops += snap.admission_rejects;
                escalations += snap.escalations_to_serial;
            }
        }
    }

    std::panic::set_hook(Box::new(move |info| prev_hook(info)));

    let injected = injected_panics.load(Ordering::Relaxed);
    let exclusive = exclusive_panics.load(Ordering::Relaxed);
    let runs = count * 2 /* engines */ * cases.len() as u64;
    let mut out = String::new();
    writeln!(out, "== Chaos campaign: seeded faults vs the heap auditor ==\n").unwrap();
    writeln!(
        out,
        "seeds {first_seed}..{} x {{eager, lazy}} x {{mv-off, mv-on}} x \
         {{strong, snapshot, quiescence}} x {{per-object, striped:64}} x \
         {{aggressive, backoff, karma}} x {{global, tl-clock}} x \
         {{lenient, hostile}} = {runs} runs ({THREADS} threads x {OPS} ops each)",
        first_seed + count
    )
    .unwrap();
    writeln!(out, "commits={commits} aborts={aborts}").unwrap();
    writeln!(
        out,
        "injected: delays={delays} forced-aborts={forced} panics={injected} \
         (while Exclusive: {exclusive})"
    )
    .unwrap();
    writeln!(out, "recovered: panic-rollbacks={rollbacks} orphan-reclaims={reclaims}").unwrap();
    writeln!(
        out,
        "policy stops: deadline={deadline_stops} retry-exhausted={retry_stops} \
         admission-rejects={admission_stops} escalations-to-serial={escalations}"
    )
    .unwrap();
    writeln!(
        out,
        "audits: {}/{} clean{}",
        runs - failures.len() as u64,
        runs,
        if failures.is_empty() { "" } else { " -- FAILURES:" }
    )
    .unwrap();
    for f in &failures {
        writeln!(out, "{f}").unwrap();
    }
    assert!(failures.is_empty(), "chaos campaign audit failures:\n{out}");
    if count >= 8 {
        assert!(injected > 0, "campaign never drew an injected panic:\n{out}");
        assert!(
            exclusive > 0,
            "campaign never panicked while holding an Exclusive record:\n{out}"
        );
        assert!(
            escalations > 0,
            "hostile runs never escalated a block to serialized mode:\n{out}"
        );
        assert!(
            retry_stops > 0,
            "hostile runs never exhausted a retry budget:\n{out}"
        );
        assert!(
            deadline_stops > 0,
            "hostile runs never stopped on a transaction deadline:\n{out}"
        );
        assert!(
            admission_stops > 0,
            "hostile runs never shed a block at the admission gate:\n{out}"
        );
    }
    out
}

/// One measured cell of the granularity experiment.
struct GranRow {
    workload: &'static str,
    granularity: String,
    threads: usize,
    ops: u64,
    elapsed_s: f64,
    commits: u64,
    aborts: u64,
    conflicts: u64,
    /// Conflicts on the *disjoint* workload, where no two threads ever touch
    /// the same object: every one of them is a false conflict manufactured
    /// by slot sharing in the striped table.
    false_conflicts: Option<u64>,
}

impl GranRow {
    fn throughput(&self) -> f64 {
        self.ops as f64 / self.elapsed_s
    }

    fn json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"granularity\":\"{}\",\"threads\":{},\"ops\":{},\
             \"elapsed_s\":{:.6},\"throughput_ops_per_s\":{:.1},\"commits\":{},\
             \"aborts\":{},\"conflicts\":{},\"false_conflict_rate\":{}}}",
            self.workload,
            self.granularity,
            self.threads,
            self.ops,
            self.elapsed_s,
            self.throughput(),
            self.commits,
            self.aborts,
            self.conflicts,
            match self.false_conflicts {
                Some(fc) => format!("{:.6}", fc as f64 / self.ops.max(1) as f64),
                None => "null".to_string(),
            },
        )
    }
}

/// Runs one granularity workload cell and snapshots its telemetry.
///
/// * `disjoint = false` — `threads` threads hammer a 4-object hot set with
///   two-object read-modify-write transactions: every conflict is real, so
///   both tables should pay comparable contention.
/// * `disjoint = true` — each thread owns a private 64-object slice of one
///   shared array and only ever touches its own slice: the per-object table
///   runs conflict-free, and every conflict the striped table reports is a
///   false one (two private objects hashing onto the same slot).
fn granularity_case(
    granularity: stm_core::config::Granularity,
    threads: usize,
    disjoint: bool,
    ops_per_thread: u64,
) -> GranRow {
    use std::sync::Arc;
    use stm_core::config::StmConfig;
    use stm_core::heap::{FieldDef, Heap, Shape};
    use stm_core::txn::atomic;

    const SLICE: usize = 64;
    let heap = Heap::new(StmConfig::default().with_granularity(granularity));
    let shape = heap.define_shape(Shape::new(
        "Cell",
        vec![FieldDef::int("n"), FieldDef::int("side")],
    ));
    let objects: Vec<_> = (0..if disjoint { threads * SLICE } else { 4 })
        .map(|_| heap.alloc_public(shape))
        .collect();

    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let heap = Arc::clone(&heap);
            let objects = objects.clone();
            std::thread::spawn(move || {
                let mut rng = 0x9E37_79B9u64.wrapping_mul(t as u64 + 1) | 1;
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                for i in 0..ops_per_thread {
                    let (a, b) = if disjoint {
                        let base = t * SLICE;
                        let a = base + next() as usize % SLICE;
                        let b = base + next() as usize % SLICE;
                        (objects[a], objects[b])
                    } else {
                        let a = next() as usize % objects.len();
                        (objects[a], objects[(a + 1) % objects.len()])
                    };
                    atomic(&heap, |tx| {
                        let v = tx.read(a, 0)?;
                        tx.write(a, 0, v + 1)?;
                        let w = tx.read(b, 1)?;
                        tx.write(b, 1, w.wrapping_add(i))
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let snap = heap.stats_snapshot();
    let conflicts = snap.total_conflicts();
    GranRow {
        workload: if disjoint { "disjoint" } else { "contended" },
        granularity: granularity.label(),
        threads,
        ops: threads as u64 * ops_per_thread,
        elapsed_s,
        commits: snap.commits,
        aborts: snap.aborts,
        conflicts,
        false_conflicts: disjoint.then_some(conflicts),
    }
}

/// Conflict-detection granularity shootout: per-object embedded records vs
/// the TL2-style striped ownership-record table, across a stripe-count
/// sweep, on one truly contended and one truly disjoint workload, plus a
/// thread-scaling sweep. Writes machine-readable rows to
/// `BENCH_granularity.json` next to the report.
///
/// The disjoint workload is the false-conflict probe: threads never share an
/// object, so the per-object row must report (near-)zero conflicts and every
/// striped conflict is a collision of two unrelated objects on one slot —
/// the isolation cost of striping that shrinks as the table grows.
pub fn granularity(ops_per_thread: u64) -> String {
    granularity_to(ops_per_thread, std::path::Path::new("BENCH_granularity.json"))
}

/// [`granularity`] with an explicit artifact path (tests point it at a
/// temporary directory).
pub fn granularity_to(ops_per_thread: u64, artifact: &std::path::Path) -> String {
    use stm_core::config::Granularity;

    const THREADS: usize = 4;
    let sweep = [
        Granularity::PerObject,
        Granularity::Striped { stripes: 16 },
        Granularity::Striped { stripes: 64 },
        Granularity::Striped { stripes: 256 },
        Granularity::Striped { stripes: 1024 },
    ];

    let mut rows: Vec<GranRow> = Vec::new();
    for g in sweep {
        rows.push(granularity_case(g, THREADS, false, ops_per_thread));
        rows.push(granularity_case(g, THREADS, true, ops_per_thread));
    }
    // Thread-scaling sweep on the disjoint workload for the two defaults.
    for g in [Granularity::PerObject, Granularity::striped_default()] {
        for threads in [1usize, 2, 8] {
            rows.push(granularity_case(g, threads, true, ops_per_thread));
        }
    }

    let mut out = String::new();
    writeln!(out, "== Conflict-detection granularity: per-object vs striped orecs ==\n").unwrap();
    writeln!(
        out,
        "({} threads x {} ops unless noted; disjoint = per-thread private slices,\n\
         so every striped conflict there is a FALSE conflict)\n",
        THREADS, ops_per_thread
    )
    .unwrap();
    writeln!(
        out,
        "{:<11} {:<14} {:>4} {:>12} {:>9} {:>7} {:>10} {:>12}",
        "workload", "granularity", "thr", "ops/s", "commits", "aborts", "conflicts", "false-rate"
    )
    .unwrap();
    for r in &rows {
        writeln!(
            out,
            "{:<11} {:<14} {:>4} {:>12.0} {:>9} {:>7} {:>10} {:>12}",
            r.workload,
            r.granularity,
            r.threads,
            r.throughput(),
            r.commits,
            r.aborts,
            r.conflicts,
            match r.false_conflicts {
                Some(fc) => format!("{:.4}", fc as f64 / r.ops.max(1) as f64),
                None => "-".to_string(),
            },
        )
        .unwrap();
    }

    let json = format!(
        "{{\"experiment\":\"granularity\",\"threads_default\":{THREADS},\
         \"ops_per_thread\":{ops_per_thread},\"rows\":[\n  {}\n]}}\n",
        rows.iter().map(GranRow::json).collect::<Vec<_>>().join(",\n  ")
    );
    match std::fs::write(artifact, &json) {
        Ok(()) => {
            writeln!(out, "\nwrote {} ({} rows)", artifact.display(), rows.len()).unwrap()
        }
        Err(e) => writeln!(out, "\nfailed to write {}: {e}", artifact.display()).unwrap(),
    }
    writeln!(
        out,
        "(striping trades memory for false conflicts: the disjoint false-rate\n\
         falls toward the per-object floor as the stripe count grows)"
    )
    .unwrap();
    out
}

/// One measured cell of the transaction-lifecycle scalability experiment.
struct ScaleRow {
    workload: &'static str,
    engine: &'static str,
    threads: usize,
    ops: u64,
    /// Simulated makespan in cycles (virtual time on the simulated
    /// multiprocessor, so the sweep is meaningful on any host core count).
    makespan: u64,
    commits: u64,
    aborts: u64,
    /// Quiescence slots the heap ended with — the registry's bound is the
    /// thread count, independent of how many transactions ran.
    slots: usize,
    /// Throughput relative to the 1-thread row of the same (workload,
    /// engine) group; filled in once the group's base is known.
    speedup: f64,
}

impl ScaleRow {
    /// Committed operations per million simulated cycles.
    fn throughput(&self) -> f64 {
        self.ops as f64 / (self.makespan.max(1) as f64 / 1e6)
    }

    fn json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"engine\":\"{}\",\"threads\":{},\"ops\":{},\
             \"makespan_cycles\":{},\"throughput_ops_per_mcycle\":{:.3},\
             \"speedup_vs_1_thread\":{:.3},\"commits\":{},\"aborts\":{},\"slots\":{}}}",
            self.workload,
            self.engine,
            self.threads,
            self.ops,
            self.makespan,
            self.throughput(),
            self.speedup,
            self.commits,
            self.aborts,
            self.slots,
        )
    }
}

/// Runs one cell of the lifecycle-scalability sweep on the simulated
/// multiprocessor (`threads` workers on `threads` processors), with
/// quiescence on so begin/commit exercises the slot registry.
///
/// * `disjoint = true` — each worker owns a private 32-object slice: zero
///   data conflicts, so any throughput lost to added threads is lifecycle
///   overhead (slot claiming, quiescence scans, liveness registration).
/// * `disjoint = false` — all workers hammer a 4-object hot set: real
///   conflicts dominate and the sweep shows how contention, not the
///   lifecycle, caps scaling.
fn scale_case(
    versioning: stm_core::config::Versioning,
    threads: usize,
    disjoint: bool,
    ops_per_thread: u64,
) -> ScaleRow {
    use std::sync::Arc;
    use stm_core::config::StmConfig;
    use stm_core::heap::{FieldDef, Heap, Shape};
    use stm_core::txn::atomic;
    use workloads::scale::run_workers;

    const SLICE: usize = 32;
    let heap = Heap::new(StmConfig { versioning, quiescence: true, ..StmConfig::default() });
    let shape = heap.define_shape(Shape::new(
        "Cell",
        vec![FieldDef::int("n"), FieldDef::int("side")],
    ));
    let objects: Vec<_> = (0..if disjoint { threads * SLICE } else { 4 })
        .map(|_| heap.alloc_public(shape))
        .collect();

    let worker_heap = Arc::clone(&heap);
    let (makespan, commits, aborts, _) = run_workers(&heap, threads, threads, move |t| {
        let mut rng = 0x9E37_79B9u64.wrapping_mul(t as u64 + 1) | 1;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for i in 0..ops_per_thread {
            let (a, b) = if disjoint {
                let base = t * SLICE;
                (
                    objects[base + next() as usize % SLICE],
                    objects[base + next() as usize % SLICE],
                )
            } else {
                let a = next() as usize % objects.len();
                (objects[a], objects[(a + 1) % objects.len()])
            };
            atomic(&worker_heap, |tx| {
                let v = tx.read(a, 0)?;
                tx.write(a, 0, v + 1)?;
                let w = tx.read(b, 1)?;
                tx.write(b, 1, w.wrapping_add(i))
            });
        }
        0
    });
    heap.audit().assert_clean();
    ScaleRow {
        workload: if disjoint { "disjoint" } else { "contended" },
        engine: match versioning {
            stm_core::config::Versioning::Eager => "eager",
            stm_core::config::Versioning::Lazy => "lazy",
        },
        threads,
        ops: threads as u64 * ops_per_thread,
        makespan,
        commits,
        aborts,
        slots: heap.txn_slot_count(),
        speedup: 0.0,
    }
}

/// Transaction-lifecycle scalability: begin/commit throughput across a
/// 1–16 thread sweep on the simulated multiprocessor, per engine, on one
/// disjoint and one contended workload, quiescence on. Writes
/// machine-readable rows to `BENCH_scale.json` next to the report.
///
/// The disjoint sweep is the lock-free-lifecycle probe: no data ever
/// conflicts, so throughput should scale near-linearly with threads — a
/// serialized begin/commit path (the old global registry mutex) flattens
/// exactly this curve. The slot column checks the registry's other
/// promise: slots stay bounded by the thread count however many
/// transactions churn through.
pub fn scale(ops_per_thread: u64) -> String {
    scale_to(ops_per_thread, std::path::Path::new("BENCH_scale.json"))
}

/// [`scale`] with an explicit artifact path (tests point it at a temporary
/// directory).
pub fn scale_to(ops_per_thread: u64, artifact: &std::path::Path) -> String {
    use stm_core::config::Versioning;

    let mut rows: Vec<ScaleRow> = Vec::new();
    for engine in [Versioning::Eager, Versioning::Lazy] {
        for disjoint in [true, false] {
            let mut base = 0.0f64;
            for threads in THREADS {
                let mut row = scale_case(engine, threads, disjoint, ops_per_thread);
                if threads == 1 {
                    base = row.throughput();
                }
                row.speedup = row.throughput() / base.max(f64::MIN_POSITIVE);
                rows.push(row);
            }
        }
    }

    let mut out = String::new();
    writeln!(out, "== Transaction-lifecycle scalability: begin/commit under load ==\n").unwrap();
    writeln!(
        out,
        "(simulated N-way multiprocessor, N = thread count; {ops_per_thread} txns/thread,\n\
         quiescence on; disjoint = private per-thread slices, so the curve is pure\n\
         lifecycle overhead; slots = registry size after the run, bound = threads)\n"
    )
    .unwrap();
    writeln!(
        out,
        "{:<11} {:<7} {:>4} {:>8} {:>14} {:>9} {:>8} {:>7} {:>6}",
        "workload", "engine", "thr", "ops", "ops/Mcycle", "speedup", "commits", "aborts", "slots"
    )
    .unwrap();
    for r in &rows {
        writeln!(
            out,
            "{:<11} {:<7} {:>4} {:>8} {:>14.1} {:>8.2}x {:>8} {:>7} {:>6}",
            r.workload,
            r.engine,
            r.threads,
            r.ops,
            r.throughput(),
            r.speedup,
            r.commits,
            r.aborts,
            r.slots,
        )
        .unwrap();
    }

    let json = format!(
        "{{\"experiment\":\"scale\",\"ops_per_thread\":{ops_per_thread},\"rows\":[\n  {}\n]}}\n",
        rows.iter().map(ScaleRow::json).collect::<Vec<_>>().join(",\n  ")
    );
    match std::fs::write(artifact, &json) {
        Ok(()) => writeln!(out, "\nwrote {} ({} rows)", artifact.display(), rows.len()).unwrap(),
        Err(e) => writeln!(out, "\nfailed to write {}: {e}", artifact.display()).unwrap(),
    }
    writeln!(
        out,
        "(disjoint speedup tracks the thread count because no transaction ever\n\
         waits on another's data — only on the lifecycle itself; the contended\n\
         curve flattens where real conflicts serialize the hot set)"
    )
    .unwrap();
    out
}

/// One measured cell of the multiversion read-concurrency experiment.
struct MvRow {
    mode: &'static str,
    threads: usize,
    ops: u64,
    makespan: u64,
    commits: u64,
    aborts: u64,
    /// Re-executions of declared read-only transactions (demotions to the
    /// validated path) — the acceptance bar requires zero with the rings on.
    ro_aborts: u64,
    ro_fast_commits: u64,
    mv_snapshot_reads: u64,
    mv_ring_overflows: u64,
    speedup: f64,
}

impl MvRow {
    fn throughput(&self) -> f64 {
        self.ops as f64 / (self.makespan.max(1) as f64 / 1e6)
    }

    fn json(&self) -> String {
        format!(
            "{{\"mode\":\"{}\",\"threads\":{},\"ops\":{},\"makespan_cycles\":{},\
             \"throughput_ops_per_mcycle\":{:.3},\"speedup_vs_1_thread\":{:.3},\
             \"commits\":{},\"aborts\":{},\"ro_aborts\":{},\"ro_fast_commits\":{},\
             \"mv_snapshot_reads\":{},\"mv_ring_overflows\":{}}}",
            self.mode,
            self.threads,
            self.ops,
            self.makespan,
            self.throughput(),
            self.speedup,
            self.commits,
            self.aborts,
            self.ro_aborts,
            self.ro_fast_commits,
            self.mv_snapshot_reads,
            self.mv_ring_overflows,
        )
    }
}

/// Runs one cell of the read-heavy contended sweep: `threads` workers on
/// the simulated multiprocessor hammer a 4-object hot set. One in four
/// workers is a writer (read-modify-write pairs, the `repro scale`
/// contended body); the rest run declared read-only transactions scanning
/// the hot set.
fn mv_case(multiversion: bool, threads: usize, ops_per_thread: u64) -> MvRow {
    use std::sync::Arc;
    use stm_core::config::StmConfig;
    use stm_core::heap::{FieldDef, Heap, Shape};
    use stm_core::txn::{atomic, atomic_read_only_traced};
    use workloads::scale::run_workers;

    let heap = Heap::new(StmConfig { multiversion, quiescence: true, ..StmConfig::default() });
    let shape = heap.define_shape(Shape::new(
        "Cell",
        vec![FieldDef::int("n"), FieldDef::int("side")],
    ));
    let objects: Vec<_> = (0..4).map(|_| heap.alloc_public(shape)).collect();
    // Commit one writer up front so every ring holds a version (a cold
    // ring would start every reader on the fallback path).
    atomic(&heap, |tx| {
        for &o in &objects {
            tx.write(o, 0, 1)?;
            tx.write(o, 1, 1)?;
        }
        Ok(())
    });

    let worker_heap = Arc::clone(&heap);
    let objs = objects.clone();
    let (makespan, commits, aborts, per_worker) =
        run_workers(&heap, threads, threads, move |t| {
            let mut rng = 0x9E37_79B9u64.wrapping_mul(t as u64 + 1) | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            // 1-in-4 workers write; with 1 thread the single worker writes
            // (the baseline must pay the same writer costs it contends with
            // at scale).
            let writer = t % 4 == 0;
            let mut demotions = 0u64;
            for i in 0..ops_per_thread {
                if writer {
                    let a = next() as usize % objs.len();
                    let (a, b) = (objs[a], objs[(a + 1) % objs.len()]);
                    atomic(&worker_heap, |tx| {
                        let v = tx.read(a, 0)?;
                        tx.write(a, 0, v + 1)?;
                        let w = tx.read(b, 1)?;
                        tx.write(b, 1, w.wrapping_add(i))
                    });
                } else {
                    let (_, telem) = atomic_read_only_traced(&worker_heap, |tx| {
                        let mut sum = 0u64;
                        for &o in &objs {
                            sum = sum.wrapping_add(tx.read(o, 0)?);
                        }
                        Ok(sum)
                    });
                    demotions += u64::from(telem.attempts.saturating_sub(1));
                }
            }
            demotions
        });
    heap.audit().assert_clean();
    let snap = heap.stats().snapshot();
    MvRow {
        mode: if multiversion { "mv-on" } else { "mv-off" },
        threads,
        ops: threads as u64 * ops_per_thread,
        makespan,
        commits,
        aborts,
        ro_aborts: per_worker.iter().sum(),
        ro_fast_commits: snap.ro_fast_commits,
        mv_snapshot_reads: snap.mv_snapshot_reads,
        mv_ring_overflows: snap.mv_ring_overflows,
        speedup: 0.0,
    }
}

/// Multiversion read concurrency: the contended read-heavy sweep that the
/// scale experiment's collapse motivated. 1–16 workers share a 4-object
/// hot set, 3 of every 4 workers are declared read-only; the sweep runs
/// with the version rings off (readers fight writers through validation)
/// and on (readers commit wait-free from snapshots). Writes
/// `BENCH_mv.json` next to the report.
pub fn mv(ops_per_thread: u64) -> String {
    mv_to(ops_per_thread, std::path::Path::new("BENCH_mv.json"))
}

/// [`mv`] with an explicit artifact path (tests point it at a temporary
/// directory).
pub fn mv_to(ops_per_thread: u64, artifact: &std::path::Path) -> String {
    let mut rows: Vec<MvRow> = Vec::new();
    for multiversion in [false, true] {
        let mut base = 0.0f64;
        for threads in THREADS {
            let mut row = mv_case(multiversion, threads, ops_per_thread);
            if threads == 1 {
                base = row.throughput();
            }
            row.speedup = row.throughput() / base.max(f64::MIN_POSITIVE);
            rows.push(row);
        }
    }

    let mut out = String::new();
    writeln!(out, "== Multiversion read concurrency: contended read-heavy sweep ==\n").unwrap();
    writeln!(
        out,
        "(simulated N-way multiprocessor; {ops_per_thread} txns/thread on a 4-object hot\n\
         set; 1-in-4 workers write, the rest are declared read-only; mv-off = the\n\
         validated path, mv-on = wait-free snapshots from the version rings)\n"
    )
    .unwrap();
    writeln!(
        out,
        "{:<7} {:>4} {:>8} {:>14} {:>9} {:>8} {:>7} {:>9} {:>9} {:>10} {:>9}",
        "mode", "thr", "ops", "ops/Mcycle", "speedup", "commits", "aborts", "ro-aborts",
        "ro-fast", "snap-reads", "overflows"
    )
    .unwrap();
    for r in &rows {
        writeln!(
            out,
            "{:<7} {:>4} {:>8} {:>14.1} {:>8.2}x {:>8} {:>7} {:>9} {:>9} {:>10} {:>9}",
            r.mode,
            r.threads,
            r.ops,
            r.throughput(),
            r.speedup,
            r.commits,
            r.aborts,
            r.ro_aborts,
            r.ro_fast_commits,
            r.mv_snapshot_reads,
            r.mv_ring_overflows,
        )
        .unwrap();
    }

    let json = format!(
        "{{\"experiment\":\"mv\",\"ops_per_thread\":{ops_per_thread},\"rows\":[\n  {}\n]}}\n",
        rows.iter().map(MvRow::json).collect::<Vec<_>>().join(",\n  ")
    );
    match std::fs::write(artifact, &json) {
        Ok(()) => writeln!(out, "\nwrote {} ({} rows)", artifact.display(), rows.len()).unwrap(),
        Err(e) => writeln!(out, "\nfailed to write {}: {e}", artifact.display()).unwrap(),
    }
    writeln!(
        out,
        "(the acceptance bar: mv-on at 16 workers beats its own 1-worker baseline\n\
         with ro-aborts = 0 — wait-free readers neither abort nor collapse under\n\
         writer contention; overflowed readers fall back, they never spin)"
    )
    .unwrap();
    out
}

/// One measured cell of the overload experiment.
struct OverloadRow {
    workers: usize,
    attempted: u64,
    completed: u64,
    shed: u64,
    makespan: u64,
    p50_latency: u64,
    p99_latency: u64,
    commits: u64,
    aborts: u64,
    deadline_aborts: u64,
    retries_exhausted: u64,
    admission_rejects: u64,
    escalations: u64,
    hung_workers: u64,
}

impl OverloadRow {
    /// Committed operations per million simulated cycles.
    fn throughput(&self) -> f64 {
        self.completed as f64 / (self.makespan.max(1) as f64 / 1e6)
    }

    fn json(&self) -> String {
        format!(
            "{{\"workers\":{},\"attempted\":{},\"completed\":{},\"shed\":{},\
             \"makespan_cycles\":{},\"throughput_ops_per_mcycle\":{:.3},\
             \"p50_latency_cycles\":{},\"p99_latency_cycles\":{},\"commits\":{},\
             \"aborts\":{},\"deadline_aborts\":{},\"retries_exhausted\":{},\
             \"admission_rejects\":{},\"escalations_to_serial\":{},\"hung_workers\":{}}}",
            self.workers,
            self.attempted,
            self.completed,
            self.shed,
            self.makespan,
            self.throughput(),
            self.p50_latency,
            self.p99_latency,
            self.commits,
            self.aborts,
            self.deadline_aborts,
            self.retries_exhausted,
            self.admission_rejects,
            self.escalations,
            self.hung_workers,
        )
    }
}

/// Runs one overload cell: `workers` hostile workers hammer a 2-object hot
/// set where *every* transaction reads and writes *both* objects — a
/// zero-available-parallelism workload (capacity is serial by construction,
/// with cross-ordered acquisitions for deadlock-shaped conflicts), so every
/// worker past the first is pure overload. Blocks run under a tight
/// [`stm_core::config::TxnPolicy`] (deadline + retry budget + karma boost +
/// serialized escalation) with admission control armed. A typed policy stop
/// sheds the operation; per-operation latency of *completed* ops is
/// measured in virtual cycles with [`simsched::now`] (shed ops return
/// almost instantly and would only dilute the distribution; they are
/// reported in the `shed` column).
fn overload_case(workers: usize, ops_per_worker: u64) -> OverloadRow {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    use stm_core::config::{AdmissionConfig, StmConfig, TxnPolicy};
    use stm_core::heap::{FieldDef, Heap, Shape};
    use stm_core::txn::try_atomic_with;
    use workloads::scale::run_workers;

    let heap = Heap::new(StmConfig {
        admission: Some(AdmissionConfig::default()),
        ..StmConfig::default()
    });
    let shape = heap.define_shape(Shape::new(
        "Hot",
        vec![FieldDef::int("n"), FieldDef::int("side")],
    ));
    let objects: Vec<_> = (0..2).map(|_| heap.alloc_public(shape)).collect();

    let policy = TxnPolicy {
        deadline: Some(128),
        max_retries: Some(16),
        boost_after: 1,
        serialize_after: 1,
        isolation: None,
    };
    let latencies = Arc::new(Mutex::new(Vec::<u64>::new()));
    let finished = Arc::new(AtomicU64::new(0));

    let worker_heap = Arc::clone(&heap);
    let objs = objects.clone();
    let lat = Arc::clone(&latencies);
    let fin = Arc::clone(&finished);
    let (makespan, commits, aborts, per_worker) =
        run_workers(&heap, workers, workers, move |t| {
            let mut rng = 0x9E37_79B9u64.wrapping_mul(t as u64 + 1) | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut shed = 0u64;
            let mut local = Vec::with_capacity(ops_per_worker as usize);
            for i in 0..ops_per_worker {
                let t0 = simsched::now();
                let a = next() as usize % objs.len();
                let (a, b) = (objs[a], objs[(a + 1) % objs.len()]);
                let r = try_atomic_with(&worker_heap, policy, |tx| {
                    let v = tx.read(a, 0)?;
                    tx.write(a, 0, v + 1)?;
                    let w = tx.read(b, 1)?;
                    tx.write(b, 1, w.wrapping_add(i))
                });
                if r.is_err() {
                    shed += 1;
                } else {
                    local.push(simsched::now().saturating_sub(t0));
                }
            }
            lat.lock().unwrap().extend_from_slice(&local);
            fin.fetch_add(1, Ordering::Relaxed);
            shed
        });
    heap.audit().assert_clean();

    let mut lats = latencies.lock().unwrap().clone();
    lats.sort_unstable();
    let pct = |p: f64| -> u64 {
        if lats.is_empty() {
            0
        } else {
            lats[((lats.len() - 1) as f64 * p) as usize]
        }
    };
    let attempted = workers as u64 * ops_per_worker;
    let shed: u64 = per_worker.iter().sum();
    let snap = heap.stats().snapshot();
    OverloadRow {
        workers,
        attempted,
        completed: attempted - shed,
        shed,
        makespan,
        p50_latency: pct(0.50),
        p99_latency: pct(0.99),
        commits,
        aborts,
        deadline_aborts: snap.deadline_aborts,
        retries_exhausted: snap.retries_exhausted,
        admission_rejects: snap.admission_rejects,
        escalations: snap.escalations_to_serial,
        hung_workers: workers as u64 - finished.load(std::sync::atomic::Ordering::Relaxed),
    }
}

/// Progress under hostility: 1–16 workers drive a zero-parallelism
/// 2-object hot set far past its (serial) capacity, every block under a
/// tight deadline + retry budget with escalation and admission control
/// shedding load. The acceptance bars: throughput *plateaus* past its peak
/// instead of collapsing (no point below 70% of peak), p99 virtual-time
/// latency stays under the deadline-derived ceiling, and every worker
/// finishes (zero hung workers). Writes `BENCH_overload.json` next to the
/// report.
pub fn overload(ops_per_worker: u64) -> String {
    overload_to(ops_per_worker, std::path::Path::new("BENCH_overload.json"))
}

/// [`overload`] with an explicit artifact path (tests point it at a
/// temporary directory).
pub fn overload_to(ops_per_worker: u64, artifact: &std::path::Path) -> String {
    let rows: Vec<OverloadRow> =
        THREADS.iter().map(|&w| overload_case(w, ops_per_worker)).collect();

    let mut out = String::new();
    writeln!(out, "== Overload: progress guarantees past saturation ==\n").unwrap();
    writeln!(
        out,
        "(simulated N-way multiprocessor; {ops_per_worker} ops/worker, every transaction\n\
         reads+writes BOTH objects of a 2-object hot set with cross-ordered\n\
         acquisitions — capacity is serial by construction, so every worker past\n\
         the first is pure overload; blocks run under deadline=128 rounds,\n\
         max_retries=16, boost@1, serialize@1; admission control armed — a typed\n\
         policy stop sheds the op instead of looping; latency percentiles cover\n\
         completed ops)\n"
    )
    .unwrap();
    writeln!(
        out,
        "{:>4} {:>9} {:>9} {:>6} {:>13} {:>9} {:>9} {:>8} {:>8} {:>8} {:>7} {:>6} {:>5}",
        "thr", "attempted", "completed", "shed", "ops/Mcycle", "p50-lat", "p99-lat", "commits",
        "aborts", "deadline", "budget", "admit", "hung"
    )
    .unwrap();
    for r in &rows {
        writeln!(
            out,
            "{:>4} {:>9} {:>9} {:>6} {:>13.2} {:>9} {:>9} {:>8} {:>8} {:>8} {:>7} {:>6} {:>5}",
            r.workers,
            r.attempted,
            r.completed,
            r.shed,
            r.throughput(),
            r.p50_latency,
            r.p99_latency,
            r.commits,
            r.aborts,
            r.deadline_aborts,
            r.retries_exhausted,
            r.admission_rejects,
            r.hung_workers,
        )
        .unwrap();
    }

    let json = format!(
        "{{\"experiment\":\"overload\",\"ops_per_worker\":{ops_per_worker},\"rows\":[\n  {}\n]}}\n",
        rows.iter().map(OverloadRow::json).collect::<Vec<_>>().join(",\n  ")
    );
    match std::fs::write(artifact, &json) {
        Ok(()) => writeln!(out, "\nwrote {} ({} rows)", artifact.display(), rows.len()).unwrap(),
        Err(e) => writeln!(out, "\nfailed to write {}: {e}", artifact.display()).unwrap(),
    }

    let hung: u64 = rows.iter().map(|r| r.hung_workers).sum();
    assert_eq!(hung, 0, "overload campaign left workers hung:\n{out}");
    // The plateau bar only engages on real runs: tiny smoke-test op counts
    // are startup-dominated and would measure noise, not the policy.
    if ops_per_worker >= 200 {
        let peak = rows.iter().map(OverloadRow::throughput).fold(0.0f64, f64::max);
        let peak_at = rows
            .iter()
            .position(|r| r.throughput() == peak)
            .unwrap_or(0);
        for r in &rows[peak_at..] {
            assert!(
                r.throughput() >= 0.7 * peak,
                "throughput collapsed past saturation: {:.2} < 70% of peak {:.2} \
                 at {} workers:\n{out}",
                r.throughput(),
                peak,
                r.workers
            );
        }
        // The p99 bound is the one the deadline *guarantees*: a block's
        // waiting is capped at 128 rounds, each round charged at most the
        // saturated exponential-backoff quantum, so completed-op latency is
        // structurally bounded regardless of how many workers pile on. The
        // ceiling here is that guarantee (deadline rounds x max per-round
        // backoff charge), not an empirical fudge factor.
        const P99_CEILING: u64 = 128 * 4096;
        let worst_p99 = rows.iter().map(|r| r.p99_latency).max().unwrap_or(0);
        assert!(
            worst_p99 <= P99_CEILING,
            "p99 latency escaped the deadline-derived ceiling: {worst_p99} > \
             {P99_CEILING} cycles:\n{out}"
        );
        writeln!(
            out,
            "\n(acceptance: zero hung workers; past-peak throughput held >= 70% of\n\
             peak {peak:.2} ops/Mcycle; worst p99 latency {worst_p99} stayed under the\n\
             deadline-derived ceiling of {P99_CEILING} cycles — the deadline, budget,\n\
             escalation and admission machinery degraded throughput gracefully\n\
             instead of hanging or collapsing)"
        )
        .unwrap();
    }
    out
}

/// One measured cell of the isolation-level experiment.
struct IsoRow {
    level: &'static str,
    engine: &'static str,
    threads: usize,
    ops: u64,
    elapsed_s: f64,
    commits: u64,
    aborts: u64,
    snapshot_reads: u64,
    snapshot_conflicts: u64,
    barriers_elided: u64,
}

impl IsoRow {
    fn throughput(&self) -> f64 {
        self.ops as f64 / self.elapsed_s
    }

    fn json(&self) -> String {
        format!(
            "{{\"level\":\"{}\",\"engine\":\"{}\",\"threads\":{},\"ops\":{},\
             \"elapsed_s\":{:.6},\"throughput_ops_per_s\":{:.1},\"commits\":{},\
             \"aborts\":{},\"snapshot_reads\":{},\"snapshot_conflicts\":{},\
             \"barriers_elided\":{}}}",
            self.level,
            self.engine,
            self.threads,
            self.ops,
            self.elapsed_s,
            self.throughput(),
            self.commits,
            self.aborts,
            self.snapshot_reads,
            self.snapshot_conflicts,
            self.barriers_elided,
        )
    }
}

/// Runs one isolation-level workload cell: a mixed transactional + barrier
/// hammer on a small hot set, so each level's mechanism actually engages —
/// snapshot isolation pays first-committer-wins retries against the barrier
/// traffic, quiescence privatization elides the barriers entirely and pays
/// commit-time quiescence instead.
fn iso_case(
    level: stm_core::config::IsolationLevel,
    versioning: stm_core::config::Versioning,
    threads: usize,
    ops_per_thread: u64,
) -> IsoRow {
    use std::sync::Arc;
    use stm_core::config::{StmConfig, Versioning};
    use stm_core::heap::{FieldDef, Heap, Shape};
    use stm_core::txn::atomic;

    let heap = Heap::new(StmConfig {
        versioning,
        isolation: level,
        ..StmConfig::default()
    });
    let shape = heap.define_shape(Shape::new(
        "Iso",
        vec![FieldDef::int("n"), FieldDef::int("side")],
    ));
    let objects: Vec<_> = (0..4).map(|_| heap.alloc_public(shape)).collect();

    let t0 = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let heap = Arc::clone(&heap);
            let objects = objects.clone();
            std::thread::spawn(move || {
                let mut rng = 0x9E37_79B9u64.wrapping_mul(t as u64 + 1) | 1;
                let mut next = move || {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    rng
                };
                for i in 0..ops_per_thread {
                    let o = objects[next() as usize % objects.len()];
                    match next() % 4 {
                        // Transactional read-modify-write. The repeat read
                        // (before the write takes ownership) is the
                        // snapshot-cache hit under SI; the yield widens the
                        // window in which a rival barrier store can land and
                        // trigger a first-committer-wins retry.
                        0 | 1 => {
                            atomic(&heap, |tx| {
                                let v = tx.read(o, 0)?;
                                let _ = tx.read(o, 0)?;
                                std::thread::yield_now();
                                tx.write(o, 0, v + 1)
                            });
                        }
                        // Barriered store to the side field: stamped under
                        // SI, elided under quiescence privatization.
                        2 => stm_core::barrier::write_barrier(&heap, o, 1, i),
                        _ => {
                            let _ = stm_core::barrier::read_barrier(&heap, o, 0);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let snap = heap.stats_snapshot();
    IsoRow {
        level: level.label(),
        engine: match versioning {
            Versioning::Eager => "eager",
            Versioning::Lazy => "lazy",
        },
        threads,
        ops: threads as u64 * ops_per_thread,
        elapsed_s,
        commits: snap.commits,
        aborts: snap.aborts,
        snapshot_reads: snap.si_snapshot_reads,
        snapshot_conflicts: snap.si_write_conflicts,
        barriers_elided: snap.barriers_elided,
    }
}

/// Isolation-level spectrum: the machine-checked anomaly-witness matrix
/// (strong atomicity vs snapshot isolation vs quiescence-only
/// privatization, both engines) plus a mixed-workload cost sweep. Writes
/// matrix cells and measured rows to `BENCH_isolation.json`.
pub fn isolation(ops_per_thread: u64) -> String {
    isolation_to(ops_per_thread, std::path::Path::new("BENCH_isolation.json"))
}

/// [`isolation`] with an explicit artifact path (tests point it at a
/// temporary directory).
pub fn isolation_to(ops_per_thread: u64, artifact: &std::path::Path) -> String {
    use litmus::anomalies::{
        engine_label, expected_isolation_matrix, isolation_matrix, render_isolation_matrix,
        IsoAnomaly, ENGINES,
    };
    use stm_core::config::IsolationLevel;

    const THREADS: usize = 4;

    let got = isolation_matrix();
    let want = expected_isolation_matrix();
    let matches = got == want;

    let mut out = String::new();
    writeln!(out, "== Isolation-level spectrum: anomaly matrix + cost sweep ==\n").unwrap();
    writeln!(
        out,
        "(columns: isolation level x engine; `yes` = the witness script\n\
         observed the anomaly; write skew (WS) is snapshot isolation's own)\n"
    )
    .unwrap();
    out.push_str(&render_isolation_matrix(&got));
    writeln!(out, "\nmatches expected spectrum: {}", if matches { "YES" } else { "NO" }).unwrap();
    if !matches {
        for (i, anomaly) in IsoAnomaly::ALL.iter().enumerate() {
            for (li, level) in IsolationLevel::ALL.iter().enumerate() {
                for (ei, engine) in ENGINES.iter().enumerate() {
                    let j = li * 2 + ei;
                    if got[i][j] != want[i][j] {
                        writeln!(
                            out,
                            "  MISMATCH {} level={} engine={}: expected {}, observed {}",
                            anomaly.abbrev(),
                            level.label(),
                            engine_label(*engine),
                            want[i][j],
                            got[i][j]
                        )
                        .unwrap();
                    }
                }
            }
        }
    }

    let mut rows: Vec<IsoRow> = Vec::new();
    for level in IsolationLevel::ALL {
        for engine in [
            stm_core::config::Versioning::Eager,
            stm_core::config::Versioning::Lazy,
        ] {
            rows.push(iso_case(level, engine, THREADS, ops_per_thread));
        }
    }

    writeln!(
        out,
        "\n{:<11} {:<7} {:>4} {:>12} {:>9} {:>7} {:>10} {:>10} {:>8}",
        "level", "engine", "thr", "ops/s", "commits", "aborts", "snap-read", "snap-conf", "elided"
    )
    .unwrap();
    for r in &rows {
        writeln!(
            out,
            "{:<11} {:<7} {:>4} {:>12.0} {:>9} {:>7} {:>10} {:>10} {:>8}",
            r.level,
            r.engine,
            r.threads,
            r.throughput(),
            r.commits,
            r.aborts,
            r.snapshot_reads,
            r.snapshot_conflicts,
            r.barriers_elided,
        )
        .unwrap();
    }

    let matrix_json = IsoAnomaly::ALL
        .iter()
        .enumerate()
        .map(|(i, anomaly)| {
            let cells = IsolationLevel::ALL
                .iter()
                .enumerate()
                .flat_map(|(li, level)| {
                    ENGINES.iter().enumerate().map(move |(ei, engine)| {
                        format!(
                            "\"{}/{}\":{}",
                            level.label(),
                            engine_label(*engine),
                            got[i][li * 2 + ei]
                        )
                    })
                })
                .collect::<Vec<_>>()
                .join(",");
            format!("{{\"anomaly\":\"{}\",{}}}", anomaly.abbrev(), cells)
        })
        .collect::<Vec<_>>()
        .join(",\n  ");
    let json = format!(
        "{{\"experiment\":\"isolation\",\"threads\":{THREADS},\
         \"ops_per_thread\":{ops_per_thread},\"matrix_matches_expected\":{matches},\
         \"matrix\":[\n  {matrix_json}\n],\"rows\":[\n  {}\n]}}\n",
        rows.iter().map(IsoRow::json).collect::<Vec<_>>().join(",\n  ")
    );
    match std::fs::write(artifact, &json) {
        Ok(()) => writeln!(out, "\nwrote {} ({} rows)", artifact.display(), rows.len()).unwrap(),
        Err(e) => writeln!(out, "\nfailed to write {}: {e}", artifact.display()).unwrap(),
    }
    writeln!(
        out,
        "(snapshot isolation trades barrier blocking for first-committer-wins\n\
         retries; quiescence privatization removes per-access barriers and pays\n\
         only commit-time quiescence — exactly the §2 anomalies return with it)"
    )
    .unwrap();
    assert!(matches, "isolation anomaly matrix diverged from the expected spectrum:\n{out}");
    out
}

/// Runs every experiment (the `repro all` command).
/// One measured cell of the clock validation-cost sweep.
struct ClockRow {
    mode: &'static str,
    reads: usize,
    threads: usize,
    ops: u64,
    makespan: u64,
    commits: u64,
    aborts: u64,
    o1_validations: u64,
    revalidations_skipped: u64,
    rv_extensions: u64,
    clock_cas_retries: u64,
}

impl ClockRow {
    fn cycles_per_commit(&self) -> f64 {
        self.makespan as f64 / self.commits.max(1) as f64
    }

    fn json(&self) -> String {
        format!(
            "{{\"mode\":\"{}\",\"reads\":{},\"threads\":{},\"ops\":{},\
             \"makespan_cycles\":{},\"cycles_per_commit\":{:.1},\"commits\":{},\
             \"aborts\":{},\"o1_validations\":{},\"revalidations_skipped\":{},\
             \"rv_extensions\":{},\"clock_cas_retries\":{}}}",
            self.mode,
            self.reads,
            self.threads,
            self.ops,
            self.makespan,
            self.cycles_per_commit(),
            self.commits,
            self.aborts,
            self.o1_validations,
            self.revalidations_skipped,
            self.rv_extensions,
            self.clock_cas_retries,
        )
    }
}

/// One cell of the clock sweep: every worker's transaction scans a shared
/// `reads`-object pool (written once at seed time, then read-only) and
/// writes one field of its own private target, so commits always succeed
/// and the only cost that varies with `reads` is the read/validation path.
/// On the global clock, commit proves `wv == rv + 1` and skips the
/// read-set walk — O(1) regardless of `reads`; on the thread-local (GV5)
/// clock the skip is unsound (stamps can duplicate), so every commit walks
/// the whole read set.
fn clock_case(
    clock: stm_core::config::ClockMode,
    reads: usize,
    threads: usize,
    ops_per_thread: u64,
) -> ClockRow {
    use std::sync::Arc;
    use stm_core::config::{ClockMode, StmConfig};
    use stm_core::heap::{FieldDef, Heap, Shape};
    use stm_core::txn::atomic;
    use workloads::scale::run_workers;

    // Multiversion pinned off regardless of the ambient STM_MULTIVERSION:
    // an mv heap coerces the thread-local clock back to global, which
    // would silently turn the tl-clock column into a second global one.
    let heap = Heap::new(StmConfig { clock, multiversion: false, ..StmConfig::default() });
    let shape = heap.define_shape(Shape::new("Cell", vec![FieldDef::int("n")]));
    let pool: Vec<_> = (0..reads).map(|_| heap.alloc_public(shape)).collect();
    let targets: Vec<_> = (0..threads).map(|_| heap.alloc_public(shape)).collect();
    // Seed the pool so every record carries a real commit stamp.
    atomic(&heap, |tx| {
        for (i, &o) in pool.iter().enumerate() {
            tx.write(o, 0, i as u64 + 1)?;
        }
        Ok(())
    });

    let worker_heap = Arc::clone(&heap);
    let (makespan, commits, aborts, _) = run_workers(&heap, threads, threads, move |t| {
        let target = targets[t];
        for i in 0..ops_per_thread {
            atomic(&worker_heap, |tx| {
                let mut sum = 0u64;
                for &o in &pool {
                    sum = sum.wrapping_add(tx.read(o, 0)?);
                }
                tx.write(target, 0, sum.wrapping_add(i))
            });
        }
        0
    });
    heap.audit().assert_clean();
    let snap = heap.stats().snapshot();
    ClockRow {
        mode: match clock {
            ClockMode::Global => "global",
            ClockMode::ThreadLocal => "tl-clock",
        },
        reads,
        threads,
        ops: threads as u64 * ops_per_thread,
        makespan,
        commits,
        aborts,
        o1_validations: snap.o1_validations,
        revalidations_skipped: snap.revalidations_skipped,
        rv_extensions: snap.rv_extensions,
        clock_cas_retries: snap.clock_cas_retries,
    }
}

/// The read-set sizes the clock sweep scales over.
pub const CLOCK_READS: [usize; 4] = [4, 16, 64, 256];

/// The global-version-clock validation-cost sweep: commit-time cost as a
/// function of read-set size, before/after the TL2 commit skip. The
/// thread-local (GV5) clock stands in for "before" — its duplicate-capable
/// stamps force the full read-set walk at every commit — while the global
/// clock commits O(1) via the `wv == rv + 1` skip. Writes
/// `BENCH_clock.json` next to the report.
pub fn clock(ops_per_thread: u64) -> String {
    clock_to(ops_per_thread, std::path::Path::new("BENCH_clock.json"))
}

/// [`clock`] with an explicit artifact path (tests point it at a
/// temporary directory).
pub fn clock_to(ops_per_thread: u64, artifact: &std::path::Path) -> String {
    use stm_core::config::ClockMode;

    let mut rows: Vec<ClockRow> = Vec::new();
    for mode in [ClockMode::Global, ClockMode::ThreadLocal] {
        for threads in [1usize, 8] {
            for reads in CLOCK_READS {
                rows.push(clock_case(mode, reads, threads, ops_per_thread));
            }
        }
    }

    let mut out = String::new();
    writeln!(out, "== Global version clock: commit validation cost vs read-set size ==\n")
        .unwrap();
    writeln!(
        out,
        "(simulated multiprocessor; {ops_per_thread} txns/thread, each scanning a\n\
         read-only pool of N objects then writing a private target; global = TL2\n\
         commit skip (`wv == rv + 1` proves the read set), tl-clock = GV5\n\
         thread-local stamps, skip disabled, full read-set walk every commit)\n"
    )
    .unwrap();
    writeln!(
        out,
        "{:<9} {:>5} {:>4} {:>9} {:>13} {:>8} {:>10} {:>9} {:>8} {:>8}",
        "mode", "reads", "thr", "commits", "cycles/commit", "aborts", "o1-checks", "skipped",
        "extends", "cas-rty"
    )
    .unwrap();
    for r in &rows {
        writeln!(
            out,
            "{:<9} {:>5} {:>4} {:>9} {:>13.1} {:>8} {:>10} {:>9} {:>8} {:>8}",
            r.mode,
            r.reads,
            r.threads,
            r.commits,
            r.cycles_per_commit(),
            r.aborts,
            r.o1_validations,
            r.revalidations_skipped,
            r.rv_extensions,
            r.clock_cas_retries,
        )
        .unwrap();
    }

    // The flatness readout: per-commit cost growth from the smallest to
    // the largest read set, single-threaded (deterministic under the cost
    // model). The global slope is the bare read cost; the tl-clock slope
    // adds the per-entry validation walk on top.
    let slope = |mode: &str| {
        let cell = |reads: usize| {
            rows.iter()
                .find(|r| r.mode == mode && r.threads == 1 && r.reads == reads)
                .map(ClockRow::cycles_per_commit)
                .unwrap_or(0.0)
        };
        let (lo, hi) = (CLOCK_READS[0], CLOCK_READS[CLOCK_READS.len() - 1]);
        (cell(hi) - cell(lo)) / (hi - lo) as f64
    };
    let (gs, ts) = (slope("global"), slope("tl-clock"));
    writeln!(
        out,
        "\nmarginal cycles per extra read (1 thread, {}..{} reads): \
         global={gs:.2} tl-clock={ts:.2}",
        CLOCK_READS[0],
        CLOCK_READS[CLOCK_READS.len() - 1]
    )
    .unwrap();
    writeln!(
        out,
        "(the acceptance bar: the global slope is the read path alone — commit stays\n\
         O(1) because every single-threaded commit takes the skip; the tl-clock slope\n\
         is strictly steeper, paying one validation per read-set entry at commit)"
    )
    .unwrap();

    let json = format!(
        "{{\"experiment\":\"clock\",\"ops_per_thread\":{ops_per_thread},\"rows\":[\n  {}\n]}}\n",
        rows.iter().map(ClockRow::json).collect::<Vec<_>>().join(",\n  ")
    );
    match std::fs::write(artifact, &json) {
        Ok(()) => writeln!(out, "\nwrote {} ({} rows)", artifact.display(), rows.len()).unwrap(),
        Err(e) => writeln!(out, "\nfailed to write {}: {e}", artifact.display()).unwrap(),
    }
    out
}

/// One measured cell of the bytecode-VM sweep: a workload × scale × engine.
struct VmBenchRow {
    workload: &'static str,
    scale: u32,
    engine: &'static str,
    wall_ns: u64,
    executed: u64,
    elided: u64,
    aggregated: u64,
    regions: u64,
    sim_cycles: u64,
}

impl VmBenchRow {
    /// Scale-1 workload executions per second of wall time.
    fn throughput(&self) -> f64 {
        self.scale as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    fn json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"scale\":{},\"engine\":\"{}\",\"wall_ns\":{},\
             \"throughput\":{:.2},\"executed\":{},\"elided\":{},\"aggregated\":{},\
             \"regions\":{},\"sim_cycles\":{}}}",
            self.workload,
            self.scale,
            self.engine,
            self.wall_ns,
            self.throughput(),
            self.executed,
            self.elided,
            self.aggregated,
            self.regions,
            self.sim_cycles,
        )
    }
}

/// Simulated barrier cost of one run under the simsched cost model: every
/// executed barrier pays its full price, every elided access a plain
/// access, every aggregated access the private fast path (the region
/// acquisition itself is already in the heap's write-barrier count).
fn vm_sim_cycles(
    stats: &stm_core::stats::StatsSnapshot,
    bars: Option<&tmir::vm::BarrierStats>,
) -> u64 {
    let ct = simsched::costs::CostTable::default();
    let mut c = stats.read_barriers * ct.barrier_read
        + stats.write_barriers * ct.barrier_write
        + stats.private_fast_paths * ct.barrier_private
        + stats.publishes * ct.publish
        + stats.commits * (ct.txn_begin + ct.txn_commit)
        + stats.aborts * ct.txn_abort;
    if let Some(b) = bars {
        c += b.elided * ct.plain_read + b.aggregated * ct.barrier_private;
    }
    c
}

/// The engines the `vm` sweep compares.
pub const VM_ENGINES: [&str; 3] = ["interp", "vm", "vm+passes"];

/// Runs `checked` once on `engine` under a strong barrier table; returns
/// wall time, heap stats, and (for the bytecode engines) barrier counters.
fn vm_engine_run(
    checked: &tmir::Checked,
    engine: &str,
) -> (u64, stm_core::stats::StatsSnapshot, Option<tmir::vm::BarrierStats>) {
    let table = BarrierTable::strong(&checked.program);
    match engine {
        "interp" => {
            let vm = tmir::interp::Vm::new(
                checked.clone(),
                tmir::interp::VmConfig { table, ..Default::default() },
            );
            let t0 = Instant::now();
            let r = vm.run().expect("interp runs");
            (t0.elapsed().as_nanos() as u64, r.stats, None)
        }
        _ => {
            let mut cp = tmir::compile(checked, &table);
            if engine == "vm+passes" {
                // Elisions first (JIT-local, then whole-program NAIT), so
                // aggregation only fuses accesses that still carry barriers.
                let (_, removal) = analyze_and_remove(&checked.program);
                tmir::bytecode::optimize(&mut cp, tmir::bytecode::PassOptions::elim_only());
                removal.apply_nait_bytecode(&mut cp);
                tmir::bytecode::optimize(
                    &mut cp,
                    tmir::bytecode::PassOptions { immutable: false, escape: false, aggregate: true },
                );
            }
            let vm = tmir::vm::BytecodeVm::new(cp, tmir::vm::BcVmConfig::default());
            let t0 = Instant::now();
            let r = vm.run().expect("bytecode VM runs");
            (t0.elapsed().as_nanos() as u64, r.stats, Some(vm.barrier_stats()))
        }
    }
}

/// The bytecode-VM shootout: tree-walking interpreter vs bytecode VM vs
/// VM with all barrier passes (final-field + escape + NAIT elision, then
/// Figure-14 aggregation), swept over the scaled TMIR benchmark suite.
/// Writes `BENCH_vm.json` next to the report.
pub fn vm(scale: u32) -> String {
    vm_to(scale, std::path::Path::new("BENCH_vm.json"))
}

/// [`vm`] with an explicit artifact path (tests point it at a temporary
/// directory).
///
/// # Panics
/// Panics if the barrier passes fail to strictly reduce executed barriers,
/// or (release builds only) if the VM is not at least 2x the interpreter
/// on the interpreter-bound jvm98 suite at the largest scale.
pub fn vm_to(scale: u32, artifact: &std::path::Path) -> String {
    let top = scale.max(1);
    let mut scales = vec![1, (top / 8).max(1), top];
    scales.sort_unstable();
    scales.dedup();

    let mut rows: Vec<VmBenchRow> = Vec::new();
    for &s in &scales {
        for (name, checked) in workloads::tmir_sources::scaled_suite(s) {
            for engine in VM_ENGINES {
                // Best-of-3 to shave scheduler noise off the wall clock.
                let mut best: Option<VmBenchRow> = None;
                for _ in 0..3 {
                    let (wall_ns, stats, bars) = vm_engine_run(&checked, engine);
                    let row = VmBenchRow {
                        workload: name,
                        scale: s,
                        engine,
                        wall_ns,
                        executed: bars
                            .as_ref()
                            .map(|b| b.executed)
                            .unwrap_or(stats.read_barriers + stats.write_barriers),
                        elided: bars.as_ref().map(|b| b.elided).unwrap_or(0),
                        aggregated: bars.as_ref().map(|b| b.aggregated).unwrap_or(0),
                        regions: bars.as_ref().map(|b| b.regions).unwrap_or(0),
                        sim_cycles: vm_sim_cycles(&stats, bars.as_ref()),
                    };
                    if best.as_ref().is_none_or(|b| row.wall_ns < b.wall_ns) {
                        best = Some(row);
                    }
                }
                rows.push(best.unwrap());
            }
        }
    }

    let mut out = String::new();
    writeln!(out, "== Bytecode VM: interpreter vs VM vs VM+passes ==\n").unwrap();
    writeln!(
        out,
        "(strong barrier table; scaled TMIR benchmark suite; executed = dynamic\n\
         barriers run, elided = accesses a pass made raw, aggregated = accesses\n\
         served inside a fused region; throughput = scale-1 workload runs/sec)\n"
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:>5} {:<10} {:>12} {:>12} {:>9} {:>8} {:>7} {:>7} {:>12}",
        "workload", "scale", "engine", "wall_ms", "runs/sec", "executed", "elided", "aggr",
        "regions", "sim_cycles"
    )
    .unwrap();
    for r in &rows {
        writeln!(
            out,
            "{:<8} {:>5} {:<10} {:>12.3} {:>12.1} {:>9} {:>8} {:>7} {:>7} {:>12}",
            r.workload,
            r.scale,
            r.engine,
            r.wall_ns as f64 / 1e6,
            r.throughput(),
            r.executed,
            r.elided,
            r.aggregated,
            r.regions,
            r.sim_cycles,
        )
        .unwrap();
    }

    // Acceptance readouts, evaluated at the largest scale.
    let cell = |w: &str, e: &str| {
        rows.iter().find(|r| r.workload == w && r.engine == e && r.scale == top).unwrap()
    };
    writeln!(out, "\nVM speedup over interpreter (scale {top}):").unwrap();
    for (name, _) in workloads::tmir_sources::scaled_suite(1) {
        let speedup = cell(name, "interp").wall_ns as f64 / cell(name, "vm").wall_ns.max(1) as f64;
        writeln!(out, "  {name:<8} {speedup:.2}x").unwrap();
    }
    let jvm98_speedup =
        cell("jvm98", "interp").wall_ns as f64 / cell("jvm98", "vm").wall_ns.max(1) as f64;
    let (exec_vm, exec_opt, sim_vm, sim_opt) = rows.iter().filter(|r| r.scale == top).fold(
        (0u64, 0u64, 0u64, 0u64),
        |(ev, eo, sv, so), r| match r.engine {
            "vm" => (ev + r.executed, eo, sv + r.sim_cycles, so),
            "vm+passes" => (ev, eo + r.executed, sv, so + r.sim_cycles),
            _ => (ev, eo, sv, so),
        },
    );
    writeln!(
        out,
        "barriers executed at scale {top}: vm={exec_vm} vm+passes={exec_opt} \
         ({:.1}% removed); sim cycles {sim_vm} -> {sim_opt}",
        (exec_vm - exec_opt.min(exec_vm)) as f64 * 100.0 / exec_vm.max(1) as f64
    )
    .unwrap();
    assert!(
        exec_opt < exec_vm,
        "passes must strictly reduce executed barriers: {exec_opt} !< {exec_vm}"
    );
    if !cfg!(debug_assertions) {
        assert!(
            jvm98_speedup >= 2.0,
            "bytecode VM must be >= 2x the interpreter on jvm98: {jvm98_speedup:.2}x"
        );
    }
    writeln!(
        out,
        "(acceptance: vm+passes executes strictly fewer barriers than vm; the\n\
         interpreter-bound jvm98 suite runs >= 2x faster on the bytecode VM)"
    )
    .unwrap();

    let json = format!(
        "{{\"experiment\":\"vm\",\"scale\":{top},\"rows\":[\n  {}\n]}}\n",
        rows.iter().map(VmBenchRow::json).collect::<Vec<_>>().join(",\n  ")
    );
    match std::fs::write(artifact, &json) {
        Ok(()) => writeln!(out, "\nwrote {} ({} rows)", artifact.display(), rows.len()).unwrap(),
        Err(e) => writeln!(out, "\nfailed to write {}: {e}", artifact.display()).unwrap(),
    }
    out
}

/// Every experiment in sequence — the `repro all` entry point
/// (EXPERIMENTS.md's content, minus the long-running chaos campaign).
pub fn all(scale: usize) -> String {
    let mut out = String::new();
    for part in [
        figs_1_to_5(),
        fig6(),
        fig13(),
        fig14(),
        fig15(scale),
        fig16(scale),
        fig17(scale),
        fig18(),
        fig19(),
        fig20(),
        contention(),
        granularity(2000),
        self::scale(400),
        isolation(2000),
        mv(400),
        clock(400),
        vm(8),
    ] {
        out.push_str(&part);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_reports_match() {
        let s = fig6();
        assert!(s.contains("matches paper: YES"), "{s}");
    }

    #[test]
    fn fig13_renders_all_benchmarks() {
        let s = fig13();
        for b in ["jvm98", "tsp", "oo7", "jbb"] {
            assert!(s.contains(b), "missing {b}: {s}");
        }
    }

    #[test]
    fn fig14_aggregates() {
        // fig14 asserts the bytecode-level counts internally (1 static
        // region, 2 dynamic entries, 6 aggregated accesses, 2 acquires).
        let s = fig14();
        assert!(s.contains("1 region(s)"), "{s}");
        assert!(s.contains("bytecode"), "{s}");
    }

    #[test]
    fn fig13_reports_dynamic_vm_counts() {
        let s = fig13();
        assert!(s.contains("Dynamic counts (bytecode VM"), "{s}");
        assert!(s.contains("dynamic barriers saved"), "{s}");
    }

    #[test]
    fn vm_reports_and_emits_json() {
        let dir = std::env::temp_dir().join("bench-vm-test");
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("BENCH_vm.json");
        // Tiny scale: vm_to asserts the strict barrier reduction internally
        // (the >=2x speedup bar only applies to release builds).
        let s = vm_to(2, &artifact);
        for engine in VM_ENGINES {
            assert!(s.contains(engine), "missing engine {engine}: {s}");
        }
        for w in ["jvm98", "tsp", "oo7", "jbb"] {
            assert!(s.contains(w), "missing workload {w}: {s}");
        }
        assert!(s.contains("BENCH_vm.json"), "{s}");
        let json = std::fs::read_to_string(&artifact).expect("JSON artifact written");
        assert!(json.contains("\"experiment\":\"vm\""), "{json}");
        assert!(json.contains("\"engine\":\"vm+passes\""), "{json}");
        assert!(json.contains("\"aggregated\""), "{json}");
    }

    #[test]
    fn fig15_smoke() {
        // scale=1 keeps this test fast; just verify shape and that NoOpts
        // costs more than NAIT on at least the write-heavy kernels.
        let s = fig15(1);
        assert!(s.contains("compress"));
        assert!(s.contains("mpegaudio"));
    }

    #[test]
    fn scalability_smoke() {
        let out = workloads::tsp::run(&TspConfig::tiny(SyncMode::WeakAtom, 2));
        assert!(out.makespan > 0);
    }

    #[test]
    fn chaos_smoke() {
        // Two seeds keep the debug-build test quick; the CI chaos job runs
        // the full 32-seed campaign in release mode.
        let s = chaos(1, 2);
        assert!(s.contains("audits: 576/576 clean"), "{s}");
        assert!(s.contains("policy stops:"), "{s}");
    }

    #[test]
    fn isolation_reports_and_emits_json() {
        let dir = std::env::temp_dir().join("bench-isolation-test");
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("BENCH_isolation.json");
        // Tiny op count: this test checks shape (and the embedded anomaly
        // matrix, which isolation_to asserts internally), not performance.
        let s = isolation_to(40, &artifact);

        assert!(s.contains("matches expected spectrum: YES"), "{s}");
        for label in ["strong", "snapshot", "quiescence"] {
            assert!(s.contains(label), "missing {label}: {s}");
        }
        assert!(s.contains("BENCH_isolation.json"), "{s}");
        let json = std::fs::read_to_string(&artifact).expect("JSON artifact written");
        assert!(json.contains("\"experiment\":\"isolation\""), "{json}");
        assert!(json.contains("\"matrix_matches_expected\":true"), "{json}");
        assert!(json.contains("\"anomaly\":\"WS\""), "{json}");
        assert!(json.contains("\"level\":\"quiescence\""), "{json}");
    }

    #[test]
    fn granularity_reports_and_emits_json() {
        let dir = std::env::temp_dir().join("bench-granularity-test");
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("BENCH_granularity.json");
        // Tiny op count: this test checks shape, not performance.
        let s = granularity_to(40, &artifact);

        assert!(s.contains("per-object"), "{s}");
        assert!(s.contains("striped:1024"), "{s}");
        assert!(s.contains("BENCH_granularity.json"), "{s}");
        let json = std::fs::read_to_string(&artifact).expect("JSON artifact written");
        assert!(json.contains("\"experiment\":\"granularity\""), "{json}");
        assert!(json.contains("\"workload\":\"disjoint\""), "{json}");
        assert!(json.contains("\"false_conflict_rate\":null"), "{json}");
    }

    #[test]
    fn scale_reports_emit_json_and_disjoint_scales() {
        let dir = std::env::temp_dir().join("bench-scale-test");
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("BENCH_scale.json");
        let s = scale_to(120, &artifact);

        assert!(s.contains("disjoint"), "{s}");
        assert!(s.contains("contended"), "{s}");
        assert!(s.contains("eager"), "{s}");
        assert!(s.contains("lazy"), "{s}");
        assert!(s.contains("BENCH_scale.json"), "{s}");
        let json = std::fs::read_to_string(&artifact).expect("JSON artifact written");
        assert!(json.contains("\"experiment\":\"scale\""), "{json}");
        assert!(json.contains("\"threads\":16"), "{json}");

        // The acceptance bar: with no data conflicts, 8 threads must reach
        // at least 2.5x the 1-thread throughput in simulated time. Parse it
        // back out of the artifact rather than re-measuring.
        let mut checked = 0;
        for row in json.split('{').filter(|r| r.contains("\"workload\":\"disjoint\"")) {
            if !row.contains("\"threads\":8,") {
                continue;
            }
            let speedup: f64 = row
                .split("\"speedup_vs_1_thread\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.parse().ok())
                .expect("speedup field");
            assert!(speedup >= 2.5, "disjoint 8-thread speedup {speedup} < 2.5x:\n{s}");
            checked += 1;
        }
        assert_eq!(checked, 2, "expected one 8-thread disjoint row per engine:\n{json}");
    }

    #[test]
    fn mv_reports_wait_free_readers_and_emit_json() {
        let dir = std::env::temp_dir().join("bench-mv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("BENCH_mv.json");
        let s = mv_to(150, &artifact);

        assert!(s.contains("mv-off"), "{s}");
        assert!(s.contains("mv-on"), "{s}");
        assert!(s.contains("BENCH_mv.json"), "{s}");
        let json = std::fs::read_to_string(&artifact).expect("JSON artifact written");
        assert!(json.contains("\"experiment\":\"mv\""), "{json}");

        // The acceptance bar, parsed back out of the artifact: the mv-on
        // contended read-heavy mix at 16 workers beats its own 1-worker
        // baseline, read-only fast commits actually fired, and no declared
        // read-only transaction ever aborted or demoted.
        let mut checked = 0;
        for row in json.split('{').filter(|r| r.contains("\"mode\":\"mv-on\"")) {
            let field = |name: &str| -> f64 {
                row.split(&format!("\"{name}\":"))
                    .nth(1)
                    .and_then(|s| s.split([',', '}']).next())
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| panic!("field {name} in {row}"))
            };
            assert_eq!(field("ro_aborts") as u64, 0, "RO txn aborted/demoted:\n{row}");
            if row.contains("\"threads\":16,") {
                assert!(
                    field("speedup_vs_1_thread") > 1.0,
                    "mv-on 16-worker read-heavy speedup did not beat 1 thread:\n{s}"
                );
                assert!(field("ro_fast_commits") > 0.0, "no RO fast commits:\n{row}");
                checked += 1;
            }
        }
        assert_eq!(checked, 1, "expected one mv-on 16-worker row:\n{json}");
    }

    #[test]
    fn overload_reports_and_emits_json() {
        let dir = std::env::temp_dir().join("bench-overload-test");
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("BENCH_overload.json");
        // Tiny op count: this test checks shape and the zero-hung-workers
        // bar (asserted inside overload_to); the CI overload job runs the
        // full campaign in release mode with the plateau bars engaged.
        let s = overload_to(60, &artifact);

        assert!(s.contains("BENCH_overload.json"), "{s}");
        let json = std::fs::read_to_string(&artifact).expect("JSON artifact written");
        assert!(json.contains("\"experiment\":\"overload\""), "{json}");
        assert!(json.contains("\"workers\":16"), "{json}");
        assert!(json.contains("\"deadline_aborts\""), "{json}");
        assert!(json.contains("\"admission_rejects\""), "{json}");
        assert!(!json.contains("\"hung_workers\":1"), "{json}");
    }

    #[test]
    fn clock_reports_o1_commits_and_emits_json() {
        let dir = std::env::temp_dir().join("bench-clock-test");
        std::fs::create_dir_all(&dir).unwrap();
        let artifact = dir.join("BENCH_clock.json");
        // Tiny op count: this test checks the O(1)-commit identities and
        // the artifact shape, not performance.
        let s = clock_to(60, &artifact);
        assert!(s.contains("BENCH_clock.json"), "{s}");
        assert!(s.contains("marginal cycles per extra read"), "{s}");
        let json = std::fs::read_to_string(&artifact).expect("JSON artifact written");
        assert!(json.contains("\"experiment\":\"clock\""), "{json}");
        assert!(json.contains("\"mode\":\"global\""), "{json}");
        assert!(json.contains("\"mode\":\"tl-clock\""), "{json}");
        assert!(json.contains("\"reads\":256"), "{json}");

        // The acceptance identities, re-measured deterministically at one
        // thread: every global-clock commit takes the `wv == rv + 1` skip
        // (commit is O(1) in read-set size), the thread-local clock never
        // does, and the tl-clock per-commit cost therefore grows strictly
        // faster with the read-set size than the global one.
        use stm_core::config::ClockMode;
        for reads in CLOCK_READS {
            let g = clock_case(ClockMode::Global, reads, 1, 40);
            assert_eq!(
                g.revalidations_skipped, g.commits,
                "global @ {reads} reads: every single-threaded commit must skip"
            );
            assert_eq!(g.aborts, 0, "global @ {reads} reads: disjoint writes never abort");
            let t = clock_case(ClockMode::ThreadLocal, reads, 1, 40);
            assert_eq!(
                t.revalidations_skipped, 0,
                "tl-clock @ {reads} reads: the skip must stay disabled"
            );
        }
        let cpc = |mode: ClockMode, reads: usize| {
            clock_case(mode, reads, 1, 40).cycles_per_commit()
        };
        let g_slope = cpc(ClockMode::Global, 256) - cpc(ClockMode::Global, 4);
        let t_slope = cpc(ClockMode::ThreadLocal, 256) - cpc(ClockMode::ThreadLocal, 4);
        assert!(
            g_slope < t_slope,
            "commit must be O(1) on the global clock: \
             global growth {g_slope:.1} cycles !< tl-clock growth {t_slope:.1}"
        );
    }

    #[test]
    fn contention_report_covers_every_policy() {
        let s = contention();
        for label in ["aggressive", "backoff", "karma"] {
            assert!(s.contains(&format!("policy: {label}")), "missing {label}: {s}");
        }
        // The telemetry table itself made it into the report.
        assert!(s.contains("site"), "{s}");
        assert!(s.contains("commits="), "{s}");
    }
}
