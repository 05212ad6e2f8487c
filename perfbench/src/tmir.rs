//! `tmir`: the TMIR SpecJBB program through the whole toolchain.
//!
//! Set-up runs `workloads::tmir_sources::jbb_scaled` through parse, check,
//! whole-program NAIT analysis, bytecode compilation under a strong barrier
//! table, and the bytecode passes (final-field and escape elision, NAIT
//! removal, Figure-14 aggregation). There are [`VARIANTS`] programs, one per
//! scale in [`SCALES`]; the seed picks their worker seeds and which program
//! each op runs, with the shares in [`SHARES`]. Each op is one run of one
//! program on a fresh `BytecodeVm`, priced in virtual cycles by
//! the `repro vm` cost model: barrier, publish, commit and abort counts
//! times `CostTable::default()`. The two workers use distinct warehouses,
//! so no run aborts and every count repeats exactly.

use crate::bench::{per, Layers, Sample, Span};
use crate::{pinned_config, Rng};
use simsched::CostTable;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use stm_core::stats::StatsSnapshot;
use tmir::bytecode::{optimize, PassOptions};
use tmir::vm::{heap_dump, BarrierStats};
use tmir::{check, compile, BarrierTable, BcVmConfig, BytecodeVm, CompiledProgram, Vm, VmConfig};
use tmir_analysis::analyze_and_remove;

/// Programs compiled per seed.
pub const VARIANTS: usize = 4;

/// The `jbb_scaled` scale of each variant.
pub const SCALES: [u32; VARIANTS] = [1, 2, 4, 8];

/// Percent of ops that run each variant, exactly. The cumulative shares
/// (15, 70, 90, 100) put the median inside the scale-2 runs and p99 inside
/// the scale-8 runs, away from any boundary between variants.
pub const SHARES: [u64; VARIANTS] = [15, 55, 20, 10];

/// Op type names: the variant an op runs.
pub const KINDS: [&str; VARIANTS] = ["variant0", "variant1", "variant2", "variant3"];

/// Wall time per compile-pipeline stage, summed over the variants.
#[derive(Copy, Clone, Debug, Default)]
pub struct PipelineTimes {
    /// Parse and type check.
    pub parse_check: Duration,
    /// Whole-program points-to and NAIT analysis.
    pub analyze: Duration,
    /// Bytecode compilation.
    pub compile: Duration,
    /// Elision, NAIT removal and aggregation passes.
    pub passes: Duration,
}

impl PipelineTimes {
    /// All stages together: the workload's set-up time.
    pub fn total(&self) -> Duration {
        self.parse_check + self.analyze + self.compile + self.passes
    }
}

/// One compiled variant and its reference result.
struct Variant {
    compiled: CompiledProgram,
    sites_removed: usize,
    /// The tree-walking interpreter's output and heap fingerprint.
    reference: (Vec<i64>, Vec<i64>),
}

/// The compiled programs and the op stream.
pub struct Tmir {
    variants: Vec<Variant>,
    stream: Vec<u8>,
}

/// The variant sources for `seed`: `jbb_scaled` with seeded worker seeds
/// (one odd, one even, so the workers take different warehouses).
fn sources(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, 0x7A1);
    SCALES
        .iter()
        .map(|&scale| {
            let odd = 2 * rng.below(500) + 1;
            let even = 2 * rng.below(500) + 2;
            workloads::tmir_sources::jbb_scaled(scale)
                .replacen("spawn worker(1)", &format!("spawn worker({odd})"), 1)
                .replacen("spawn worker(2)", &format!("spawn worker({even})"), 1)
        })
        .collect()
}

/// Runs the compile pipeline over `srcs`, timing each stage.
fn compile_all(srcs: &[String]) -> (Vec<(tmir::Checked, CompiledProgram, usize)>, PipelineTimes) {
    let mut times = PipelineTimes::default();
    let mut out = Vec::with_capacity(srcs.len());
    for src in srcs {
        let t = Instant::now();
        let checked = check(tmir::parse::parse(src).expect("jbb parses")).expect("jbb checks");
        times.parse_check += t.elapsed();

        let t = Instant::now();
        let (_, removal) = analyze_and_remove(&checked.program);
        times.analyze += t.elapsed();

        let t = Instant::now();
        let mut cp = compile(&checked, &BarrierTable::strong(&checked.program));
        times.compile += t.elapsed();

        // Elisions first, so aggregation only fuses accesses that still
        // carry barriers.
        let t = Instant::now();
        optimize(&mut cp, PassOptions::elim_only());
        let removed = removal.apply_nait_bytecode(&mut cp);
        optimize(
            &mut cp,
            PassOptions {
                immutable: false,
                escape: false,
                aggregate: true,
            },
        );
        times.passes += t.elapsed();
        out.push((checked, cp, removed));
    }
    (out, times)
}

/// Times the compile pipeline for `seed`'s variants once.
pub fn setup(seed: u64) -> PipelineTimes {
    compile_all(&sources(seed)).1
}

impl Tmir {
    /// Compiles `seed`'s variants, runs each once on the interpreter for
    /// its reference result, and generates `ops` ops.
    pub fn build(seed: u64, ops: usize) -> Tmir {
        let (compiled, _) = compile_all(&sources(seed));
        let variants = compiled
            .into_iter()
            .map(|(checked, compiled, sites_removed)| {
                let table = BarrierTable::strong(&checked.program);
                let vm = Vm::new(
                    checked,
                    VmConfig {
                        stm: pinned_config(false),
                        table,
                        ..VmConfig::default()
                    },
                );
                let r = vm.run().expect("interpreter runs jbb");
                let reference = (r.output, heap_dump(vm.heap(), vm.statics()));
                Variant {
                    compiled,
                    sites_removed,
                    reference,
                }
            })
            .collect();
        // Exact shares, in a seeded order (Fisher-Yates).
        let mut stream: Vec<u8> = SHARES
            .iter()
            .enumerate()
            .flat_map(|(v, &share)| std::iter::repeat_n(v as u8, ops * share as usize / 100))
            .collect();
        let mut rng = Rng::new(seed, 0x7A2);
        for i in (1..stream.len()).rev() {
            stream.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Tmir { variants, stream }
    }

    /// Runs every op; `trace` records a wall-clock span per op.
    pub fn run(&self, trace: bool) -> Sample {
        let costs = CostTable::default();
        let t0 = Instant::now();
        let mut total = Counts::default();
        let mut facts = String::new();
        let mut latencies = Vec::with_capacity(self.stream.len());
        let mut spans = Vec::new();
        let mut vm_wall = Vec::with_capacity(self.stream.len());
        let mut failures = Vec::new();
        let mut clock = 0u64;
        for (i, &v) in self.stream.iter().enumerate() {
            let variant = &self.variants[v as usize];
            let w0 = t0.elapsed();
            let vm = BytecodeVm::new(
                variant.compiled.clone(),
                BcVmConfig {
                    stm: pinned_config(false),
                    ..BcVmConfig::default()
                },
            );
            let r = vm.run();
            let w1 = t0.elapsed();
            vm_wall.push(w1 - w0);
            match r {
                Ok(r) => {
                    let counts = Counts::of(&r.stats, &vm.barrier_stats());
                    let same = (r.output, heap_dump(vm.heap(), vm.statics())) == variant.reference;
                    let cycles = counts.cycles(&costs);
                    writeln!(facts, "{i} {v} {cycles} {counts:?}").expect("write to String");
                    total.add(&counts);
                    if same {
                        latencies.push(cycles);
                    } else {
                        failures.push(format!(
                            "tmir: op {i} (variant {v}) differs from the interpreter"
                        ));
                    }
                    if trace {
                        spans.push(Span {
                            client: 0,
                            kind: KINDS[v as usize],
                            ok: same,
                            attempts: (counts.commits + counts.aborts) as u32,
                            v_start: clock,
                            v_end: clock + cycles,
                            wall_start_ns: w0.as_nanos() as u64,
                            wall_end_ns: w1.as_nanos() as u64,
                        });
                    }
                    clock += cycles;
                }
                Err(trap) => failures.push(format!("tmir: op {i} (variant {v}) trapped: {trap}")),
            }
        }
        let wall = t0.elapsed();
        let ops = self.stream.len() as u64;
        let completed = latencies.len() as u64;
        latencies.sort_unstable();
        let mut layers = Layers::new();
        if trace {
            self.layers(&mut layers, &total, ops, &costs, &mut vm_wall);
        }
        Sample {
            attempted: ops,
            completed,
            vcycles: clock,
            latencies,
            failures,
            facts,
            layers,
            spans,
            wall,
        }
    }

    fn layers(
        &self,
        l: &mut Layers,
        t: &Counts,
        ops: u64,
        c: &CostTable,
        vm_wall: &mut [Duration],
    ) {
        let per_op = |n: u64| per(n, ops);
        let [txn, barrier, plain] = t.layer_cycles(c);
        l.insert("txn.vcycles_per_op", per_op(txn));
        l.insert(
            "txn.attempts_per_commit",
            per(t.commits + t.aborts, t.commits),
        );
        l.insert("txn.abort_vcycles_per_op", per_op(t.aborts * c.txn_abort));
        l.insert("barrier.vcycles_per_op", per_op(barrier));
        l.insert("barrier.read_slow_per_op", per_op(t.read_barriers));
        l.insert("barrier.write_slow_per_op", per_op(t.write_barriers));
        l.insert("barrier.aggregated_per_op", per_op(t.aggregated));
        l.insert("dea.private_fast_per_op", per_op(t.private_fast));
        l.insert("dea.publishes_per_op", per_op(t.publishes));
        l.insert(
            "dea.fast_path_ratio",
            per(
                t.private_fast,
                t.private_fast + t.read_barriers + t.write_barriers,
            ),
        );
        l.insert("plain.vcycles_per_op", per_op(plain));
        let n = self.variants.len() as f64;
        l.insert(
            "tmir.insns",
            self.variants
                .iter()
                .map(|v| v.compiled.insn_count())
                .sum::<usize>() as f64
                / n,
        );
        l.insert(
            "nait.sites_removed",
            self.variants.iter().map(|v| v.sites_removed).sum::<usize>() as f64 / n,
        );
        l.insert("tmir.barriers_executed", per_op(t.executed));
        l.insert("tmir.barriers_elided", per_op(t.elided));
        l.insert("tmir.barriers_aggregated", per_op(t.aggregated));
        l.insert("tmir.regions", per_op(t.regions));
        l.insert(
            "tmir.vm_run_ms",
            crate::bench::median_duration(vm_wall).as_secs_f64() * 1e3,
        );
        // No simulated processors and no tee: both figures are the cost
        // model's sum, reported for a uniform layer list.
        l.insert("trace.attributed_vcycles", (txn + barrier + plain) as f64);
        l.insert("trace.proc_busy_vcycles", t.cycles(c) as f64);
    }
}

/// The counters one VM run reports, as the cost model reads them.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
struct Counts {
    commits: u64,
    aborts: u64,
    read_barriers: u64,
    write_barriers: u64,
    private_fast: u64,
    publishes: u64,
    executed: u64,
    elided: u64,
    aggregated: u64,
    regions: u64,
}

impl Counts {
    fn of(s: &StatsSnapshot, b: &BarrierStats) -> Counts {
        Counts {
            commits: s.commits,
            aborts: s.aborts,
            read_barriers: s.read_barriers,
            write_barriers: s.write_barriers,
            private_fast: s.private_fast_paths,
            publishes: s.publishes,
            executed: b.executed,
            elided: b.elided,
            aggregated: b.aggregated,
            regions: b.regions,
        }
    }

    fn add(&mut self, o: &Counts) {
        self.commits += o.commits;
        self.aborts += o.aborts;
        self.read_barriers += o.read_barriers;
        self.write_barriers += o.write_barriers;
        self.private_fast += o.private_fast;
        self.publishes += o.publishes;
        self.executed += o.executed;
        self.elided += o.elided;
        self.aggregated += o.aggregated;
        self.regions += o.regions;
    }

    /// Virtual cycles under the `repro vm` cost model, split into the txn,
    /// barrier and plain layers: every executed barrier at its full price,
    /// every elided access at a plain read, every aggregated access at the
    /// private fast path (the region's acquisition is already in the
    /// write-barrier count).
    fn layer_cycles(&self, c: &CostTable) -> [u64; 3] {
        let txn = self.commits * (c.txn_begin + c.txn_commit) + self.aborts * c.txn_abort;
        let barrier = self.read_barriers * c.barrier_read
            + self.write_barriers * c.barrier_write
            + self.private_fast * c.barrier_private
            + self.publishes * c.publish
            + self.aggregated * c.barrier_private;
        let plain = self.elided * c.plain_read;
        [txn, barrier, plain]
    }

    /// Virtual cycles of the counted events: the sum of their layers.
    fn cycles(&self, c: &CostTable) -> u64 {
        self.layer_cycles(c).iter().sum()
    }
}
