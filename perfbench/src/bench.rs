//! One benchmark invocation: set-up, measured runs, checks and metrics.
//!
//! An untraced invocation (`trace == false`) runs the seed's workload, runs
//! one other seed for its correctness oracles, and repeats the seed's run
//! until the time budget is spent. It reports the end-to-end metrics [`E2E`]
//! of the first run. A traced invocation alternates traced and untraced runs
//! of the seed for the time budget and reports the per-layer metrics
//! [`LAYERS`] of the first traced run. Both time [`SETUP_BURST`] set-ups
//! before the first run and after every repeat, so the set-up median
//! samples the whole invocation rather than one moment of it. Every run of
//! the seed should reproduce the first run's virtual facts exactly; each
//! run that does not is reported as drift.

use crate::barrier::{self, Barrier, BarrierOps};
use crate::jbb::{self, Jbb, JbbOps};
use crate::overload::{self, Overload, OverloadOps};
use crate::pct::percentile;
use crate::sim::{simulate, SimRun, SimWorld};
use crate::tee::Tally;
use crate::tmir::{self, PipelineTimes, Tmir};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One set-up's wall time, and its stage times when it compiled programs.
pub type SetupTime = (Duration, Option<PipelineTimes>);

/// Set-ups timed back to back, before the first run and after each repeat;
/// `setup_s` is the median over all of them.
pub const SETUP_BURST: usize = 11;

/// End-to-end metrics: name and unit.
pub const E2E: [(&str, &str); 6] = [
    ("vthroughput_ops_per_mcycle", "ops/Mcycle"),
    ("vlatency_p50_cycles", "cycles"),
    ("vlatency_p99_cycles", "cycles"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit. Every traced invocation reports all
/// of them; a layer a workload does not exercise reads 0.
pub const LAYERS: [(&str, &str); 52] = [
    ("txn.vcycles_per_op", "cycles/op"),
    ("txn.open_reads_per_op", "count/op"),
    ("txn.open_writes_per_op", "count/op"),
    ("txn.validate_entries_per_op", "count/op"),
    ("txn.commit_entries_per_op", "count/op"),
    ("txn.attempts_per_commit", "count"),
    ("txn.abort_vcycles_per_op", "cycles/op"),
    ("clock.o1_validations_per_op", "count/op"),
    ("clock.revalidations_skipped_per_commit", "ratio"),
    ("clock.rv_extensions", "count"),
    ("clock.cas_retries", "count"),
    ("contention.backoff_vcycles_per_op", "cycles/op"),
    ("contention.conflicts_per_op", "count/op"),
    ("contention.self_aborts_per_op", "count/op"),
    ("contention.wait_rounds_p99", "rounds"),
    ("contention.escalations", "count"),
    ("contention.deadline_aborts", "count"),
    ("contention.retries_exhausted", "count"),
    ("contention.admission_rejects", "count"),
    ("barrier.vcycles_per_op", "cycles/op"),
    ("barrier.read_slow_per_op", "count/op"),
    ("barrier.write_slow_per_op", "count/op"),
    ("barrier.aggregated_per_op", "count/op"),
    ("dea.private_fast_per_op", "count/op"),
    ("dea.publishes_per_op", "count/op"),
    ("dea.fast_path_ratio", "ratio"),
    ("app.vcycles_per_op", "cycles/op"),
    ("plain.vcycles_per_op", "cycles/op"),
    ("other.vcycles_per_op", "cycles/op"),
    ("simsched.utilization", "ratio"),
    ("simsched.switches_per_op", "count/op"),
    ("simsched.wall_us_per_op", "us/op"),
    ("tmir.parse_check_ms", "ms"),
    ("nait.analyze_ms", "ms"),
    ("tmir.compile_ms", "ms"),
    ("tmir.passes_ms", "ms"),
    ("tmir.insns", "count"),
    ("nait.sites_removed", "count"),
    ("tmir.barriers_executed", "count/op"),
    ("tmir.barriers_elided", "count/op"),
    ("tmir.barriers_aggregated", "count/op"),
    ("tmir.regions", "count/op"),
    ("tmir.vm_run_ms", "ms"),
    ("vlatency.samples", "count"),
    ("vlatency.beyond_p99", "count"),
    ("trace.attributed_vcycles", "cycles"),
    ("trace.proc_busy_vcycles", "cycles"),
    ("trace.unattributed_vcycles", "cycles"),
    ("trace.wall_overhead_ratio", "ratio"),
    ("determinism.runs", "count"),
    ("determinism.distinct_outcomes", "count"),
    ("determinism.traced_unmatched", "count"),
];

/// The benchmark's workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// SpecJBB/TPC-C transaction mix.
    Jbb,
    /// Tsp-shaped non-transactional barrier traffic.
    Barrier,
    /// The two-worker overload cell.
    Overload,
    /// TMIR SpecJBB on the bytecode VM.
    Tmir,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::Jbb,
        Workload::Barrier,
        Workload::Overload,
        Workload::Tmir,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Jbb => "jbb",
            Workload::Barrier => "barrier",
            Workload::Overload => "overload",
            Workload::Tmir => "tmir",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Ops per client (simulated workloads) or program runs (`tmir`).
    pub fn ops(self) -> usize {
        match self {
            Workload::Jbb => 10_000,
            Workload::Barrier => 10_000,
            Workload::Overload => 2000,
            Workload::Tmir => 1200,
        }
    }

    /// Times [`SETUP_BURST`] set-ups for `seed`. A set-up builds the world
    /// (heap, shapes, shared objects) for op streams generated beforehand,
    /// outside the timed region, or compiles the programs, timing each
    /// stage.
    pub fn setups(self, seed: u64) -> Vec<SetupTime> {
        let n = self.ops();
        match self {
            Workload::Jbb => time_builds(Arc::new(JbbOps::generate(seed, n)), Jbb::new),
            Workload::Barrier => time_builds(Arc::new(BarrierOps::generate(seed, n)), Barrier::new),
            Workload::Overload => {
                time_builds(Arc::new(OverloadOps::generate(seed, n)), Overload::new)
            }
            Workload::Tmir => (0..SETUP_BURST)
                .map(|_| {
                    let stages = tmir::setup(seed);
                    (stages.total(), Some(stages))
                })
                .collect(),
        }
    }

    /// Builds a fresh world for `seed` and runs it.
    pub fn run(self, seed: u64, trace: bool) -> Sample {
        match self {
            Workload::Jbb => sim_sample(Jbb::build(seed, self.ops()), &jbb::KINDS, trace),
            Workload::Barrier => {
                sim_sample(Barrier::build(seed, self.ops()), &barrier::KINDS, trace)
            }
            Workload::Overload => {
                sim_sample(Overload::build(seed, self.ops()), &overload::KINDS, trace)
            }
            Workload::Tmir => Tmir::build(seed, self.ops()).run(trace),
        }
    }
}

/// Times [`SETUP_BURST`] builds of a world from the same inputs; each
/// world is dropped after its timer stops.
fn time_builds<I, W>(inputs: Arc<I>, build: fn(Arc<I>) -> W) -> Vec<SetupTime> {
    (0..SETUP_BURST)
        .map(|_| {
            let inputs = Arc::clone(&inputs);
            let t = Instant::now();
            let world = std::hint::black_box(build(inputs));
            let took = t.elapsed();
            drop(world);
            (took, None)
        })
        .collect()
}

/// One op of a traced run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Client that ran the op.
    pub client: u8,
    /// Op type.
    pub kind: &'static str,
    /// Whether the op completed.
    pub ok: bool,
    /// Transaction attempts the op made.
    pub attempts: u32,
    /// Virtual start, cycles.
    pub v_start: u64,
    /// Virtual end, cycles.
    pub v_end: u64,
    /// Wall start, nanoseconds since the run began.
    pub wall_start_ns: u64,
    /// Wall end, nanoseconds since the run began.
    pub wall_end_ns: u64,
}

/// One measured run of a workload.
pub struct Sample {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops completed; 0 when an end-of-run oracle failed.
    pub completed: u64,
    /// Virtual cycles the run took: the makespan.
    pub vcycles: u64,
    /// Virtual latency of each completed op, sorted.
    pub latencies: Vec<u64>,
    /// Oracle violations.
    pub failures: Vec<String>,
    /// Every virtual number the run produced, for exact-repeat checks.
    pub facts: String,
    /// Per-layer metrics (traced runs).
    pub layers: Layers,
    /// Per-op spans (traced runs).
    pub spans: Vec<Span>,
    /// Wall time of the run.
    pub wall: Duration,
}

/// Median of `v` (upper median for an even count); zero when empty.
pub fn median_duration(v: &mut [Duration]) -> Duration {
    v.sort_unstable();
    v.get(v.len() / 2).copied().unwrap_or_default()
}

/// `n / d`, or 0 when `d` is 0.
pub(crate) fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Runs a simulated world and reads its sample.
fn sim_sample<W: SimWorld>(world: W, kinds: &'static [&'static str], trace: bool) -> Sample {
    let run = simulate(&Arc::new(world), trace);
    let mut facts = String::new();
    let r = &run.report;
    writeln!(
        facts,
        "{} {:?} {:?} {:?}",
        r.makespan, r.finish_clocks, r.proc_busy, run.stats
    )
    .expect("write to String");
    for o in &run.recs {
        writeln!(
            facts,
            "{} {} {} {:?} {} {}",
            o.client, o.kind, o.ok, o.telem, o.v_start, o.v_end
        )
        .expect("write to String");
    }
    let mut latencies: Vec<u64> = run
        .recs
        .iter()
        .filter(|o| o.ok)
        .map(|o| o.latency())
        .collect();
    latencies.sort_unstable();
    let completed = if run.failures.is_empty() {
        latencies.len() as u64
    } else {
        0
    };
    let layers = match &run.tally {
        Some(t) => sim_layers(&run, t),
        None => Layers::new(),
    };
    let spans = if trace {
        run.recs
            .iter()
            .map(|o| Span {
                client: o.client,
                kind: kinds[o.kind as usize],
                ok: o.ok,
                attempts: o.telem.attempts,
                v_start: o.v_start,
                v_end: o.v_end,
                wall_start_ns: o.wall_start_ns,
                wall_end_ns: o.wall_end_ns,
            })
            .collect()
    } else {
        Vec::new()
    };
    Sample {
        attempted: run.recs.len() as u64,
        completed,
        vcycles: r.makespan,
        latencies,
        failures: run.failures,
        facts,
        layers,
        spans,
        wall: run.wall,
    }
}

/// Per-layer metrics of a traced simulation.
fn sim_layers(run: &SimRun, t: &Tally) -> Layers {
    let ops = run.recs.len() as u64;
    let s = &run.stats;
    let per_op = |n: u64| per(n, ops);
    let cycles = |names: &[&str]| names.iter().map(|n| t.cycles_of(n)).sum::<u64>();
    let txn = cycles(&[
        "txn_open_read",
        "txn_open_write",
        "txn_validate_entry",
        "txn_commit_entry",
        "txn_begin",
        "txn_commit",
        "txn_abort",
    ]);
    let barrier = cycles(&[
        "barrier_read",
        "barrier_write",
        "barrier_private_fast",
        "barrier_aggregated",
        "publish",
    ]);
    let backoff = cycles(&["backoff", "backoff_wait"]);
    let app = cycles(&["app_work"]);
    let plain = cycles(&["plain_read", "plain_write"]);
    let other = cycles(&["lock_acquire", "lock_release", "other"]);
    let attempts: u64 = run.recs.iter().map(|o| o.telem.attempts as u64).sum();
    let mut rounds: Vec<u64> = run
        .recs
        .iter()
        .map(|o| o.telem.wait_rounds as u64)
        .collect();
    rounds.sort_unstable();
    let fast = t.events_of("barrier_private_fast");
    let slow = t.events_of("barrier_read")
        + t.events_of("barrier_write")
        + t.events_of("barrier_aggregated");
    let busy: u64 = run.report.proc_busy.iter().sum();
    // Every tee slot belongs to exactly one of these layers; a slot left
    // out would show as unattributed cycles.
    let attributed = txn + barrier + backoff + app + plain + other;

    let mut l = Layers::new();
    l.insert("txn.vcycles_per_op", per_op(txn));
    l.insert(
        "txn.open_reads_per_op",
        per_op(t.events_of("txn_open_read")),
    );
    l.insert(
        "txn.open_writes_per_op",
        per_op(t.events_of("txn_open_write")),
    );
    l.insert(
        "txn.validate_entries_per_op",
        per_op(t.events_of("txn_validate_entry")),
    );
    l.insert(
        "txn.commit_entries_per_op",
        per_op(t.events_of("txn_commit_entry")),
    );
    l.insert("txn.attempts_per_commit", per(attempts, s.commits));
    l.insert("txn.abort_vcycles_per_op", per_op(t.cycles_of("txn_abort")));
    l.insert("clock.o1_validations_per_op", per_op(s.o1_validations));
    l.insert(
        "clock.revalidations_skipped_per_commit",
        per(s.revalidations_skipped, s.commits),
    );
    l.insert("clock.rv_extensions", s.rv_extensions as f64);
    l.insert("clock.cas_retries", s.clock_cas_retries as f64);
    l.insert("contention.backoff_vcycles_per_op", per_op(backoff));
    l.insert("contention.conflicts_per_op", per_op(s.total_conflicts()));
    l.insert(
        "contention.self_aborts_per_op",
        per_op(s.total_self_aborts()),
    );
    l.insert(
        "contention.wait_rounds_p99",
        percentile(&rounds, 99.0).map_or(f64::NAN, |p| p.value as f64),
    );
    l.insert("contention.escalations", s.escalations_to_serial as f64);
    l.insert("contention.deadline_aborts", s.deadline_aborts as f64);
    l.insert("contention.retries_exhausted", s.retries_exhausted as f64);
    l.insert("contention.admission_rejects", s.admission_rejects as f64);
    l.insert("barrier.vcycles_per_op", per_op(barrier));
    l.insert(
        "barrier.read_slow_per_op",
        per_op(t.events_of("barrier_read")),
    );
    l.insert(
        "barrier.write_slow_per_op",
        per_op(t.events_of("barrier_write")),
    );
    l.insert(
        "barrier.aggregated_per_op",
        per_op(t.events_of("barrier_aggregated")),
    );
    l.insert("dea.private_fast_per_op", per_op(fast));
    l.insert("dea.publishes_per_op", per_op(s.publishes));
    l.insert("dea.fast_path_ratio", per(fast, fast + slow));
    l.insert("app.vcycles_per_op", per_op(app));
    l.insert("plain.vcycles_per_op", per_op(plain));
    l.insert("other.vcycles_per_op", per_op(other));
    l.insert("simsched.utilization", run.report.utilization());
    l.insert("simsched.switches_per_op", per_op(run.report.switches));
    l.insert("trace.attributed_vcycles", attributed as f64);
    l.insert("trace.proc_busy_vcycles", busy as f64);
    l
}

/// A benchmark invocation's settings.
#[derive(Copy, Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: u64,
    /// Traced (per-layer) invocation.
    pub trace: bool,
}

/// What an invocation found.
pub struct Outcome {
    /// No oracle, percentile or attribution check failed.
    pub correct: bool,
    /// Ops attempted in the seed's run.
    pub attempted: u64,
    /// Ops that did not complete.
    pub failed: u64,
    /// Metrics: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Every failed check.
    pub problems: Vec<String>,
    /// Runs that did not reproduce the seed's first run exactly.
    pub warnings: Vec<String>,
    /// Other facts worth printing (sample counts, files written).
    pub notes: Vec<String>,
}

/// The seed whose oracles each invocation also checks.
pub fn other_seed(seed: u64) -> u64 {
    seed.wrapping_add(0x5EED)
}

/// The virtual end-to-end metrics of a sample, and the latency sample
/// count behind them.
fn virtual_e2e(s: &Sample, problems: &mut Vec<String>) -> ([f64; 4], usize, usize) {
    let pct = |p: f64, problems: &mut Vec<String>| match percentile(&s.latencies, p) {
        Ok(v) => (v.value as f64, v.beyond),
        Err(e) => {
            problems.push(format!("p{p}: {e}"));
            (f64::NAN, 0)
        }
    };
    let (p50, _) = pct(50.0, problems);
    let (p99, beyond) = pct(99.0, problems);
    let values = [
        per(s.completed, s.vcycles) * 1e6,
        p50,
        p99,
        per(s.completed, s.attempted),
    ];
    (values, s.latencies.len(), beyond)
}

/// The distinct virtual outcomes among the runs of one seed. An outcome is
/// a run's facts, kept as a hash.
struct Outcomes {
    untraced: BTreeSet<u64>,
    traced: Vec<u64>,
    runs: u64,
}

fn fingerprint(facts: &str) -> u64 {
    let mut h = DefaultHasher::new();
    facts.hash(&mut h);
    h.finish()
}

impl Outcomes {
    fn new(first: &Sample) -> Outcomes {
        Outcomes {
            untraced: BTreeSet::from([fingerprint(&first.facts)]),
            traced: Vec::new(),
            runs: 1,
        }
    }

    /// Records another run of the seed. An outcome not seen before is
    /// reported as a warning quoting the first line where its facts differ
    /// from the first run's.
    fn record(
        &mut self,
        what: &str,
        first: &Sample,
        again: &Sample,
        traced: bool,
        warnings: &mut Vec<String>,
    ) {
        self.runs += 1;
        let h = fingerprint(&again.facts);
        if !self.untraced.contains(&h) && !self.traced.contains(&h) {
            let short = |l: &str| l.chars().take(120).collect::<String>();
            let diff = first
                .facts
                .lines()
                .zip(again.facts.lines())
                .enumerate()
                .find(|(_, (a, b))| a != b);
            let at = match diff {
                Some((i, (a, b))) => format!("line {i}: `{}` became `{}`", short(a), short(b)),
                None => "a different number of lines".to_string(),
            };
            warnings.push(format!(
                "drift: {what} did not reproduce the first run's virtual facts; {at}"
            ));
        }
        if traced {
            self.traced.push(h);
        } else {
            self.untraced.insert(h);
        }
    }

    /// Distinct outcomes over all runs; 1 when the seed repeats exactly.
    fn distinct(&self) -> usize {
        let mut all = self.untraced.clone();
        all.extend(&self.traced);
        all.len()
    }

    /// Traced runs whose outcome no untraced run produced.
    fn traced_unmatched(&self) -> usize {
        self.traced
            .iter()
            .filter(|h| !self.untraced.contains(h))
            .count()
    }
}

/// Peak resident set size of this process in MiB, from `/proc`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Runs one invocation.
pub fn execute(cfg: Config) -> Outcome {
    let start = Instant::now();
    let budget = Duration::from_secs(cfg.seconds);
    let w = cfg.workload;
    let mut problems = Vec::new();
    let mut warnings = Vec::new();
    let mut notes = Vec::new();

    let mut setups = w.setups(cfg.seed);
    let setup_median = |setups: &[SetupTime], f: &dyn Fn(&SetupTime) -> Duration| {
        let mut v: Vec<Duration> = setups.iter().map(f).collect();
        median_duration(&mut v)
    };

    let first = w.run(cfg.seed, false);
    problems.extend(first.failures.iter().cloned());
    let (e2e, samples, beyond) = virtual_e2e(&first, &mut problems);
    notes.push(format!(
        "latency samples: {samples} completed ops, {beyond} beyond p99"
    ));
    let mut outcomes = Outcomes::new(&first);
    let mut metrics = Vec::new();

    if cfg.trace {
        let mut walls = vec![first.wall];
        let mut traced_walls = Vec::new();
        let mut kept: Option<Sample> = None;
        loop {
            let t = w.run(cfg.seed, true);
            problems.extend(t.failures.iter().map(|f| format!("traced run: {f}")));
            outcomes.record("a traced run", &first, &t, true, &mut warnings);
            traced_walls.push(t.wall);
            kept.get_or_insert(t);
            if start.elapsed() >= budget {
                break;
            }
            let u = w.run(cfg.seed, false);
            outcomes.record("an untraced repeat", &first, &u, false, &mut warnings);
            walls.push(u.wall);
            setups.extend(w.setups(cfg.seed));
        }
        let kept = kept.expect("at least one traced run");
        let untraced_wall = median_duration(&mut walls);
        let traced_wall = median_duration(&mut traced_walls);
        let mut layers = kept.layers;
        if w == Workload::Tmir {
            let stage_ms = |f: fn(&PipelineTimes) -> Duration| {
                setup_median(&setups, &|s| s.1.as_ref().map_or(Duration::ZERO, f)).as_secs_f64()
                    * 1e3
            };
            layers.insert("tmir.parse_check_ms", stage_ms(|p| p.parse_check));
            layers.insert("nait.analyze_ms", stage_ms(|p| p.analyze));
            layers.insert("tmir.compile_ms", stage_ms(|p| p.compile));
            layers.insert("tmir.passes_ms", stage_ms(|p| p.passes));
        } else {
            layers.insert(
                "simsched.wall_us_per_op",
                untraced_wall.as_secs_f64() * 1e6 / first.attempted as f64,
            );
        }
        let attributed = layers
            .get("trace.attributed_vcycles")
            .copied()
            .unwrap_or(0.0);
        let busy = layers
            .get("trace.proc_busy_vcycles")
            .copied()
            .unwrap_or(0.0);
        layers.insert("trace.unattributed_vcycles", busy - attributed);
        // On `tmir` both figures are the cost model's sum, so only the
        // simulated workloads' tee attribution is a check.
        if w != Workload::Tmir && busy != attributed {
            problems.push(format!(
                "the trace attributed {attributed} of {busy} busy cycles to a layer"
            ));
        }
        layers.insert(
            "trace.wall_overhead_ratio",
            traced_wall.as_secs_f64() / untraced_wall.as_secs_f64().max(1e-9) - 1.0,
        );
        layers.insert("vlatency.samples", samples as f64);
        layers.insert("vlatency.beyond_p99", beyond as f64);
        layers.insert("determinism.runs", outcomes.runs as f64);
        layers.insert("determinism.distinct_outcomes", outcomes.distinct() as f64);
        layers.insert(
            "determinism.traced_unmatched",
            outcomes.traced_unmatched() as f64,
        );
        notes.push(format!(
            "runs of the seed: {} traced, {} untraced, {} distinct virtual outcomes, \
             {} traced runs matching no untraced run; median wall {:.3}s traced vs {:.3}s untraced",
            traced_walls.len(),
            walls.len(),
            outcomes.distinct(),
            outcomes.traced_unmatched(),
            traced_wall.as_secs_f64(),
            untraced_wall.as_secs_f64()
        ));
        match write_spans(&cfg, &kept.spans) {
            Ok(p) => notes.push(format!(
                "spans: {} ops written to {}",
                kept.spans.len(),
                p.display()
            )),
            Err(e) => problems.push(format!("writing spans: {e}")),
        }
        for (name, unit) in LAYERS {
            metrics.push((name, layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        let other = w.run(other_seed(cfg.seed), false);
        problems.extend(
            other
                .failures
                .iter()
                .map(|f| format!("seed {}: {f}", other_seed(cfg.seed))),
        );
        let rss = peak_rss_mb().unwrap_or_else(|| {
            problems.push("peak RSS unavailable: no /proc/self/status".to_string());
            f64::NAN
        });
        loop {
            let again = w.run(cfg.seed, false);
            problems.extend(again.failures.iter().map(|f| format!("repeat: {f}")));
            outcomes.record("a repeat of the seed", &first, &again, false, &mut warnings);
            setups.extend(w.setups(cfg.seed));
            if start.elapsed() >= budget {
                break;
            }
        }
        notes.push(format!(
            "runs of the seed: {}, {} distinct virtual outcomes; {} set-ups timed",
            outcomes.runs,
            outcomes.distinct(),
            setups.len()
        ));
        let values = [
            e2e[0],
            e2e[1],
            e2e[2],
            e2e[3],
            setup_median(&setups, &|s| s.0).as_secs_f64(),
            rss,
        ];
        for ((name, unit), v) in E2E.into_iter().zip(values) {
            metrics.push((name, v, unit));
        }
    }
    for &(name, v, _) in &metrics {
        if !v.is_finite() {
            problems.push(format!("{name} is not a finite number"));
        }
    }
    Outcome {
        correct: problems.is_empty(),
        attempted: first.attempted,
        failed: first.attempted - first.completed,
        metrics,
        problems,
        warnings,
        notes,
    }
}

/// Writes a traced run's spans, one JSON object per line, under the build
/// directory; returns the file's path.
fn write_spans(cfg: &Config, spans: &[Span]) -> std::io::Result<PathBuf> {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench-spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
    let mut out = String::with_capacity(spans.len() * 160);
    for s in spans {
        writeln!(
            out,
            "{{\"workload\":\"{}\",\"client\":{},\"op\":\"{}\",\"ok\":{},\"attempts\":{},\
             \"v_start\":{},\"v_end\":{},\"wall_start_ns\":{},\"wall_end_ns\":{}}}",
            cfg.workload.name(),
            s.client,
            s.kind,
            s.ok,
            s.attempts,
            s.v_start,
            s.v_end,
            s.wall_start_ns,
            s.wall_end_ns
        )
        .expect("write to String");
    }
    std::fs::write(&path, out)?;
    Ok(path)
}
