//! Closed-loop clients on the simulated multiprocessor.
//!
//! Each workload is driven by [`CLIENTS`] client virtual threads on as many
//! simulated processors. A client runs its pre-generated ops one after the
//! other: the next op starts only when the previous one (and its think
//! time) is done. Per-op virtual latency is the `simsched::now()` delta
//! around the op, think time excluded.

use crate::tee::{Tally, TeeHook};
use simsched::{Machine, SimConfig, SimReport, VthreadHandle};
use std::sync::Arc;
use std::time::{Duration, Instant};
use stm_core::cost::{charge, CostKind};
use stm_core::heap::Heap;
use stm_core::stats::{StatsSnapshot, TxnTelemetry};

/// Client virtual threads, and simulated processors, per workload.
pub const CLIENTS: usize = 2;

/// What one op reports back to the client loop.
#[derive(Copy, Clone, Debug, Default)]
pub struct OpOutcome {
    /// Workload-defined op type (an index into the workload's names).
    pub kind: u8,
    /// False for a typed policy stop or a failed per-op check.
    pub ok: bool,
    /// The op's atomic-block telemetry, summed over its blocks.
    pub telem: TxnTelemetry,
    /// Think time charged as `AppWork` after the op's latency is taken.
    pub think: u32,
}

/// One op as the client saw it: the span of a traced run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct OpRec {
    /// Client that ran the op.
    pub client: u8,
    /// Workload-defined op type.
    pub kind: u8,
    /// Whether the op completed.
    pub ok: bool,
    /// Atomic-block telemetry.
    pub telem: TxnTelemetry,
    /// Virtual clock at op start.
    pub v_start: u64,
    /// Virtual clock at op end (before think time).
    pub v_end: u64,
    /// Wall nanoseconds since the run started (traced runs only, else 0).
    pub wall_start_ns: u64,
    /// Wall nanoseconds at op end (traced runs only, else 0).
    pub wall_end_ns: u64,
}

impl OpRec {
    /// Virtual latency in cycles.
    pub fn latency(&self) -> u64 {
        self.v_end - self.v_start
    }
}

/// A workload the client loop can drive.
pub trait SimWorld: Send + Sync + 'static {
    /// The heap every op runs against.
    fn heap(&self) -> &Arc<Heap>;
    /// Ops in `client`'s stream.
    fn ops(&self, client: usize) -> usize;
    /// Runs op `i` of `client`'s stream inside that client's vthread.
    fn op(&self, client: usize, i: usize) -> OpOutcome;
    /// End-of-run oracle over the final heap and the op records; returns
    /// one line per violated invariant.
    fn check(&self, recs: &[OpRec]) -> Vec<String>;
}

/// Everything one simulation produced.
pub struct SimRun {
    /// The machine's report.
    pub report: SimReport,
    /// Every op, client 0's stream first, each stream in order.
    pub recs: Vec<OpRec>,
    /// Heap counters at the end of the run. Worlds are built fresh for
    /// every run with raw writes, which count nothing.
    pub stats: StatsSnapshot,
    /// Cost events per kind, summed over clients (traced runs only).
    pub tally: Option<Tally>,
    /// Oracle violations.
    pub failures: Vec<String>,
    /// Wall time of the simulation, spawn to last join.
    pub wall: Duration,
}

/// Runs `world`'s op streams on [`CLIENTS`] clients; with `trace`, each
/// client installs a [`TeeHook`] and records wall time per op.
pub fn simulate<W: SimWorld>(world: &Arc<W>, trace: bool) -> SimRun {
    let machine = Machine::new(SimConfig::with_processors(CLIENTS));
    let costs = machine.config().costs;
    let t0 = Instant::now();
    let handles: Vec<VthreadHandle<(Vec<OpRec>, Option<Tally>)>> = (0..CLIENTS)
        .map(|client| {
            let world = Arc::clone(world);
            machine.spawn(move || {
                let tee = trace.then(|| TeeHook::install(costs));
                let wall_ns = || {
                    if trace {
                        t0.elapsed().as_nanos() as u64
                    } else {
                        0
                    }
                };
                let n = world.ops(client);
                let mut recs = Vec::with_capacity(n);
                for i in 0..n {
                    let (v_start, wall_start_ns) = (simsched::now(), wall_ns());
                    let out = world.op(client, i);
                    let (v_end, wall_end_ns) = (simsched::now(), wall_ns());
                    recs.push(OpRec {
                        client: client as u8,
                        kind: out.kind,
                        ok: out.ok,
                        telem: out.telem,
                        v_start,
                        v_end,
                        wall_start_ns,
                        wall_end_ns,
                    });
                    if out.think > 0 {
                        charge(CostKind::AppWork(out.think));
                    }
                }
                let tally = tee.map(|t| {
                    t.uninstall();
                    t.tally()
                });
                (recs, tally)
            })
        })
        .collect();
    machine.start();
    let mut recs = Vec::new();
    let mut tally: Option<Tally> = None;
    for h in handles {
        let (r, t) = h.join();
        recs.extend(r);
        if let Some(t) = t {
            tally.get_or_insert_with(Tally::default).absorb(&t);
        }
    }
    let wall = t0.elapsed();
    let stats = world.heap().stats().snapshot();
    let mut failures = world.check(&recs);
    let audit = world.heap().audit();
    if !audit.is_clean() {
        failures.push(format!(
            "heap audit: {} findings: {:?}",
            audit.findings.len(),
            audit.findings
        ));
    }
    SimRun {
        report: machine.report(),
        recs,
        stats,
        tally,
        failures,
        wall,
    }
}
