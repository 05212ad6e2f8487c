//! `barrier`: a Tsp-shaped non-transactional op on a strongly atomic heap.
//!
//! The op's shape and constants follow `workloads::tsp`. One op is one
//! bound-refresh period of the Tsp search: [`NODES`] nodes, each charging
//! `AppWork(10)` and reading one entry of a read-only distance table, with
//! one read of the shared bound, which transactions write. The reads go
//! through `workloads::scale::W` under `SyncMode::StrongDea`. The op fills
//! a freshly allocated tour object, which is still private and so takes the
//! dynamic-escape-analysis fast path, and folds the candidate into the
//! client's public statistics object with one aggregated barrier. Every
//! [`PUBLISH_EVERY`]th
//! op, and the last, runs a short transaction that lowers the bound to the
//! client's best candidate and publishes that candidate's tour object.

use crate::sim::{OpOutcome, OpRec, SimWorld, CLIENTS};
use crate::{pinned_config, Rng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stm_core::barrier::aggregate;
use stm_core::heap::{FieldDef, Heap, ObjRef, Shape};
use stm_core::locks::SyncTable;
use stm_core::stats::TxnTelemetry;
use stm_core::txn::atomic_traced;
use workloads::scale::{SyncMode, W};

/// Op type names, indexed by [`OpOutcome::kind`].
pub const KINDS: [&str; 2] = ["price", "price_and_publish"];

/// Tsp nodes per op: Tsp re-reads the shared bound every 8 nodes.
pub const NODES: usize = 8;
/// Ops between two transactions on the bound, per client. The Figure-18
/// Tsp instance (10 cities, `StrongDea`) on 2 threads and 2 simulated
/// processors commits 142 transactions in 36704 nodes: one per 258 nodes,
/// or per 32 ops of [`NODES`] nodes.
pub const PUBLISH_EVERY: usize = 32;
/// Distance-table entries: Tsp's 10 × 10 matrix.
const TABLE: usize = 100;
/// Application work per node, as Tsp charges it.
const NODE_WORK: u32 = 10;
const MODE: SyncMode = SyncMode::StrongDea;

// Bound: 0 = best length, 1 = best tour. Stats: 0 = count, 1 = sum,
// 2 = xor, 3 = max.
const BOUND_LEN: usize = 0;
const BOUND_TOUR: usize = 1;

/// Per-client best candidate so far.
struct Best {
    len: AtomicU64,
    tour: AtomicU64,
}

/// The generated inputs: the distance table and, per client, the table
/// entry each node of each op reads.
pub struct BarrierOps {
    table: Vec<u64>,
    streams: Vec<Vec<[u8; NODES]>>,
}

impl BarrierOps {
    /// The table and `ops_per_client` ops per client for `seed`.
    pub fn generate(seed: u64, ops_per_client: usize) -> BarrierOps {
        let mut rng = Rng::new(seed, 0x75B);
        let table = (0..TABLE).map(|_| 1 + rng.below(1 << 20)).collect();
        let streams = (0..CLIENTS)
            .map(|client| {
                let mut rng = Rng::new(seed, 0x75C + client as u64);
                (0..ops_per_client)
                    .map(|_| std::array::from_fn(|_| rng.below(TABLE as u64) as u8))
                    .collect()
            })
            .collect();
        BarrierOps { table, streams }
    }
}

/// The world: heap, shared objects and the generated inputs.
pub struct Barrier {
    heap: Arc<Heap>,
    sync: SyncTable,
    bound: ObjRef,
    table: ObjRef,
    /// Per client: a public object only that client updates, so the
    /// aggregated barrier pays its full price without contention.
    stats: Vec<ObjRef>,
    ops: Arc<BarrierOps>,
    best: Vec<Best>,
}

impl Barrier {
    /// Generates `seed`'s inputs and builds the world for them.
    pub fn build(seed: u64, ops_per_client: usize) -> Barrier {
        Barrier::new(Arc::new(BarrierOps::generate(seed, ops_per_client)))
    }

    /// Builds the heap and its shared objects for `ops`.
    pub fn new(ops: Arc<BarrierOps>) -> Barrier {
        let heap = Heap::new(pinned_config(true));
        let bound_shape = heap.define_shape(Shape::new(
            "Bound",
            vec![FieldDef::int("len"), FieldDef::reference("tour")],
        ));
        let stats_shape = heap.define_shape(Shape::new(
            "Stats",
            vec![
                FieldDef::int("count"),
                FieldDef::int("sum"),
                FieldDef::int("xor"),
                FieldDef::int("max"),
            ],
        ));
        let bound = heap.alloc_public(bound_shape);
        heap.write_raw(bound, BOUND_LEN, u64::MAX);
        let table = heap.alloc_int_array_public(TABLE);
        for (i, &d) in ops.table.iter().enumerate() {
            heap.write_raw(table, i, d);
        }
        let stats = (0..CLIENTS)
            .map(|_| heap.alloc_public(stats_shape))
            .collect();
        let best = (0..CLIENTS)
            .map(|_| Best {
                len: AtomicU64::new(u64::MAX),
                tour: AtomicU64::new(0),
            })
            .collect();
        let sync = SyncTable::for_heap(Arc::clone(&heap));
        Barrier {
            heap,
            sync,
            bound,
            table,
            stats,
            ops,
            best,
        }
    }

    fn candidate(&self, picks: &[u8; NODES]) -> u64 {
        picks.iter().map(|&p| self.ops.table[p as usize]).sum()
    }
}

impl SimWorld for Barrier {
    fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    fn ops(&self, client: usize) -> usize {
        self.ops.streams[client].len()
    }

    fn op(&self, client: usize, i: usize) -> OpOutcome {
        let w = W {
            heap: &self.heap,
            mode: MODE,
            sync: &self.sync,
        };
        let picks = &self.ops.streams[client][i];
        let seen = w.read_shared(self.bound, BOUND_LEN);
        let len: u64 = picks
            .iter()
            .map(|&p| w.read_nait(self.table, p as usize))
            .sum();

        // Slot 0 holds the length, then one city per node.
        let tour = self.heap.alloc_int_array(1 + NODES);
        w.write_nait(tour, 0, len);
        for (j, &p) in picks.iter().enumerate() {
            w.write_nait(tour, 1 + j, p as u64);
        }

        aggregate(&self.heap, self.stats[client], |s| {
            s.set(0, s.get(0) + 1);
            s.set(1, s.get(1).wrapping_add(len));
            s.set(2, s.get(2) ^ len);
            s.set(3, s.get(3).max(len));
        });

        let best = &self.best[client];
        if len < best.len.load(Ordering::Relaxed).min(seen) {
            best.len.store(len, Ordering::Relaxed);
            best.tour.store(tour.to_word(), Ordering::Relaxed);
        }
        let publish =
            (i + 1).is_multiple_of(PUBLISH_EVERY) || i + 1 == self.ops.streams[client].len();
        let mut telem = TxnTelemetry::default();
        if publish {
            let mine = best.len.load(Ordering::Relaxed);
            let tour = ObjRef::from_word(best.tour.load(Ordering::Relaxed));
            let ((), t) = atomic_traced(&self.heap, |tx| {
                if mine < tx.read(self.bound, BOUND_LEN)? {
                    tx.write(self.bound, BOUND_LEN, mine)?;
                    tx.write_ref(self.bound, BOUND_TOUR, tour)?;
                }
                Ok(())
            });
            telem = t;
        }
        OpOutcome {
            kind: publish as u8,
            ok: true,
            telem,
            think: NODES as u32 * NODE_WORK,
        }
    }

    fn check(&self, recs: &[OpRec]) -> Vec<String> {
        let mut failures = Vec::new();
        let lens: Vec<Vec<u64>> = self
            .ops
            .streams
            .iter()
            .map(|ops| ops.iter().map(|p| self.candidate(p)).collect())
            .collect();
        let min = lens.iter().flatten().copied().min().unwrap_or(u64::MAX);
        if self.heap.read_raw(self.bound, BOUND_LEN) != min {
            failures.push(format!(
                "barrier: final bound {} is not the minimum candidate {min}",
                self.heap.read_raw(self.bound, BOUND_LEN)
            ));
        }
        match ObjRef::from_word(self.heap.read_raw(self.bound, BOUND_TOUR)) {
            Some(t) if self.heap.read_raw(t, 0) == min => {}
            _ => failures.push("barrier: published tour does not carry the bound".to_string()),
        }
        for (client, lens) in lens.iter().enumerate() {
            let want = [
                lens.len() as u64,
                lens.iter().fold(0u64, |a, &l| a.wrapping_add(l)),
                lens.iter().fold(0u64, |a, &l| a ^ l),
                lens.iter().copied().max().unwrap_or(0),
            ];
            let got: Vec<u64> = (0..4)
                .map(|f| self.heap.read_raw(self.stats[client], f))
                .collect();
            if got != want {
                failures.push(format!(
                    "barrier: client {client}'s aggregated statistics {got:?} differ from {want:?}"
                ));
            }
        }
        let generated: usize = lens.iter().map(Vec::len).sum();
        if recs.len() != generated {
            failures.push(format!(
                "barrier: {} ops recorded for {generated} generated",
                recs.len()
            ));
        }
        failures
    }
}
