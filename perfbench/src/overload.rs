//! `overload`: the two-worker cell of the repository's overload sweep.
//!
//! Every transaction reads and writes both objects of a two-object hot set,
//! in an order the op stream picks, so capacity is serial and acquisitions
//! cross. Blocks run under a tight progress policy (deadline 128 wait
//! rounds, 16 attempts, karma boost and serialization after the first
//! failed attempt) with admission control armed, and run back to back with
//! no think time, as in the sweep.
//!
//! An op is a request of [`BATCH`] such transactions. Alone, one
//! transaction's latency takes a handful of values whose cumulative share
//! crosses one half exactly between two of them, so a per-transaction
//! median would jump between those values from seed to seed; the sum over
//! a request has a median that moves smoothly. A typed policy stop fails
//! the request.

use crate::sim::{OpOutcome, OpRec, SimWorld, CLIENTS};
use crate::{pinned_config, Rng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stm_core::config::{AdmissionConfig, StmConfig, TxnPolicy};
use stm_core::heap::{FieldDef, Heap, ObjRef, Shape};
use stm_core::stats::TxnTelemetry;
use stm_core::txn::try_atomic_with_traced;

/// Op type names, indexed by [`OpOutcome::kind`].
pub const KINDS: [&str; 1] = ["request"];

/// Transactions per request.
pub const BATCH: usize = 4;

/// The per-block progress policy.
pub const POLICY: TxnPolicy = TxnPolicy {
    deadline: Some(128),
    max_retries: Some(16),
    boost_after: 1,
    serialize_after: 1,
    isolation: None,
};

/// Committed transactions of one client, and the sum of their tags.
#[derive(Default)]
struct Committed {
    txns: AtomicU64,
    tags: AtomicU64,
}

/// The generated op streams: per client, per transaction, which hot
/// object is taken first.
pub struct OverloadOps {
    streams: Vec<Vec<u8>>,
}

impl OverloadOps {
    /// `ops_per_client` requests per client for `seed`.
    pub fn generate(seed: u64, ops_per_client: usize) -> OverloadOps {
        let streams = (0..CLIENTS)
            .map(|client| {
                let mut rng = Rng::new(seed, 0x0E7 + client as u64);
                (0..ops_per_client * BATCH)
                    .map(|_| rng.below(2) as u8)
                    .collect()
            })
            .collect();
        OverloadOps { streams }
    }
}

/// The world: heap, hot set and the generated op streams.
pub struct Overload {
    heap: Arc<Heap>,
    hot: [ObjRef; 2],
    ops: Arc<OverloadOps>,
    committed: Vec<Committed>,
}

/// The tag transaction `t` of a client's stream adds to its second
/// object's `side` field.
fn tag(t: usize) -> u64 {
    t as u64 + 1
}

impl Overload {
    /// Generates `seed`'s op streams and builds the world for them.
    pub fn build(seed: u64, ops_per_client: usize) -> Overload {
        Overload::new(Arc::new(OverloadOps::generate(seed, ops_per_client)))
    }

    /// Builds the heap and its hot set for `ops`.
    pub fn new(ops: Arc<OverloadOps>) -> Overload {
        let heap = Heap::new(StmConfig {
            admission: Some(AdmissionConfig::default()),
            ..pinned_config(false)
        });
        let shape = heap.define_shape(Shape::new(
            "Hot",
            vec![FieldDef::int("n"), FieldDef::int("side")],
        ));
        let hot = [heap.alloc_public(shape), heap.alloc_public(shape)];
        let committed = (0..CLIENTS).map(|_| Committed::default()).collect();
        Overload {
            heap,
            hot,
            ops,
            committed,
        }
    }
}

impl SimWorld for Overload {
    fn heap(&self) -> &Arc<Heap> {
        &self.heap
    }

    fn ops(&self, client: usize) -> usize {
        self.ops.streams[client].len() / BATCH
    }

    fn op(&self, client: usize, i: usize) -> OpOutcome {
        let mut telem = TxnTelemetry::default();
        let done = &self.committed[client];
        for t in i * BATCH..(i + 1) * BATCH {
            let first = self.ops.streams[client][t] as usize;
            let (a, b) = (self.hot[first], self.hot[1 - first]);
            let (r, tt) = try_atomic_with_traced(&self.heap, POLICY, |tx| {
                let v = tx.read(a, 0)?;
                tx.write(a, 0, v + 1)?;
                let w = tx.read(b, 1)?;
                tx.write(b, 1, w.wrapping_add(tag(t)))
            });
            telem.absorb(tt);
            if !matches!(r, Ok(Some(()))) {
                return OpOutcome {
                    kind: 0,
                    ok: false,
                    telem,
                    think: 0,
                };
            }
            // Statistics of this client's own thread, read after the join.
            done.txns.fetch_add(1, Ordering::Relaxed);
            done.tags.fetch_add(tag(t), Ordering::Relaxed);
        }
        OpOutcome {
            kind: 0,
            ok: true,
            telem,
            think: 0,
        }
    }

    fn check(&self, recs: &[OpRec]) -> Vec<String> {
        let mut failures = Vec::new();
        let txns: u64 = self
            .committed
            .iter()
            .map(|c| c.txns.load(Ordering::Relaxed))
            .sum();
        let n: u64 = self.hot.iter().map(|&o| self.heap.read_raw(o, 0)).sum();
        if n != txns {
            failures.push(format!(
                "overload: hot counters sum to {n}, but {txns} transactions committed"
            ));
        }
        let tags = self
            .committed
            .iter()
            .fold(0u64, |s, c| s.wrapping_add(c.tags.load(Ordering::Relaxed)));
        let side = self
            .hot
            .iter()
            .fold(0u64, |s, &o| s.wrapping_add(self.heap.read_raw(o, 1)));
        if side != tags {
            failures.push(format!(
                "overload: side tags sum to {side}, committed transactions give {tags}"
            ));
        }
        let completed = recs.iter().filter(|r| r.ok).count() as u64;
        if txns < completed * BATCH as u64 {
            failures.push(format!(
                "overload: {completed} requests completed with only {txns} commits"
            ));
        }
        failures
    }
}
