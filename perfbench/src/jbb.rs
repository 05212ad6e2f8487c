//! `jbb`: a SpecJBB/TPC-C mix, one warehouse per client.
//!
//! New-order 45%, payment 43%, order-status 12%, each one transaction on a
//! strongly atomic heap with dynamic escape analysis. One new-order in 64
//! takes its stock from the other client's warehouse. Think time is charged
//! as `AppWork` (400 after a new-order, 200 otherwise), as in
//! `workloads::jbb`. Districts are written only by their own client, so
//! every op's return value, and the final heap, follow from the op stream.

use crate::sim::{OpOutcome, OpRec, SimWorld, CLIENTS};
use crate::{pinned_config, Rng};
use std::sync::Arc;
use stm_core::heap::{FieldDef, Heap, ObjRef, Shape};
use stm_core::locks::SyncTable;
use stm_core::txn::atomic_traced;
use workloads::scale::{SyncMode, W};

/// Op type names, indexed by [`OpOutcome::kind`].
pub const KINDS: [&str; 3] = ["new_order", "payment", "order_status"];

const DISTRICTS: usize = 10;
const ITEMS: usize = 128;
const STOCKS: usize = 64;
const STOCK_QTY: u64 = 1000;
const LINES: usize = 4;
const MODE: SyncMode = SyncMode::StrongDea;

#[derive(Copy, Clone, Debug)]
enum Op {
    NewOrder {
        district: usize,
        remote: bool,
        lines: [(usize, usize); LINES],
    },
    Payment {
        district: usize,
        amount: u64,
    },
    OrderStatus {
        district: usize,
    },
}

struct Warehouse {
    wh: ObjRef,
    districts: ObjRef,
    stocks: ObjRef,
}

/// The generated op streams and the results they imply.
pub struct JbbOps {
    streams: Vec<Vec<Op>>,
    /// Expected op results, per client, in stream order.
    expected: Vec<Vec<u64>>,
}

/// The world: heap, catalogue, warehouses and the generated op streams.
pub struct Jbb {
    heap: Arc<Heap>,
    sync: SyncTable,
    items: ObjRef,
    warehouses: Vec<Warehouse>,
    ops: Arc<JbbOps>,
}

fn price(item: usize) -> u64 {
    (item as u64 * 13) % 100 + 1
}

impl JbbOps {
    /// `ops_per_client` ops per client for `seed`, with their results.
    pub fn generate(seed: u64, ops_per_client: usize) -> JbbOps {
        let mut streams = Vec::with_capacity(CLIENTS);
        let mut expected = Vec::with_capacity(CLIENTS);
        for client in 0..CLIENTS {
            let mut rng = Rng::new(seed, 0x1BB0 + client as u64);
            // Per-district (next_order, ytd) as this client's ops leave them.
            let mut dist = [(0u64, 0u64); DISTRICTS];
            let mut ops = Vec::with_capacity(ops_per_client);
            let mut results = Vec::with_capacity(ops_per_client);
            for _ in 0..ops_per_client {
                let roll = rng.below(100);
                let district = rng.below(DISTRICTS as u64) as usize;
                let op = if roll < 45 {
                    let remote = rng.below(64) == 0;
                    let lines = std::array::from_fn(|_| {
                        (
                            rng.below(ITEMS as u64) as usize,
                            rng.below(STOCKS as u64) as usize,
                        )
                    });
                    dist[district].0 += 1;
                    results.push(lines.iter().map(|&(item, _)| price(item)).sum());
                    Op::NewOrder {
                        district,
                        remote,
                        lines,
                    }
                } else if roll < 88 {
                    let amount = 1 + rng.below(7);
                    dist[district].1 += amount;
                    results.push(0);
                    Op::Payment { district, amount }
                } else {
                    results.push(dist[district].0 + dist[district].1);
                    Op::OrderStatus { district }
                };
                ops.push(op);
            }
            streams.push(ops);
            expected.push(results);
        }
        JbbOps { streams, expected }
    }
}

impl Jbb {
    /// Generates `seed`'s op streams and builds the world for them.
    pub fn build(seed: u64, ops_per_client: usize) -> Jbb {
        Jbb::new(Arc::new(JbbOps::generate(seed, ops_per_client)))
    }

    /// Builds the heap, catalogue and warehouses for `ops`.
    pub fn new(ops: Arc<JbbOps>) -> Jbb {
        let heap = Heap::new(pinned_config(true));
        let item_shape = heap.define_shape(Shape::new("Item", vec![FieldDef::int("price")]));
        let district_shape = heap.define_shape(Shape::new(
            "District",
            vec![FieldDef::int("next_order"), FieldDef::int("ytd")],
        ));
        let stock_shape = heap.define_shape(Shape::new(
            "Stock",
            vec![FieldDef::int("qty"), FieldDef::int("order_count")],
        ));
        let wh_shape = heap.define_shape(Shape::new("Warehouse", vec![FieldDef::int("ytd")]));

        let items = heap.alloc_ref_array_public(ITEMS);
        for i in 0..ITEMS {
            let it = heap.alloc_public(item_shape);
            heap.write_raw(it, 0, price(i));
            heap.write_raw(items, i, it.to_word());
        }
        let warehouses = (0..CLIENTS)
            .map(|_| {
                let wh = heap.alloc_public(wh_shape);
                let districts = heap.alloc_ref_array_public(DISTRICTS);
                for d in 0..DISTRICTS {
                    heap.write_raw(districts, d, heap.alloc_public(district_shape).to_word());
                }
                let stocks = heap.alloc_ref_array_public(STOCKS);
                for s in 0..STOCKS {
                    let st = heap.alloc_public(stock_shape);
                    heap.write_raw(st, 0, STOCK_QTY);
                    heap.write_raw(stocks, s, st.to_word());
                }
                Warehouse {
                    wh,
                    districts,
                    stocks,
                }
            })
            .collect();

        let sync = SyncTable::for_heap(Arc::clone(&heap));
        Jbb {
            heap,
            sync,
            items,
            warehouses,
            ops,
        }
    }
}

impl SimWorld for Jbb {
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
        let my = &self.warehouses[client];
        let (kind, result, telem, think) = match self.ops.streams[client][i] {
            Op::NewOrder {
                district,
                remote,
                lines,
            } => {
                let stock_wh = &self.warehouses[if remote {
                    (client + 1) % CLIENTS
                } else {
                    client
                }];
                let (total, telem) = atomic_traced(&self.heap, |tx| {
                    let d = tx.read_ref(my.districts, district)?.expect("district");
                    let o = tx.read(d, 0)?;
                    tx.write(d, 0, o + 1)?;
                    let mut total = 0u64;
                    for &(item, stock) in &lines {
                        let it = tx.read_ref(self.items, item)?.expect("item");
                        total += tx.read(it, 0)?;
                        let st = tx.read_ref(stock_wh.stocks, stock)?.expect("stock");
                        let q = tx.read(st, 0)?;
                        tx.write(st, 0, q.wrapping_sub(1))?;
                        let c = tx.read(st, 1)?;
                        tx.write(st, 1, c + 1)?;
                    }
                    Ok(total)
                });
                // Non-transactional receipt on fresh, provably local scratch.
                let receipt = self.heap.alloc_int_array(2);
                w.write_local(receipt, 0, total);
                w.write_local(receipt, 1, district as u64);
                (0, total, telem, 400)
            }
            Op::Payment { district, amount } => {
                let ((), telem) = atomic_traced(&self.heap, |tx| {
                    let d = tx.read_ref(my.districts, district)?.expect("district");
                    let ytd = tx.read(d, 1)?;
                    tx.write(d, 1, ytd + amount)?;
                    let wytd = tx.read(my.wh, 0)?;
                    tx.write(my.wh, 0, wytd + amount)
                });
                (1, 0, telem, 200)
            }
            Op::OrderStatus { district } => {
                let (s, telem) = atomic_traced(&self.heap, |tx| {
                    let d = tx.read_ref(my.districts, district)?.expect("district");
                    Ok(tx.read(d, 0)? + tx.read(d, 1)?)
                });
                (2, s, telem, 200)
            }
        };
        OpOutcome {
            kind,
            ok: result == self.ops.expected[client][i],
            telem,
            think,
        }
    }

    fn check(&self, recs: &[OpRec]) -> Vec<String> {
        let mut failures = Vec::new();
        let bad = recs.iter().filter(|r| !r.ok).count();
        if bad > 0 {
            failures.push(format!(
                "jbb: {bad} ops returned a result the op stream does not predict"
            ));
        }
        // Final state from the op streams alone.
        let mut stock = vec![[0u64; STOCKS]; CLIENTS];
        for (client, ops) in self.ops.streams.iter().enumerate() {
            let mut dist = [(0u64, 0u64); DISTRICTS];
            let mut wh_ytd = 0u64;
            for op in ops {
                match *op {
                    Op::NewOrder {
                        district,
                        remote,
                        lines,
                    } => {
                        dist[district].0 += 1;
                        let target = if remote {
                            (client + 1) % CLIENTS
                        } else {
                            client
                        };
                        for (_, s) in lines {
                            stock[target][s] += 1;
                        }
                    }
                    Op::Payment { district, amount } => {
                        dist[district].1 += amount;
                        wh_ytd += amount;
                    }
                    Op::OrderStatus { .. } => {}
                }
            }
            let wh = &self.warehouses[client];
            if self.heap.read_raw(wh.wh, 0) != wh_ytd {
                failures.push(format!(
                    "jbb: warehouse {client} ytd differs from its payments"
                ));
            }
            for (d, &(orders, ytd)) in dist.iter().enumerate() {
                let dd = ObjRef::from_word(self.heap.read_raw(wh.districts, d)).expect("district");
                if (self.heap.read_raw(dd, 0), self.heap.read_raw(dd, 1)) != (orders, ytd) {
                    failures.push(format!("jbb: warehouse {client} district {d} differs"));
                }
            }
        }
        for (client, counts) in stock.iter().enumerate() {
            let wh = &self.warehouses[client];
            for (s, &n) in counts.iter().enumerate() {
                let st = ObjRef::from_word(self.heap.read_raw(wh.stocks, s)).expect("stock");
                let got = (self.heap.read_raw(st, 0), self.heap.read_raw(st, 1));
                if got != (STOCK_QTY.wrapping_sub(n), n) {
                    failures.push(format!("jbb: warehouse {client} stock {s} differs"));
                }
            }
        }
        failures
    }
}
