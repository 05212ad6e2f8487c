//! The tee hook counts every cost event and forwards it unchanged.

use perfbench::tee::{slot, TeeHook, BACKOFF_WAIT, SLOTS};
use simsched::{simulate_n, CostTable, SimConfig};
use std::sync::{Arc, Mutex};
use stm_core::cost::{self, CostHook, CostKind};

/// Records every call it receives, in order.
#[derive(Default)]
struct Recorder {
    calls: Mutex<Vec<String>>,
}

impl CostHook for Recorder {
    fn charge(&self, kind: CostKind) {
        self.calls.lock().unwrap().push(format!("{kind:?}"));
    }
    fn backoff_wait(&self, attempt: u32) {
        self.calls.lock().unwrap().push(format!("wait {attempt}"));
    }
}

#[test]
fn forwards_every_call_in_order_and_counts_it() {
    let inner = Arc::new(Recorder::default());
    let costs = CostTable::default();
    let tee = TeeHook::new(Some(inner.clone() as Arc<dyn CostHook>), costs);
    cost::with_hook(tee.clone(), || {
        cost::charge(CostKind::TxnBegin);
        cost::charge(CostKind::BarrierWrite);
        cost::charge(CostKind::AppWork(123));
        cost::backoff_wait(3);
        cost::charge(CostKind::BarrierWrite);
    });
    assert_eq!(
        *inner.calls.lock().unwrap(),
        [
            "TxnBegin",
            "BarrierWrite",
            "AppWork(123)",
            "wait 3",
            "BarrierWrite"
        ]
    );
    let t = tee.tally();
    assert_eq!(t.events[slot(CostKind::BarrierWrite)], 2);
    assert_eq!(
        t.cycles[slot(CostKind::BarrierWrite)],
        2 * costs.barrier_write
    );
    assert_eq!(t.cycles_of("app_work"), 123);
    assert_eq!(
        (t.events[BACKOFF_WAIT], t.cycles[BACKOFF_WAIT]),
        (1, costs.backoff_cycles(3))
    );
    assert_eq!(
        t.total_cycles(),
        costs.txn_begin + 2 * costs.barrier_write + 123 + costs.backoff_cycles(3)
    );
    assert_eq!(t.events.iter().sum::<u64>(), 5);
}

#[test]
fn every_slot_name_is_distinct() {
    for (i, a) in SLOTS.iter().enumerate() {
        assert!(SLOTS[i + 1..].iter().all(|b| a != b), "duplicate slot {a}");
    }
}

#[test]
fn install_wraps_the_current_hook_and_uninstall_restores_it() {
    let inner = Arc::new(Recorder::default());
    cost::with_hook(inner.clone(), || {
        let tee = TeeHook::install(CostTable::default());
        cost::charge(CostKind::Publish);
        tee.uninstall();
        cost::charge(CostKind::Publish);
        // The tee saw one event; the original hook saw both.
        assert_eq!(tee.tally().events_of("publish"), 1);
    });
    assert_eq!(inner.calls.lock().unwrap().len(), 2);
}

/// A vthread's STM-shaped work, optionally under a tee.
fn work(tee: bool) -> Option<perfbench::tee::Tally> {
    let t = tee.then(|| TeeHook::install(CostTable::default()));
    for i in 0..200u32 {
        cost::charge(CostKind::TxnOpenRead);
        cost::charge(CostKind::AppWork(i % 7));
        if i % 50 == 0 {
            cost::backoff_wait(i / 50);
        }
    }
    t.map(|t| {
        t.uninstall();
        t.tally()
    })
}

#[test]
fn a_tee_leaves_the_simulation_unchanged_and_attributes_every_busy_cycle() {
    let (plain, _) = simulate_n(SimConfig::with_processors(1), 1, |_| work(false));
    let (teed, tallies) = simulate_n(SimConfig::with_processors(1), 1, |_| work(true));
    assert_eq!(plain, teed);
    let attributed: u64 = tallies.iter().flatten().map(|t| t.total_cycles()).sum();
    assert_eq!(attributed, teed.proc_busy.iter().sum::<u64>());
}
