//! A tee cost hook: counts every STM cost event by kind, then forwards it.
//!
//! The simulated machine installs a `SimHook` in each virtual thread; that
//! hook turns [`CostKind`]s into virtual cycles. [`TeeHook::install`] takes
//! that hook out of the thread's slot, wraps it, and puts the tee in its
//! place, so the simulation sees exactly the calls it would have seen
//! without the tee. Virtual time is additive, so the cycles the tee counts
//! per kind are each layer's exact self time.

use simsched::CostTable;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stm_core::cost::{set_thread_hook, CostHook, CostKind};

/// Event slots, one per [`CostKind`] plus one for `backoff_wait` calls and
/// one for kinds this table does not know.
pub const SLOTS: [&str; 20] = [
    "plain_read",
    "plain_write",
    "barrier_read",
    "barrier_write",
    "barrier_private_fast",
    "barrier_aggregated",
    "txn_open_read",
    "txn_open_write",
    "txn_validate_entry",
    "txn_commit_entry",
    "txn_begin",
    "txn_commit",
    "txn_abort",
    "backoff",
    "lock_acquire",
    "lock_release",
    "app_work",
    "publish",
    "backoff_wait",
    "other",
];

/// Slot index of `backoff_wait` calls.
pub const BACKOFF_WAIT: usize = 18;
const OTHER: usize = 19;

/// The slot a cost kind is counted in.
pub fn slot(kind: CostKind) -> usize {
    match kind {
        CostKind::PlainRead => 0,
        CostKind::PlainWrite => 1,
        CostKind::BarrierRead => 2,
        CostKind::BarrierWrite => 3,
        CostKind::BarrierPrivateFast => 4,
        CostKind::BarrierAggregated => 5,
        CostKind::TxnOpenRead => 6,
        CostKind::TxnOpenWrite => 7,
        CostKind::TxnValidateEntry => 8,
        CostKind::TxnCommitEntry => 9,
        CostKind::TxnBegin => 10,
        CostKind::TxnCommit => 11,
        CostKind::TxnAbort => 12,
        CostKind::Backoff => 13,
        CostKind::LockAcquire => 14,
        CostKind::LockRelease => 15,
        CostKind::AppWork(_) => 16,
        CostKind::Publish => 17,
        _ => OTHER,
    }
}

/// Event counts and cycles per slot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Events per slot.
    pub events: [u64; SLOTS.len()],
    /// Cycles per slot, priced with the tee's cost table.
    pub cycles: [u64; SLOTS.len()],
}

impl Tally {
    /// Adds `other` slot by slot.
    pub fn absorb(&mut self, other: &Tally) {
        for i in 0..SLOTS.len() {
            self.events[i] += other.events[i];
            self.cycles[i] += other.cycles[i];
        }
    }

    /// Cycles summed over every slot.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }

    /// Events in the slot named `name`.
    pub fn events_of(&self, name: &str) -> u64 {
        self.events[index_of(name)]
    }

    /// Cycles in the slot named `name`.
    pub fn cycles_of(&self, name: &str) -> u64 {
        self.cycles[index_of(name)]
    }
}

fn index_of(name: &str) -> usize {
    SLOTS
        .iter()
        .position(|s| *s == name)
        .unwrap_or_else(|| panic!("no tee slot `{name}`"))
}

/// Counts cost events by slot and forwards each to the hook it replaced.
pub struct TeeHook {
    inner: Option<Arc<dyn CostHook>>,
    costs: CostTable,
    events: [AtomicU64; SLOTS.len()],
    cycles: [AtomicU64; SLOTS.len()],
}

impl TeeHook {
    /// A tee pricing events with `costs` and forwarding to `inner`.
    pub fn new(inner: Option<Arc<dyn CostHook>>, costs: CostTable) -> Arc<TeeHook> {
        Arc::new(TeeHook {
            inner,
            costs,
            events: Default::default(),
            cycles: Default::default(),
        })
    }

    /// Replaces the current thread's hook with a tee that forwards to it;
    /// returns the tee. Pair with [`TeeHook::uninstall`].
    pub fn install(costs: CostTable) -> Arc<TeeHook> {
        let tee = TeeHook::new(set_thread_hook(None), costs);
        set_thread_hook(Some(Arc::clone(&tee) as Arc<dyn CostHook>));
        tee
    }

    /// Puts the forwarded hook back in the current thread's slot.
    pub fn uninstall(&self) {
        set_thread_hook(self.inner.clone());
    }

    fn count(&self, slot: usize, cycles: u64) {
        // Statistics only: each tee lives in one thread and is read after
        // that thread is joined.
        self.events[slot].fetch_add(1, Ordering::Relaxed);
        self.cycles[slot].fetch_add(cycles, Ordering::Relaxed);
    }

    /// The counts so far.
    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for i in 0..SLOTS.len() {
            t.events[i] = self.events[i].load(Ordering::Relaxed);
            t.cycles[i] = self.cycles[i].load(Ordering::Relaxed);
        }
        t
    }
}

impl CostHook for TeeHook {
    fn charge(&self, kind: CostKind) {
        self.count(slot(kind), self.costs.cycles(kind));
        if let Some(inner) = &self.inner {
            inner.charge(kind);
        }
    }

    fn backoff_wait(&self, attempt: u32) {
        self.count(BACKOFF_WAIT, self.costs.backoff_cycles(attempt));
        if let Some(inner) = &self.inner {
            inner.backoff_wait(attempt);
        }
    }
}
