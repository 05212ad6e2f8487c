//! The shared transaction pipeline.
//!
//! Eager and lazy versioning differ only in *when data moves* (in-place
//! writes + undo log vs a private write buffer + commit-time write-back).
//! Everything else — beginning an attempt, the open-for-read protocol, the
//! acquire-for-write CAS loop, read-set validation, conflict funnelling,
//! record release, and the commit/abort epilogue (statistics, handlers,
//! quiescence, liveness bookkeeping) — is one protocol, and [`TxnCore`] is
//! its single owner. The engines in [`crate::eager`] and [`crate::lazy`]
//! hold a `TxnCore` and add only their versioning-specific state.
//!
//! The core reaches every transaction record through [`Heap::guard`] /
//! [`Heap::guard_load`], so it is agnostic to the conflict-detection
//! granularity ([`crate::config::Granularity`]): records may be embedded
//! per object or live in the striped ownership-record table. The ownership
//! map is keyed by [`Heap::slot_of`], which means a stripe shared by
//! several written objects is acquired once, released once, and mirrored
//! into the watchdog descriptor once.
//!
//! ## Allocation-free steady state
//!
//! Every growable container an attempt uses — read set, ownership map,
//! span log (the eager undo log / lazy write buffer), handler vecs, DEA
//! compensation sets, commit ordering scratch — lives in a pooled
//! [`Scratch`]: popped from a thread-local stack at begin, cleared and
//! pushed back at finish with its capacity intact. Together with the
//! heap's parked quiescence slots and pooled watchdog descriptors, a
//! steady-state transaction touches no global mutex and performs no heap
//! allocation.

use crate::config::{ClockMode, IsolationLevel};
use crate::contention::{resolve_with, ConflictSite};
use crate::cost::{backoff_wait, charge, CostKind};
use crate::fault::{self, FaultSite};
use crate::heap::{Heap, ObjRef, Word};
use crate::quiesce;
use crate::stats::TxnTelemetry;
use crate::syncpoint::SyncPoint;
use crate::txn::{token_is_active, Abort, TxResult, TxnKind};
use crate::txnrec::{OwnerToken, RecWord};
use crate::watchdog::OwnerDesc;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::mem::ManuallyDrop;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Maximum number of fields a single versioning span covers (the `Pair`
/// granularity of [`crate::config::VersionGranularity`]).
pub(crate) const MAX_SPAN: usize = 2;

/// One field-span snapshot: `(object, base field, span length, values)`.
/// The eager undo log, the lazy write buffer, and the watchdog's mirrored
/// recovery log are all vectors of these — one `Copy` type, so the span
/// log lives in the pooled scratch and mirroring is a memcpy.
#[derive(Copy, Clone, Debug)]
pub(crate) struct SpanEntry {
    pub(crate) obj: ObjRef,
    pub(crate) base: u32,
    pub(crate) len: u8,
    pub(crate) vals: [Word; MAX_SPAN],
}

impl SpanEntry {
    /// Stores the snapshot back into the object's fields (undo replay,
    /// orphan rollback, lazy write-back).
    #[inline]
    pub(crate) fn store_vals(&self, heap: &Heap, order: Ordering) {
        let obj = heap.obj(self.obj);
        for i in 0..self.len as usize {
            obj.field(self.base as usize + i).store(self.vals[i], order);
        }
    }
}

/// How an open-for-read was satisfied.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum ReadKind {
    /// DEA private fast path: no logging (compensated on publication).
    Private,
    /// The guarding record is already exclusively ours; the read is
    /// lock-protected and needs no logging.
    Owned,
    /// Optimistic shared read, logged in the read set.
    Shared,
}

/// How an acquire-for-write was satisfied.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Acquired {
    /// DEA private fast path: the object is ours alone, no lock taken.
    Private,
    /// The guarding record is exclusively ours (newly acquired or already
    /// held — a stripe may guard several written objects).
    Held,
}

/// Bounded spins when acquiring the guard of a freshly *published* object.
/// Per-object this succeeds on the first try (the fresh record is shared
/// and nobody else has the reference yet); in striped mode the slot may be
/// transiently held by an unrelated transaction sharing the stripe.
const PUBLISH_ACQUIRE_SPINS: u32 = 64;

/// Guard slots owned by one attempt. The hasher has a fixed key, so the
/// `drain` at release visits slots in the same order on every run: release
/// order reaches virtual time under the simulator, and a per-process random
/// key would make simulated runs differ between invocations.
type OwnedMap = HashMap<usize, (ObjRef, RecWord), BuildHasherDefault<DefaultHasher>>;

/// The pooled container set of one transaction attempt. Only capacities
/// survive in the pool — every container is empty between attempts.
#[derive(Default)]
struct Scratch {
    read_set: Vec<(ObjRef, RecWord)>,
    owned: OwnedMap,
    on_abort: Vec<Box<dyn FnOnce()>>,
    on_commit: Vec<Box<dyn FnOnce()>>,
    spans: Vec<SpanEntry>,
    span_index: HashMap<(ObjRef, u32), usize>,
    private_reads: HashSet<ObjRef>,
    private_writes: HashSet<ObjRef>,
    order: Vec<usize>,
    si_cache: HashMap<(ObjRef, u32), Word>,
}

/// Pool depth: open nesting runs an inner transaction while the outer one
/// is live, so the pool is a small stack, not a single slot.
const SCRATCH_POOL_DEPTH: usize = 8;

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

/// Reclaims an emptied handler vec's capacity across lifetimes, so the
/// pool (which must be `'static`) can keep it for the next attempt.
fn recycle_handlers<'h>(mut v: Vec<Box<dyn FnOnce() + 'h>>) -> Vec<Box<dyn FnOnce()>> {
    v.clear();
    let mut v = ManuallyDrop::new(v);
    let (ptr, cap) = (v.as_mut_ptr(), v.capacity());
    // SAFETY: the vec is empty, so no `'h`-bounded element is ever read
    // through the new type; `Box<dyn FnOnce() + 'h>` and
    // `Box<dyn FnOnce() + 'static>` have identical layout, so the pointer
    // and capacity describe the same allocation.
    unsafe { Vec::from_raw_parts(ptr.cast(), 0, cap) }
}

/// A savepoint over the core's logs (closed nesting). Engines wrap this
/// with their versioning-specific state.
#[derive(Copy, Clone, Debug)]
pub(crate) struct CoreMark {
    read_len: usize,
    on_abort_len: usize,
    on_commit_len: usize,
}

/// The progress-policy slice of one attempt, derived by the runner from the
/// block's [`crate::config::TxnPolicy`]: the wait-round budget left for this
/// attempt and whether the block holds the global serialization token.
/// All-scalar and `Copy` — attempt state must never allocate (the
/// steady-state lifecycle is pinned allocation-free).
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct AttemptPolicy {
    /// Wait rounds this attempt may still burn before
    /// [`Abort::DeadlineExceeded`]; `None` = unbounded.
    pub(crate) wait_budget: Option<u32>,
    /// The block escalated to serialized "inevitable-lite" mode: conflicts
    /// never self-abort on behalf of peers.
    pub(crate) unyielding: bool,
    /// Per-block isolation override ([`TxnPolicy::with_isolation`]):
    /// `None` runs at the heap-wide level.
    ///
    /// [`TxnPolicy::with_isolation`]: crate::config::TxnPolicy::with_isolation
    pub(crate) isolation: Option<IsolationLevel>,
}

/// The engine-independent half of a transaction attempt.
pub(crate) struct TxnCore<'h> {
    pub(crate) heap: &'h Heap,
    pub(crate) owner: OwnerToken,
    read_set: Vec<(ObjRef, RecWord)>,
    /// Guard slots we own exclusively: slot key → (representative object,
    /// shared word to restore-and-bump on release).
    owned: OwnedMap,
    on_abort: Vec<Box<dyn FnOnce() + 'h>>,
    on_commit: Vec<Box<dyn FnOnce() + 'h>>,
    /// Index of this attempt's quiescence slot in the heap's registry.
    slot: Option<usize>,
    pub(crate) telem: TxnTelemetry,
    /// Heap-side owner descriptor (watchdog enabled only): acquisitions and
    /// undo entries are mirrored here *before* any in-place store, so a
    /// reclaimer can roll this transaction back if its thread dies.
    desc: Option<Arc<OwnerDesc>>,
    /// The engine's span log: the eager undo log or the lazy write buffer.
    pub(crate) spans: Vec<SpanEntry>,
    /// Read-your-own-writes index over `spans` (lazy engine).
    pub(crate) span_index: HashMap<(ObjRef, u32), usize>,
    /// Objects accessed while private (DEA compensation on publication).
    pub(crate) private_reads: HashSet<ObjRef>,
    pub(crate) private_writes: HashSet<ObjRef>,
    /// Commit-time ordering scratch (lazy acquire and write-back orders).
    pub(crate) order: Vec<usize>,
    /// Snapshot-isolation read cache: the first shared read of each
    /// `(object, field)` is pinned here, and repeated reads are served from
    /// it — the lazily-materialized begin-time snapshot. Unused (and empty)
    /// at other isolation levels.
    si_cache: HashMap<(ObjRef, u32), Word>,
    /// The effective isolation level of this attempt: the per-block
    /// override ([`TxnPolicy::with_isolation`]) when present, otherwise the
    /// heap-wide [`StmConfig::isolation`]. Every transaction-side isolation
    /// decision reads this, never the heap config directly.
    ///
    /// [`TxnPolicy::with_isolation`]: crate::config::TxnPolicy::with_isolation
    /// [`StmConfig::isolation`]: crate::config::StmConfig::isolation
    iso: IsolationLevel,
    /// The read version (TL2 `rv`): the global version clock sampled at
    /// begin. Every optimistic read O(1)-validates `version <= rv`; under
    /// snapshot isolation a committed write stamped strictly later loses
    /// first-committer-wins against it; a wait-free read-only transaction
    /// under [`StmConfig::multiversion`] snapshots at it. Timestamp
    /// extension ([`TxnCore::extend_rv`]) may move it forward mid-attempt.
    ///
    /// [`StmConfig::multiversion`]: crate::config::StmConfig::multiversion
    rv: u64,
    /// The write version (TL2 `wv`): the clock tick drawn at commit, after
    /// every guard lock is held. Zero until drawn. Released guards carry
    /// it as their new version stamp.
    wv: u64,
    /// The drawn `wv` has been published to the visibility clock
    /// (multiversion heaps publish in order; the flag keeps the finish
    /// paths' safety-net publish idempotent).
    wv_published: bool,
    /// Wait-free snapshot-read mode is live: the block was declared
    /// [`TxnKind::ReadOnly`] and the heap maintains the multi-version
    /// table. Reads are served at `rv` without logging or locking, and
    /// commit validates nothing.
    ro_active: bool,
    /// The wait-free path hit a wall — a ring overflowed past `rv`, or
    /// the block wrote despite its read-only declaration. The attempt
    /// aborts and the runner re-executes it as an ordinary read-write
    /// transaction (the "existing validated path" fallback).
    ro_demote: bool,
    /// This attempt's progress policy (deadline remainder + escalation).
    policy: AttemptPolicy,
}

impl<'h> TxnCore<'h> {
    /// Begins an attempt: owner token, age registration, liveness
    /// descriptor, quiescence slot, pooled scratch.
    pub(crate) fn begin(heap: &'h Heap, age: u64, kind: TxnKind, policy: AttemptPolicy) -> Self {
        charge(CostKind::TxnBegin);
        let owner = heap.fresh_owner();
        heap.register_age(owner, age);
        let iso = policy.isolation.unwrap_or(heap.config.isolation);
        let ro_active = kind == TxnKind::ReadOnly && heap.mv_enabled();
        // Every attempt samples its read version at begin. A wait-free
        // reader snapshots the *visibility* clock, not the allocation
        // clock: a stamp is visible only once all its version installs
        // landed, so `rv` never includes a half-installed commit (which a
        // cross-field read could otherwise observe torn). Everyone else
        // keeps the allocation clock — optimistic reads O(1)-validate
        // against it and snapshot isolation's first-committer-wins check
        // measures from it.
        let rv = if ro_active { heap.clock_visible() } else { heap.clock_now() };
        // Liveness is registered BEFORE the owner word is published in the
        // quiescence slot: a committer treats a slot owner that is not
        // registered alive as crashed and skips the slot, so registration
        // must be visible first or a live transaction could be skipped.
        let desc = heap.liveness_register(owner);
        // A wait-free reader claims a slot even without quiescence: the
        // slot's `rv` advertises its snapshot so committing writers compute
        // the eviction horizon and don't starve it out of the version rings
        // (best-effort — a missed advertisement only costs a fallback).
        let slot = if heap.config.quiescence || ro_active {
            let idx = heap.claim_txn_slot(heap.serial.load(Ordering::Acquire));
            heap.txn_slot(idx).owner.store(owner.word(), Ordering::Release);
            if ro_active {
                heap.txn_slot(idx).rv.store(rv + 1, Ordering::Release);
            }
            Some(idx)
        } else {
            None
        };
        let scratch = SCRATCH_POOL
            .try_with(|p| p.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        TxnCore {
            heap,
            owner,
            read_set: scratch.read_set,
            owned: scratch.owned,
            on_abort: scratch.on_abort,
            on_commit: scratch.on_commit,
            slot,
            telem: TxnTelemetry { attempts: 1, ..TxnTelemetry::default() },
            desc,
            spans: scratch.spans,
            span_index: scratch.span_index,
            private_reads: scratch.private_reads,
            private_writes: scratch.private_writes,
            order: scratch.order,
            si_cache: scratch.si_cache,
            iso,
            rv,
            wv: 0,
            wv_published: false,
            ro_active,
            ro_demote: false,
            policy,
        }
    }

    pub(crate) fn owner_word(&self) -> usize {
        self.owner.word()
    }

    /// Index of this attempt's quiescence slot, if quiescence is on. Tests
    /// assert slot exclusivity and reuse through this.
    pub(crate) fn slot_index(&self) -> Option<usize> {
        self.slot
    }

    /// Consults the heap's contention manager about a conflict at `site`;
    /// waits or aborts self per its decision. Provable self-deadlock (open
    /// nesting touching an enclosing transaction's lock) aborts with the
    /// structured [`Abort::Deadlock`] — recoverable, not fatal.
    pub(crate) fn conflict(
        &mut self,
        site: ConflictSite,
        attempt: &mut u32,
        holder: RecWord,
    ) -> TxResult<()> {
        if holder.is_txn_exclusive() && token_is_active(holder.raw()) {
            self.telem.deadlocks += 1;
            return Err(Abort::Deadlock);
        }
        // Deadline enforcement: every wait site in the pipeline — optimistic
        // reads, write acquisition, lazy commit locking, watchdog-phase
        // spins — funnels through here, so one check covers them all. The
        // check only fires when the attempt would actually wait, which
        // keeps rollback well-defined and means conflict-free blocks never
        // pay (or trip) their deadline.
        if let Some(budget) = self.policy.wait_budget {
            if self.telem.wait_rounds >= budget {
                return Err(Abort::DeadlineExceeded);
            }
            // Deadline-aware impatience: a block under a wait budget never
            // lets a single acquisition eat it. Attempt-count escalation
            // (boost, then serialization) only engages on re-execution, so
            // a waiter starved *within* one attempt — an older block
            // patiently polling a fast-cycling younger peer — would
            // otherwise burn its whole deadline without ever climbing the
            // ladder. Once one conflict has eaten an eighth of the budget,
            // self-abort and re-execute instead; the ladder resolves
            // starvation far cheaper than waiting out the deadline would.
            if !self.policy.unyielding && *attempt >= (budget / 8).max(4) {
                // Counted exactly like a contention-manager self-abort so
                // the stress-test identities (aborts = sum of causes,
                // telemetry sees every self-abort) keep holding.
                self.heap.stats.cm_self_abort(site);
                self.heap.stats.record_wait_span(*attempt);
                self.telem.self_aborts += 1;
                return Err(Abort::Conflict);
            }
        }
        if *attempt == 0 {
            self.telem.conflicts += 1;
        }
        match resolve_with(
            self.heap,
            site,
            Some(self.owner),
            Some(holder),
            attempt,
            self.policy.unyielding,
        ) {
            Ok(()) => {
                self.telem.wait_rounds += 1;
                Ok(())
            }
            Err(()) => {
                self.telem.self_aborts += 1;
                Err(Abort::Conflict)
            }
        }
    }

    /// Completes a contended acquisition: records the wait span in the
    /// telemetry histogram.
    pub(crate) fn conflict_resolved(&self, attempt: u32) {
        if attempt > 0 {
            self.heap.stats.record_wait_span(attempt);
        }
    }

    /// The per-access preamble shared by both engines: the open-read fault
    /// hook, then TL2-style per-access validation when configured.
    pub(crate) fn read_preamble(&mut self) -> TxResult<()> {
        fault::hook(self.heap, FaultSite::OpenRead)?;
        if self.heap.config.eager_validation && !self.read_set_valid() {
            self.heap.stats.abort_validation();
            return Err(Abort::Conflict);
        }
        Ok(())
    }

    /// Per-access validation for write paths ([`StmConfig::eager_validation`]
    /// runs before every transactional access, reads and writes alike).
    ///
    /// [`StmConfig::eager_validation`]: crate::config::StmConfig::eager_validation
    pub(crate) fn write_preamble(&mut self) -> TxResult<()> {
        if self.heap.config.eager_validation && !self.read_set_valid() {
            self.heap.stats.abort_validation();
            return Err(Abort::Conflict);
        }
        Ok(())
    }

    /// The open-for-read protocol (paper: open-for-read barrier): private
    /// fast path, lock-protected read of an owned guard, or optimistic read
    /// with read-set logging.
    pub(crate) fn open_read_protocol(
        &mut self,
        r: ObjRef,
        field: usize,
    ) -> TxResult<(Word, ReadKind)> {
        if self.ro_active {
            return self.ro_read(r, field);
        }
        let si = self.iso.snapshot_reads();
        // Snapshot isolation: repeated reads are served from the pinned
        // snapshot, not from shared memory — unless we own the guard slot
        // ourselves, in which case the lock-protected current value is the
        // transaction's own (read-your-own-writes beats the snapshot).
        if si && !self.owns(r) {
            if let Some(&val) = self.si_cache.get(&(r, field as u32)) {
                self.heap.stats.si_snapshot_read();
                return Ok((val, ReadKind::Shared));
            }
        }
        let obj = self.heap.obj(r);
        let mut attempt = 0u32;
        loop {
            let rec = self.heap.guard_load(r);
            if rec.is_private() {
                self.conflict_resolved(attempt);
                return Ok((obj.field(field).load(Ordering::Relaxed), ReadKind::Private));
            }
            if rec.owned_by(self.owner) {
                self.conflict_resolved(attempt);
                return Ok((obj.field(field).load(Ordering::Relaxed), ReadKind::Owned));
            }
            if rec.is_shared() {
                charge(CostKind::TxnOpenRead);
                let val = obj.field(field).load(Ordering::Acquire);
                if !si {
                    // TL2 read protocol. The post-load double-check makes
                    // the (record, value) pair atomic: a writer cycle
                    // completing between the two loads moved the record
                    // word, so re-read and retry. With it, `version <= rv`
                    // proves the value belongs to the begin-time snapshot —
                    // the O(1) validation that lets commit skip read-set
                    // revalidation. A newer version is not yet a conflict:
                    // timestamp extension re-anchors `rv` at the current
                    // clock if the read set still holds.
                    if self.heap.guard_load(r) != rec {
                        continue;
                    }
                    if rec.version() as u64 > self.rv {
                        self.extend_rv(rec.version() as u64)?;
                        // The new `rv` was sampled after the double-check,
                        // so the pair belongs to the extended snapshot only
                        // if the record still holds `rec`. A rival commit in
                        // between would otherwise sit inside the snapshot
                        // unvalidated, and the `wv == rv + 1` skip would
                        // commit a write computed from the stale value.
                        if self.heap.guard_load(r) != rec {
                            continue;
                        }
                    }
                    self.heap.stats.o1_validation();
                }
                self.read_set.push((r, rec));
                if si {
                    self.si_cache.insert((r, field as u32), val);
                }
                self.conflict_resolved(attempt);
                return Ok((val, ReadKind::Shared));
            }
            self.conflict(ConflictSite::TxnRead, &mut attempt, rec)?;
        }
    }

    /// Preamble plus protocol — the whole open-for-read path.
    pub(crate) fn open_read(&mut self, r: ObjRef, field: usize) -> TxResult<(Word, ReadKind)> {
        self.read_preamble()?;
        self.open_read_protocol(r, field)
    }

    /// Timestamp extension (TL2 refinement): a read observed a guard
    /// version newer than `rv`. Instead of aborting, re-anchor the
    /// snapshot — heal the clock past the observed stamp (thread-local
    /// mode stamps can run ahead of the shared counter), re-sample `rv`,
    /// and prove every read taken so far is still exact-word valid at the
    /// new snapshot. On success the attempt continues; on failure it holds
    /// genuinely stale data and aborts.
    ///
    /// Order matters: the new `rv` is sampled *before* revalidation. A
    /// rival committing between a revalidation and a later sample would
    /// slip inside the extended window unvalidated — and could then be
    /// hidden by the commit-time `wv == rv + 1` skip.
    fn extend_rv(&mut self, needed: u64) -> TxResult<()> {
        self.heap.clock_advance_to(needed);
        let rv_new = self.heap.clock_now();
        if !self.read_set_valid() {
            self.heap.stats.abort_validation();
            return Err(Abort::Conflict);
        }
        self.rv = rv_new;
        self.heap.stats.rv_extension();
        Ok(())
    }

    /// The wait-free snapshot read of a declared read-only transaction
    /// under multiversion: serve the newest committed version of the field
    /// with stamp at most `rv`. Never logs, never locks, never spins —
    /// each arm is a bounded number of loads:
    ///
    /// 1. a private object is ours alone — plain load;
    /// 2. a shared, unowned record whose version stamp is at most `rv`
    ///    holds its newest committed version in place — direct load,
    ///    double-checked against the record word;
    /// 3. otherwise the version ring serves the newest version `<= rv`;
    /// 4. if even the ring has only newer versions (this reader outlived
    ///    the bounded history), the attempt is demoted: it aborts and
    ///    re-executes on the ordinary validated path instead of spinning.
    fn ro_read(&mut self, r: ObjRef, field: usize) -> TxResult<(Word, ReadKind)> {
        let heap = self.heap;
        let rec = heap.guard_load(r);
        if rec.is_private() {
            return Ok((heap.obj(r).field(field).load(Ordering::Relaxed), ReadKind::Private));
        }
        // Direct path: the record's version *is* its commit stamp. The
        // record load precedes the value load, so a writer cycle completing
        // in between bumps the version and fails the double-check; a cycle
        // completing before the first record load already carries its
        // (newer) stamp.
        if rec.is_shared() && rec.version() as u64 <= self.rv {
            let val = heap.obj(r).field(field).load(Ordering::Acquire);
            if heap.guard_load(r) == rec {
                charge(CostKind::TxnOpenRead);
                heap.stats.mv_snapshot_read();
                return Ok((val, ReadKind::Shared));
            }
        }
        if let Some(val) = heap.mv_read_at(r, field, self.rv) {
            charge(CostKind::TxnOpenRead);
            heap.stats.mv_snapshot_read();
            return Ok((val, ReadKind::Shared));
        }
        heap.stats.mv_ring_overflow();
        self.ro_demote = true;
        // Demotion fault site: the reader is abandoning the wait-free path
        // with no locks held — a forced abort or panic here must leave the
        // heap audit-clean and the fallback re-execution intact. Demotion is
        // flagged first so an injected abort still falls back to the
        // validated path.
        fault::hook(heap, FaultSite::RoDemote)?;
        Err(Abort::Conflict)
    }

    /// Guards the write paths of a declared read-only block: its snapshot
    /// reads were never logged or validated, so the attempt cannot be
    /// soundly continued as a writer. It aborts and the runner re-executes
    /// it as an ordinary read-write transaction.
    pub(crate) fn ro_write_guard(&mut self) -> TxResult<()> {
        if self.ro_active {
            self.ro_demote = true;
            return Err(Abort::Conflict);
        }
        Ok(())
    }

    /// Whether this attempt asked to be re-executed as read-write (ring
    /// overflow, or a write inside a declared read-only block).
    pub(crate) fn ro_demoted(&self) -> bool {
        self.ro_demote
    }

    /// The acquire-for-write CAS loop (paper Figure 8, "CAS" edge), shared
    /// by the eager open-for-write and the lazy commit-time acquisition.
    /// `site` distinguishes them in the contention telemetry.
    pub(crate) fn acquire_for_write(
        &mut self,
        r: ObjRef,
        site: ConflictSite,
        cost: CostKind,
    ) -> TxResult<Acquired> {
        let mut attempt = 0u32;
        loop {
            let rec = self.heap.guard_load(r);
            if rec.is_private() {
                self.conflict_resolved(attempt);
                return Ok(Acquired::Private);
            }
            if rec.owned_by(self.owner) {
                self.conflict_resolved(attempt);
                return Ok(Acquired::Held);
            }
            if rec.is_shared() {
                charge(cost);
                if self.heap.guard(r).try_acquire_txn(rec, self.owner).is_ok() {
                    self.note_owned(r, rec);
                    self.conflict_resolved(attempt);
                    return Ok(Acquired::Held);
                }
                continue; // record changed under us; re-read
            }
            self.conflict(site, &mut attempt, rec)?;
        }
    }

    /// Records a fresh acquisition in the ownership map and mirrors it into
    /// the watchdog descriptor. Keyed by guard slot, so each slot is noted
    /// exactly once however many objects it guards.
    fn note_owned(&mut self, r: ObjRef, prior: RecWord) {
        let slot = self.heap.slot_of(r);
        debug_assert!(!self.owned.contains_key(&slot), "double acquisition of one slot");
        self.owned.insert(slot, (r, prior));
        if let Some(d) = &self.desc {
            d.note_acquired(r, prior);
        }
    }

    /// Whether this transaction owns the guard slot of `r`.
    pub(crate) fn owns(&self, r: ObjRef) -> bool {
        self.owned.contains_key(&self.heap.slot_of(r))
    }

    /// Mirrors an undo-log append into the watchdog descriptor (eager
    /// engine; called before the in-place store so the recovery data is
    /// never behind shared memory).
    pub(crate) fn note_undo(&self, entry: SpanEntry) {
        if let Some(d) = &self.desc {
            d.note_undo(entry);
        }
    }

    /// Appends a read-set entry directly (DEA publication compensation).
    pub(crate) fn log_read(&mut self, r: ObjRef, rec: RecWord) {
        self.read_set.push((r, rec));
    }

    /// Acquires the guard of a freshly *published* object this transaction
    /// wrote while it was private (DEA compensation, paper §4). Per-object
    /// this succeeds immediately — the record is fresh and nobody else has
    /// the reference yet. In striped mode the slot may be held by an
    /// unrelated transaction sharing the stripe; we spin briefly and
    /// otherwise fall back to the seed's best-effort single-attempt
    /// semantics (the publishing store has not executed, so the window is
    /// benign in practice and bounded by the watchdog in pathology).
    pub(crate) fn acquire_published(&mut self, o: ObjRef) {
        if self.owns(o) {
            return;
        }
        for spin in 0..PUBLISH_ACQUIRE_SPINS {
            let rec = self.heap.guard_load(o);
            if rec.owned_by(self.owner) {
                return;
            }
            if rec.is_shared() {
                if self.heap.guard(o).try_acquire_txn(rec, self.owner).is_ok() {
                    self.note_owned(o, rec);
                    return;
                }
                continue;
            }
            backoff_wait(spin.min(6));
        }
    }

    /// Validates the read set (paper: optimistic read concurrency). An
    /// entry whose guard we acquired *after* reading is valid iff the
    /// version we locked is the version we read.
    pub(crate) fn read_set_valid(&self) -> bool {
        // Snapshot isolation reads from a pinned snapshot, so versions
        // moving under the read set is expected, not a conflict: the only
        // commit-time gate is the first-committer-wins write check.
        if self.iso.snapshot_reads() {
            return true;
        }
        for &(r, logged) in &self.read_set {
            charge(CostKind::TxnValidateEntry);
            let cur = self.heap.guard_load(r);
            if cur == logged {
                continue;
            }
            if cur.owned_by(self.owner) {
                match self.owned.get(&self.heap.slot_of(r)) {
                    Some((_, prior)) if prior.version() == logged.version() => continue,
                    _ => return false,
                }
            }
            return false;
        }
        true
    }

    /// Incremental validation (usable mid-transaction to bound the work a
    /// doomed transaction performs; the interpreter calls this
    /// periodically). Announces a consistent state to quiescence waiters on
    /// success.
    pub(crate) fn validate(&mut self) -> TxResult<()> {
        if self.read_set_valid() {
            if let Some(idx) = self.slot {
                self.heap
                    .txn_slot(idx)
                    .vserial
                    .store(self.heap.serial.load(Ordering::Acquire), Ordering::Release);
            }
            Ok(())
        } else {
            self.heap.stats.abort_validation();
            Err(Abort::Conflict)
        }
    }

    /// Commit-time validation: like [`TxnCore::validate`] but without
    /// announcing a consistent state (the transaction finishes either way).
    /// Under snapshot isolation the read-set check degenerates to the
    /// first-committer-wins write check.
    pub(crate) fn validate_for_commit(&mut self) -> TxResult<()> {
        self.si_commit_check()?;
        // Draw the write version now — strictly after every guard lock is
        // held (eager acquires during execution; lazy acquires just before
        // calling here). This is the TL2 ordering that makes the skip
        // below sound: any rival whose writes we could have missed either
        // ticked the clock before our `wv` or is still blocked on one of
        // our locks.
        //
        // On a multiversion heap the draw is deferred to
        // [`TxnCore::mv_publish_owned`] instead: mv publication is
        // in-order, so a tick drawn here would sit unpublished across the
        // whole write-back — and any stall in that window (a parked
        // syncpoint script, an injected delay) wedges every rival
        // committer spin-waiting to publish behind the gap. Deferring
        // costs mv heaps the `wv == rv + 1` skip below; their read-only
        // traffic already commits wait-free off the snapshot, so the skip
        // has little left to buy there.
        if !self.owned.is_empty() && !self.heap.mv_enabled() {
            self.wv = self.heap.clock_tick();
        }
        if self.iso.snapshot_reads() {
            return Ok(());
        }
        // TL2 revalidation skip: under the global clock, ticks are unique,
        // so `wv == rv + 1` proves *no* release of any kind — commit,
        // abort, barrier, reclaim — drew a stamp since `rv` was sampled.
        // Every optimistic read already O(1)-validated `version <= rv`, so
        // the read set cannot have moved. (Thread-local mode never skips:
        // its ticks don't totally order rival commits.)
        if self.wv != 0 && self.heap.config.clock == ClockMode::Global && self.wv == self.rv + 1 {
            if !self.read_set.is_empty() {
                self.heap.stats.revalidation_skipped();
            }
            return Ok(());
        }
        if self.read_set_valid() {
            Ok(())
        } else {
            self.heap.stats.abort_validation();
            Err(Abort::Conflict)
        }
    }

    /// First-committer-wins (snapshot isolation): the commit loses if any
    /// guard slot it is about to publish was stamped by a commit *after*
    /// this transaction's begin stamp. No-op at other isolation levels.
    /// Each refusal counts as both an `si_write_conflicts` event and an
    /// `aborts_validation` cause, so the abort-accounting identity the
    /// contention-stress suite asserts is unchanged.
    fn si_commit_check(&mut self) -> TxResult<()> {
        if !self.iso.snapshot_reads() {
            return Ok(());
        }
        // The guard word we displaced at acquisition carries the slot's
        // last release stamp — the record version *is* the commit stamp
        // now — so the check needs no side table and no extra load.
        for (_, prior) in self.owned.values() {
            charge(CostKind::TxnValidateEntry);
            if prior.version() as u64 > self.rv {
                // GV5 healing: under the thread-local clock a stamp can run
                // ahead of the shared counter, so "newer than my snapshot"
                // may just mean "drawn by a thread whose private clock is
                // ahead". Advance the shared counter to the observed stamp
                // before aborting — the retry's fresh `rv` then covers it,
                // so the same stamp can never conflict twice and progress
                // is guaranteed. (A no-op on the global clock, where every
                // stamp came from the counter itself.)
                self.heap.clock_advance_to(prior.version() as u64);
                self.heap.stats.si_write_conflict();
                self.heap.stats.abort_validation();
                return Err(Abort::Conflict);
            }
        }
        Ok(())
    }

    /// Commit fast path for transactions that wrote nothing — the
    /// degenerate case that previously paid full commit-time validation
    /// and the committer-side quiescence wait for an empty write set.
    /// Returns `Ok(true)` if the commit completed here.
    ///
    /// * Declared read-only under multiversion: every read came from the
    ///   begin-time snapshot, consistent by construction — **no
    ///   validation, no locks, no aborts** ([`ro_fast_commits`] counts
    ///   these).
    /// * Inferred read-only (never wrote), validated isolation: every read
    ///   already passed the O(1) `version <= rv` check (with its post-load
    ///   double-check), so the whole execution is a consistent snapshot at
    ///   `rv` — commit-time revalidation proves nothing more and is
    ///   skipped ([`revalidations_skipped`] counts these). The commit also
    ///   skips stamping, the release loop, and (via
    ///   [`TxnCore::finish_commit`]) the quiescence wait.
    ///
    /// [`ro_fast_commits`]: crate::stats::StatsSnapshot::ro_fast_commits
    /// [`revalidations_skipped`]: crate::stats::StatsSnapshot::revalidations_skipped
    pub(crate) fn try_fast_commit(&mut self) -> TxResult<bool> {
        if !self.spans.is_empty() || !self.owned.is_empty() || !self.private_writes.is_empty() {
            return Ok(false);
        }
        if self.ro_active {
            self.heap.stats.ro_fast_commit();
        } else if !self.iso.snapshot_reads() && !self.read_set.is_empty() {
            self.heap.stats.revalidation_skipped();
        }
        self.finish_commit();
        Ok(true)
    }

    /// Multiversion publication: installs the committed values into the
    /// version rings at `wv` and publishes `wv` to the visibility clock.
    /// Must run *before* [`TxnCore::release_owned`]: while the records are
    /// still exclusively ours, a wait-free reader either goes to the ring
    /// or sees an unchanged record word. The commit stamp itself needs no
    /// separate publication any more — the release loop writes `wv` into
    /// the guard words directly. No-op off multiversion heaps.
    ///
    /// `pre_images` is set by the eager engine, whose span log holds the
    /// values each field had *before* this transaction: they seed
    /// still-empty rings so readers older than this commit are served. The
    /// lazy engine's span log holds the new values (pre-images are gone by
    /// write-back), so it seeds nothing.
    pub(crate) fn mv_publish_owned(&mut self, pre_images: bool) {
        if !self.heap.mv_enabled() || self.owned.is_empty() {
            return;
        }
        // On mv heaps the write version is drawn here, not at validation:
        // this is the first point where nothing stoppable separates the
        // tick from its in-order publication below.
        if self.wv == 0 {
            self.wv = self.heap.clock_tick();
        }
        let wv = self.wv;
        // Dedup by scanning earlier span entries instead of a HashSet:
        // spans are short and this path must stay allocation-free in
        // steady state (slot_churn pins it, with mv as the ambient
        // default too).
        let first_covering = |upto: usize, obj, field: usize| {
            self.spans[..upto]
                .iter()
                .all(|p| p.obj != obj || field < p.base as usize || field >= p.base as usize + p.len as usize)
        };
        if pre_images {
            // Seed before release: the pre-image has been current since
            // the guard's previous release stamp — the version we
            // displaced at acquisition. Only the first span entry per
            // field is the true pre-image (repeated writes log repeated
            // undo entries).
            for (ei, e) in self.spans.iter().enumerate() {
                if self.heap.is_private(e.obj) {
                    continue;
                }
                let prev = match self.owned.get(&self.heap.slot_of(e.obj)) {
                    Some(&(_, prior)) => prior.version() as u64,
                    // Written while private and published without the
                    // guard landing (best-effort acquisition): no sound
                    // valid-since stamp, so seed nothing.
                    None => continue,
                };
                for i in 0..e.len as usize {
                    let field = e.base as usize + i;
                    if first_covering(ei, e.obj, field) {
                        self.heap.mv_seed(e.obj, field, prev, e.vals[i]);
                    }
                }
            }
        }
        // Commit-critical mv fault site (delay-only): stretches the window
        // between the wv draw and publication. The stamp below MUST still
        // be published — this hook can never abort or panic.
        let _ = fault::hook(self.heap, FaultSite::MvInstall);
        // Install the committed values — memory is current for both
        // engines here (eager wrote in place; lazy ran write-back).
        for (ei, e) in self.spans.iter().enumerate() {
            if self.heap.is_private(e.obj) {
                continue;
            }
            for i in 0..e.len as usize {
                let field = e.base as usize + i;
                if first_covering(ei, e.obj, field) {
                    let val = self.heap.obj(e.obj).field(field).load(Ordering::Relaxed);
                    self.heap.mv_install(e.obj, field, wv, val);
                }
            }
        }
        // All installs landed: make the stamp visible to wait-free
        // readers. Must be unconditional on every mv-heap tick —
        // publication is in-order and a gap wedges later publishers.
        // The delay-only fault just before widens the unpublished-stamp
        // window that in-order publication has to absorb.
        let _ = fault::hook(self.heap, FaultSite::SiPublish);
        self.heap.clock_publish(wv);
        self.wv_published = true;
        // Periodic sweep of superseded versions, amortized over writer
        // commits (the ring also self-bounds by evicting on install).
        if wv & 0xff == 0 {
            self.heap.mv_gc();
        }
    }

    /// Releases every owned guard, stamping it with this transaction's
    /// write version (paper Figure 8, "Txn end" edge). Used on commit and
    /// on eager abort — in both cases concurrent optimistic readers that
    /// observed this transaction's values must fail validation, and the
    /// released word must carry a fresh clock stamp: a release at an
    /// un-ticked version would pass a later transaction's `version <= rv`
    /// check even though it landed after that transaction began, breaking
    /// the commit-time revalidation skip. An abort that never drew a write
    /// version draws one here. The `max` guards thread-local clock mode,
    /// where a rival's stamp can run ahead of our tick — the released
    /// version must still exceed the displaced one so exact-word
    /// validation can never confuse the two.
    ///
    /// `aborting` arms the GV5 abort rule for the thread-local clock:
    /// an aborting release publishes its (thread-local, likely ahead)
    /// stamps into the shared counter. Without this the snapshot-isolation
    /// retry loop livelocks — the first-committer-wins check heals the
    /// counter to the stamp it observed, but the abort's own release then
    /// re-stamps the record one past it, so every retry begins with `rv`
    /// exactly one behind the record and conflicts again, forever. With it
    /// the retry's begin-time `rv` covers the abort's own stamps, so any
    /// given stamp can make a transaction lose at most once. Committing
    /// releases deliberately skip this — never touching the shared counter
    /// on commit is the entire point of the thread-local mode, and a
    /// commit's stamps running ahead cost rivals at most one healing
    /// abort each.
    pub(crate) fn release_owned(&mut self, charge_entries: bool, aborting: bool) {
        if self.owned.is_empty() {
            return;
        }
        if self.wv == 0 {
            self.wv = self.heap.clock_tick();
        }
        let wv = self.wv;
        let mut released_max = 0u64;
        for (_, (r, prior)) in self.owned.drain() {
            if charge_entries {
                charge(CostKind::TxnCommitEntry);
            }
            let stamp = wv.max(prior.version() as u64 + 1);
            released_max = released_max.max(stamp);
            self.heap.guard(r).release_txn_at(stamp as usize);
        }
        if aborting && self.heap.config.clock == ClockMode::ThreadLocal {
            self.heap.clock_advance_to(released_max);
        }
    }

    /// Restores every owned guard to its exact pre-acquisition word (lazy
    /// commit failure before any write-back: no values changed, so versions
    /// must not change either).
    pub(crate) fn restore_owned(&mut self) {
        for (_, (r, prior)) in self.owned.drain() {
            self.heap.guard(r).restore(prior);
        }
    }

    /// Safety net for the visibility clock: a multiversion heap publishes
    /// every drawn tick in order, so a write version drawn by an attempt
    /// that then failed (validation, injected fault, lazy acquisition
    /// loss) must still be published or every later publisher wedges
    /// behind the gap. Idempotent — [`TxnCore::mv_publish_owned`] already
    /// published the happy path.
    fn publish_wv(&mut self) {
        if self.wv != 0 && !self.wv_published && self.heap.mv_enabled() {
            self.heap.clock_publish(self.wv);
            self.wv_published = true;
        }
    }

    /// Commit epilogue: statistics, `on_commit` handlers, quiescence,
    /// bookkeeping teardown. The caller has already validated, written
    /// back (lazy), and released.
    pub(crate) fn finish_commit(&mut self) {
        self.publish_wv();
        charge(CostKind::TxnCommit);
        self.heap.stats.commit();
        for h in self.on_commit.drain(..) {
            h();
        }
        self.heap.hit(SyncPoint::TxnCommitted);
        if let Some(idx) = self.slot.take() {
            // A committer that published no writes exposed nothing a doomed
            // transaction could have observed, so it finishes its slot
            // without the committer-side quiescence wait (the empty-write-
            // set short-circuit; also the wait-free read-only commit).
            let wrote = !self.spans.is_empty() || !self.private_writes.is_empty();
            // The commit is past its serialization point, so the deadline
            // can no longer abort it — what is left of the wait budget
            // merely caps the residual quiescence wait (the caller opted
            // into progress over ordering strength).
            let wait_cap = self
                .policy
                .wait_budget
                .map(|b| b.saturating_sub(self.telem.wait_rounds));
            quiesce::finish_and_quiesce(self.heap, idx, wrote, wait_cap);
            self.heap.retire_txn_slot(idx);
        }
        self.clear();
    }

    /// Abort epilogue: `on_abort` compensations (reverse registration
    /// order), statistics, quiescence, bookkeeping teardown. The caller has
    /// already rolled back its data (eager undo replay) and released.
    pub(crate) fn finish_abort(&mut self) {
        self.publish_wv();
        for h in self.on_abort.drain(..).rev() {
            h();
        }
        charge(CostKind::TxnAbort);
        self.heap.stats.abort();
        if let Some(idx) = self.slot.take() {
            quiesce::finish_and_quiesce(self.heap, idx, false, None);
            self.heap.retire_txn_slot(idx);
        }
        self.clear();
    }

    /// Tears down bookkeeping and returns the emptied containers to the
    /// thread-local scratch pool (capacities intact).
    fn clear(&mut self) {
        self.heap.retire_age(self.owner);
        if self.desc.take().is_some() {
            self.heap.liveness_deregister(self.owner);
        }
        self.read_set.clear();
        self.owned.clear();
        self.on_abort.clear();
        self.on_commit.clear();
        self.spans.clear();
        self.span_index.clear();
        self.private_reads.clear();
        self.private_writes.clear();
        self.order.clear();
        self.si_cache.clear();
        let scratch = Scratch {
            read_set: std::mem::take(&mut self.read_set),
            owned: std::mem::take(&mut self.owned),
            on_abort: recycle_handlers(std::mem::take(&mut self.on_abort)),
            on_commit: recycle_handlers(std::mem::take(&mut self.on_commit)),
            spans: std::mem::take(&mut self.spans),
            span_index: std::mem::take(&mut self.span_index),
            private_reads: std::mem::take(&mut self.private_reads),
            private_writes: std::mem::take(&mut self.private_writes),
            order: std::mem::take(&mut self.order),
            si_cache: std::mem::take(&mut self.si_cache),
        };
        let _ = SCRATCH_POOL.try_with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < SCRATCH_POOL_DEPTH {
                pool.push(scratch);
            }
        });
    }

    /// This attempt's contention telemetry.
    pub(crate) fn telemetry(&self) -> TxnTelemetry {
        self.telem
    }

    /// Snapshot of the read set, used by `retry` to wait for a change.
    pub(crate) fn read_snapshot(&self) -> Vec<(ObjRef, RecWord)> {
        self.read_set.clone()
    }

    /// Savepoint over the core's logs (closed nesting). Locks acquired
    /// inside the nested block are retained — safe under two-phase locking,
    /// merely conservative.
    pub(crate) fn mark(&self) -> CoreMark {
        CoreMark {
            read_len: self.read_set.len(),
            on_abort_len: self.on_abort.len(),
            on_commit_len: self.on_commit.len(),
        }
    }

    /// Partial rollback to `mark`: truncates the read set, runs the nested
    /// block's `on_abort` compensations (LIFO), drops its `on_commit`
    /// handlers.
    pub(crate) fn rollback_to_mark(&mut self, mark: CoreMark) {
        self.read_set.truncate(mark.read_len);
        for h in self.on_abort.drain(mark.on_abort_len..).rev() {
            h();
        }
        self.on_commit.truncate(mark.on_commit_len);
    }

    pub(crate) fn push_on_abort(&mut self, h: Box<dyn FnOnce() + 'h>) {
        self.on_abort.push(h);
    }

    pub(crate) fn push_on_commit(&mut self, h: Box<dyn FnOnce() + 'h>) {
        self.on_commit.push(h);
    }

    /// Debug counters for the engines' `Debug` impls.
    pub(crate) fn debug_counts(&self) -> (usize, usize) {
        (self.read_set.len(), self.owned.len())
    }
}
