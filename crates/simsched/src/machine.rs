//! The discrete-event simulated multiprocessor.
//!
//! Virtual threads are hosted on real OS threads, but only one executes user
//! code at a time: the scheduler grants the *floor* to the runnable thread
//! with the lowest virtual clock (ties broken by id), so shared-memory
//! effects occur in nondecreasing virtual-time order. A thread runs ahead of
//! the others by at most a configurable *quantum* of cycles before
//! re-checking, which amortizes scheduling overhead without materially
//! changing contention behaviour.
//!
//! Processor capacity is modelled by `P` processor clocks: each flushed
//! segment of `c` cycles is placed on the earliest-free processor, starting
//! no earlier than the thread's own clock. With more runnable threads than
//! processors, segments queue — exactly how a 16-way machine serializes 32
//! workers — and the *makespan* (maximum clock at termination) is the
//! simulated wall-clock time the scalability figures report.
//!
//! Everything interesting the STM does (barriers, commits, backoffs) reaches
//! the simulator through `stm_core::cost`'s thread-local hook, which the
//! vthread wrapper installs automatically.

use crate::costs::CostTable;
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Simulated-machine parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of simulated processors.
    pub processors: usize,
    /// How many cycles a thread may run past the next-lowest clock before
    /// yielding the floor. 0 = strict event ordering (slow).
    pub quantum: u64,
    /// Cycle cost of spawning a virtual thread.
    pub spawn_cost: u64,
    /// STM event costs.
    pub costs: CostTable,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            processors: 16,
            quantum: 64,
            spawn_cost: 200,
            costs: CostTable::default(),
        }
    }
}

impl SimConfig {
    /// A machine with `processors` CPUs and default costs.
    pub fn with_processors(processors: usize) -> Self {
        SimConfig { processors, ..SimConfig::default() }
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Status {
    Runnable,
    Blocked,
    Finished,
}

#[derive(Debug)]
struct TState {
    clock: u64,
    status: Status,
    /// Park/unpark token: a wake that arrived before the target parked.
    wake_token: Option<u64>,
}

#[derive(Debug)]
struct State {
    threads: Vec<TState>,
    procs: Vec<u64>,
    /// Cycles each processor spent executing segments.
    proc_busy: Vec<u64>,
    switches: u64,
    /// target vid → waiters blocked in join(target).
    join_waiters: std::collections::HashMap<usize, Vec<usize>>,
    /// Virtual threads wait for this gate before running user code, so that
    /// batch-spawned fleets start deterministically.
    started: bool,
}

impl State {
    fn min_other_runnable(&self, vid: usize) -> Option<(u64, usize)> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(i, t)| *i != vid && t.status == Status::Runnable)
            .map(|(i, t)| (t.clock, i))
            .min()
    }

    fn assign_processor(&mut self, clock: u64, cycles: u64) -> u64 {
        let pi = self
            .procs
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .expect("at least one processor");
        let start = clock.max(self.procs[pi]);
        let end = start + cycles;
        self.procs[pi] = end;
        self.proc_busy[pi] += cycles;
        end
    }
}

/// The simulated machine. Create with [`Machine::new`], spawn virtual
/// threads, join them, then read the [`Machine::report`].
pub struct Machine {
    state: Mutex<State>,
    cv: Condvar,
    epoch: AtomicU64,
    config: SimConfig,
}

struct Ctx {
    machine: Arc<Machine>,
    vid: usize,
    clock: u64,
    pending: u64,
    limit: u64,
    epoch: u64,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Handle to a spawned virtual thread.
pub struct VthreadHandle<T> {
    machine: Arc<Machine>,
    vid: usize,
    os: std::thread::JoinHandle<T>,
}

impl<T> VthreadHandle<T> {
    /// Waits for the thread. From inside another virtual thread this blocks
    /// in *virtual* time (the joiner's clock advances to the joinee's finish
    /// time); from outside it just waits in real time.
    ///
    /// # Panics
    /// Re-raises a panic from the joined thread.
    pub fn join(self) -> T {
        if current_vid().is_some() {
            let finish = self.machine.block_until_finished(self.vid);
            with_ctx(|ctx| {
                ctx.clock = ctx.clock.max(finish);
            });
        } else {
            self.machine.start();
        }
        match self.os.join() {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    /// The virtual thread id.
    pub fn vid(&self) -> usize {
        self.vid
    }
}

/// Final report of a simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimReport {
    /// Maximum virtual clock over all threads: the simulated wall time.
    pub makespan: u64,
    /// Finish clock of each virtual thread.
    pub finish_clocks: Vec<u64>,
    /// Busy cycles per simulated processor.
    pub proc_busy: Vec<u64>,
    /// Number of scheduler floor hand-offs (diagnostic).
    pub switches: u64,
}

impl SimReport {
    /// Mean processor utilization over the makespan, in `0.0..=1.0`.
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 || self.proc_busy.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.proc_busy.iter().sum();
        busy as f64 / (self.makespan as f64 * self.proc_busy.len() as f64)
    }
}

fn with_ctx<R>(f: impl FnOnce(&mut Ctx) -> R) -> R {
    CTX.with(|c| {
        let mut b = c.borrow_mut();
        let ctx = b.as_mut().expect("not inside a simulated thread");
        f(ctx)
    })
}

/// The id of the current virtual thread, if the caller is one.
pub fn current_vid() -> Option<usize> {
    CTX.with(|c| c.borrow().as_ref().map(|ctx| ctx.vid))
}

/// The current virtual thread's clock (committed + pending cycles).
///
/// # Panics
/// Panics outside a virtual thread.
pub fn now() -> u64 {
    with_ctx(|ctx| ctx.clock + ctx.pending)
}

/// Charges `cycles` of computation to the current virtual thread. No-op when
/// called outside a simulation (so workload code runs unchanged natively).
#[inline]
pub fn charge(cycles: u64) {
    CTX.with(|c| {
        let mut b = c.borrow_mut();
        if let Some(ctx) = b.as_mut() {
            ctx.pending += cycles;
            let epoch_now = ctx.machine.epoch.load(Ordering::Relaxed);
            if ctx.clock + ctx.pending > ctx.limit || epoch_now != ctx.epoch {
                flush(ctx);
            }
        }
    });
}

/// Commits pending cycles and lets lower-clock threads run. Call from spin
/// loops.
pub fn vyield() {
    CTX.with(|c| {
        let mut b = c.borrow_mut();
        if let Some(ctx) = b.as_mut() {
            ctx.limit = 0;
            flush(ctx);
        }
    });
}

/// Commits pending work and waits for the floor.
///
/// The pending segment is placed on a processor only *after* the thread
/// holds the floor (i.e. in global virtual-time order), which makes
/// processor assignment — and therefore the whole simulation — independent
/// of OS scheduling.
fn flush(ctx: &mut Ctx) {
    let machine = Arc::clone(&ctx.machine);
    let mut st = machine.state.lock();
    st.threads[ctx.vid].clock = ctx.clock;
    st.switches += 1;
    machine.cv.notify_all();
    // Phase 1: acquire the floor at the segment's *start* clock, so pending
    // segments are placed onto processors in global virtual-time order
    // (determinism).
    floor_wait(&machine, &mut st, ctx);
    if ctx.pending > 0 {
        ctx.clock = st.assign_processor(ctx.clock, ctx.pending);
        ctx.pending = 0;
        st.threads[ctx.vid].clock = ctx.clock;
        machine.cv.notify_all();
        // Phase 2: the clock jumped to the segment's end; re-acquire the
        // floor there so user code cannot causally overtake virtual threads
        // with earlier clocks.
        floor_wait(&machine, &mut st, ctx);
    }
    ctx.limit = st
        .min_other_runnable(ctx.vid)
        .map(|(c, _)| c)
        .unwrap_or(u64::MAX)
        .saturating_add(machine.config.quantum);
    ctx.epoch = machine.epoch.load(Ordering::Relaxed);
}

/// Waits until no other runnable thread has an earlier (clock, id) and the
/// machine has started.
fn floor_wait(
    machine: &Arc<Machine>,
    st: &mut parking_lot::MutexGuard<'_, State>,
    ctx: &mut Ctx,
) {
    loop {
        let floor_ok = st.started
            && match st.min_other_runnable(ctx.vid) {
                Some((c, i)) => (ctx.clock, ctx.vid) <= (c, i),
                None => true,
            };
        if floor_ok {
            return;
        }
        machine.cv.wait(st);
        ctx.clock = ctx.clock.max(st.threads[ctx.vid].clock);
        st.threads[ctx.vid].clock = ctx.clock;
    }
}

impl Machine {
    /// Creates a machine.
    pub fn new(config: SimConfig) -> Arc<Machine> {
        assert!(config.processors >= 1, "need at least one processor");
        Arc::new(Machine {
            state: Mutex::new(State {
                threads: Vec::new(),
                procs: vec![0; config.processors],
                proc_busy: vec![0; config.processors],
                switches: 0,
                join_waiters: std::collections::HashMap::new(),
                started: false,
            }),
            cv: Condvar::new(),
            epoch: AtomicU64::new(0),
            config,
        })
    }

    /// The machine's configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Opens the start gate: virtual threads begin running user code.
    /// Spawn the whole fleet first, then call this once, for a fully
    /// deterministic simulation; [`VthreadHandle::join`] from outside the
    /// simulation starts the machine automatically. Idempotent: a repeated
    /// call must not bump the epoch, or a join from outside would force a
    /// flush at whatever point in real time it lands, and the schedule
    /// would differ from run to run.
    pub fn start(&self) {
        {
            let mut st = self.state.lock();
            if st.started {
                return;
            }
            st.started = true;
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
        self.cv.notify_all();
    }

    /// Spawns a virtual thread. The child's clock starts at the spawner's
    /// clock plus `spawn_cost` (0 for threads spawned from outside the
    /// simulation).
    pub fn spawn<T: Send + 'static>(
        self: &Arc<Self>,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> VthreadHandle<T> {
        let parent_clock = CTX.with(|c| {
            c.borrow().as_ref().map_or(0, |ctx| ctx.clock + ctx.pending)
        });
        let start_clock = parent_clock + self.config.spawn_cost;
        let vid = {
            let mut st = self.state.lock();
            st.threads.push(TState { clock: start_clock, status: Status::Runnable, wake_token: None });
            st.threads.len() - 1
        };
        self.epoch.fetch_add(1, Ordering::Relaxed);
        self.cv.notify_all();

        let machine = Arc::clone(self);
        let os = std::thread::spawn(move || {
            // Ensure the thread is marked finished even on panic, so the
            // simulation cannot deadlock on a dead thread.
            struct FinishGuard {
                machine: Arc<Machine>,
                vid: usize,
            }
            impl Drop for FinishGuard {
                fn drop(&mut self) {
                    CTX.with(|c| {
                        let mut b = c.borrow_mut();
                        let mut st = self.machine.state.lock();
                        if let Some(ctx) = b.as_mut() {
                            // Commit any pending cycles without floor-waiting.
                            if ctx.pending > 0 {
                                ctx.clock = st.assign_processor(ctx.clock, ctx.pending);
                                ctx.pending = 0;
                            }
                            st.threads[self.vid].clock = ctx.clock;
                        }
                        st.threads[self.vid].status = Status::Finished;
                        // Wake joiners eagerly so no thread stays blocked on
                        // a finished target (would trip deadlock detection).
                        let finish = st.threads[self.vid].clock;
                        if let Some(ws) = st.join_waiters.remove(&self.vid) {
                            for w in ws {
                                let t = &mut st.threads[w];
                                t.clock = t.clock.max(finish);
                                t.status = Status::Runnable;
                            }
                        }
                    });
                    self.machine.epoch.fetch_add(1, Ordering::Relaxed);
                    self.machine.cv.notify_all();
                    let _ = stm_core::cost::set_thread_hook(None);
                    CTX.with(|c| *c.borrow_mut() = None);
                }
            }

            CTX.with(|c| {
                *c.borrow_mut() = Some(Ctx {
                    machine: Arc::clone(&machine),
                    vid,
                    clock: start_clock,
                    pending: 0,
                    limit: 0,
                    epoch: 0,
                });
            });
            stm_core::cost::set_thread_hook(Some(Arc::new(crate::hook::SimHook::new(
                machine.config.costs,
            ))));
            let _guard = FinishGuard { machine: Arc::clone(&machine), vid };
            // Wait for the floor (and the start gate) before running any
            // user code.
            vyield();
            let out = f();
            // Commit remaining cycles in floor order so even the final
            // segment is deterministic.
            vyield();
            out
        });
        VthreadHandle { machine: Arc::clone(self), vid, os }
    }

    /// Blocks the calling *virtual* thread until `target` finishes; returns
    /// the target's finish clock.
    fn block_until_finished(self: &Arc<Self>, target: usize) -> u64 {
        let vid = current_vid().expect("join from non-vthread handled by caller");
        // Commit pending cycles, then block.
        vyield();
        let finish;
        {
            let mut st = self.state.lock();
            if st.threads[target].status != Status::Finished {
                st.threads[vid].status = Status::Blocked;
                st.join_waiters.entry(target).or_default().push(vid);
                self.check_deadlock(&st);
                self.epoch.fetch_add(1, Ordering::Relaxed);
                self.cv.notify_all();
                while st.threads[vid].status == Status::Blocked {
                    self.cv.wait(&mut st);
                }
            }
            finish = st.threads[target].clock;
            let t = &mut st.threads[vid];
            t.clock = t.clock.max(finish);
        }
        self.epoch.fetch_add(1, Ordering::Relaxed);
        self.cv.notify_all();
        // Re-acquire the floor at the new clock.
        CTX.with(|c| {
            if let Some(ctx) = c.borrow_mut().as_mut() {
                ctx.clock = ctx.clock.max(finish);
                ctx.limit = 0;
            }
        });
        vyield();
        finish
    }

    /// Blocks the calling virtual thread until `wake` is called for it.
    /// `register` runs under the scheduler lock after the thread is marked
    /// blocked (use it to enqueue on a wait list).
    pub(crate) fn block_current(self: &Arc<Self>, register: impl FnOnce()) {
        let vid = current_vid().expect("block_current outside vthread");
        vyield(); // commit pending cycles
        {
            let mut st = self.state.lock();
            if let Some(at) = st.threads[vid].wake_token.take() {
                // The wake raced ahead of the park: consume it and continue.
                let t = &mut st.threads[vid];
                t.clock = t.clock.max(at);
                register();
            } else {
                st.threads[vid].status = Status::Blocked;
                register();
                self.check_deadlock(&st);
                self.epoch.fetch_add(1, Ordering::Relaxed);
                self.cv.notify_all();
                while st.threads[vid].status == Status::Blocked {
                    self.cv.wait(&mut st);
                }
            }
            let woken_clock = st.threads[vid].clock;
            CTX.with(|c| {
                if let Some(ctx) = c.borrow_mut().as_mut() {
                    ctx.clock = ctx.clock.max(woken_clock);
                    ctx.limit = 0;
                }
            });
        }
        vyield(); // re-acquire the floor at the new clock
    }

    /// Wakes a virtual thread at virtual time `at` (its clock becomes at
    /// least `at`). If the target has not parked yet, a wake token is left
    /// for it (park/unpark semantics — no lost wakeups).
    pub(crate) fn wake(self: &Arc<Self>, vid: usize, at: u64) {
        let mut st = self.state.lock();
        let t = &mut st.threads[vid];
        if t.status == Status::Blocked {
            t.clock = t.clock.max(at);
            t.status = Status::Runnable;
        } else {
            t.wake_token = Some(t.wake_token.map_or(at, |prev| prev.max(at)));
        }
        drop(st);
        self.epoch.fetch_add(1, Ordering::Relaxed);
        self.cv.notify_all();
    }

    fn check_deadlock(&self, st: &State) {
        if st
            .threads
            .iter()
            .all(|t| t.status != Status::Runnable)
        {
            panic!(
                "simulation deadlock: no runnable virtual threads ({} blocked, {} finished)",
                st.threads.iter().filter(|t| t.status == Status::Blocked).count(),
                st.threads.iter().filter(|t| t.status == Status::Finished).count(),
            );
        }
    }

    /// Final report; call after all handles are joined.
    pub fn report(&self) -> SimReport {
        let st = self.state.lock();
        assert!(
            st.threads.iter().all(|t| t.status == Status::Finished),
            "report() before all virtual threads finished"
        );
        SimReport {
            makespan: st.threads.iter().map(|t| t.clock).max().unwrap_or(0),
            finish_clocks: st.threads.iter().map(|t| t.clock).collect(),
            proc_busy: st.proc_busy.clone(),
            switches: st.switches,
        }
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("processors", &self.config.processors)
            .field("threads", &self.state.lock().threads.len())
            .finish()
    }
}

/// Convenience runner: spawns `n` workers of `f(worker_index)` on a machine
/// with `config`, joins them, and returns the report.
pub fn simulate_n<T: Send + 'static>(
    config: SimConfig,
    n: usize,
    f: impl Fn(usize) -> T + Send + Sync + 'static,
) -> (SimReport, Vec<T>) {
    let machine = Machine::new(config);
    let f = Arc::new(f);
    let handles: Vec<_> = (0..n)
        .map(|i| {
            let f = Arc::clone(&f);
            machine.spawn(move || f(i))
        })
        .collect();
    machine.start();
    let results = handles.into_iter().map(VthreadHandle::join).collect();
    (machine.report(), results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_accumulates_cycles() {
        let (report, _) = simulate_n(SimConfig::with_processors(1), 1, |_| {
            for _ in 0..100 {
                charge(10);
            }
        });
        assert!(report.makespan >= 1000, "makespan {} < 1000", report.makespan);
        // spawn_cost + work, no more than small slack.
        assert!(report.makespan <= 1000 + 300);
    }

    #[test]
    fn parallel_speedup_with_enough_processors() {
        let work = |_i: usize| {
            for _ in 0..200 {
                charge(10);
            }
        };
        let (seq, _) = simulate_n(SimConfig::with_processors(1), 4, work);
        let (par, _) = simulate_n(SimConfig::with_processors(4), 4, work);
        // 4 independent workers: ~4x speedup on 4 processors.
        let speedup = seq.makespan as f64 / par.makespan as f64;
        assert!(speedup > 3.0, "speedup {speedup:.2} too low (seq {} par {})", seq.makespan, par.makespan);
    }

    #[test]
    fn more_threads_than_processors_queue() {
        let work = |_i: usize| {
            for _ in 0..100 {
                charge(10);
            }
        };
        let (two_procs, _) = simulate_n(SimConfig::with_processors(2), 8, work);
        let (eight_procs, _) = simulate_n(SimConfig::with_processors(8), 8, work);
        assert!(
            two_procs.makespan > 3 * eight_procs.makespan,
            "2p {} vs 8p {}",
            two_procs.makespan,
            eight_procs.makespan
        );
    }

    #[test]
    fn deterministic_makespan() {
        let run = || {
            simulate_n(SimConfig::with_processors(4), 6, |i| {
                for k in 0..50 {
                    charge(((i + k) % 7 + 1) as u64);
                }
            })
            .0
        };
        assert_eq!(run().makespan, run().makespan);
    }

    #[test]
    fn join_advances_clock() {
        let machine = Machine::new(SimConfig::with_processors(2));
        let m2 = Arc::clone(&machine);
        let outer = machine.spawn(move || {
            let inner = m2.spawn(|| {
                charge(5000);
                now()
            });
            let inner_finish = inner.join();
            assert!(now() >= inner_finish, "joiner clock catches up");
        });
        outer.join();
    }

    #[test]
    fn panic_propagates_and_does_not_deadlock() {
        let machine = Machine::new(SimConfig::with_processors(1));
        let bad = machine.spawn(|| {
            charge(10);
            panic!("worker failed");
        });
        let good = machine.spawn(|| {
            for _ in 0..100 {
                charge(5);
            }
            7u32
        });
        assert_eq!(good.join(), 7);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bad.join()));
        assert!(r.is_err());
    }

    #[test]
    fn charge_outside_sim_is_noop() {
        charge(1_000_000);
        assert!(current_vid().is_none());
    }

    #[test]
    fn nested_spawn_inherits_clock() {
        let machine = Machine::new(SimConfig::with_processors(2));
        let m2 = Arc::clone(&machine);
        let h = machine.spawn(move || {
            charge(1000);
            let child = m2.spawn(now);
            let child_start = child.join();
            assert!(child_start >= 1000, "child starts after parent's work");
        });
        h.join();
    }
}
