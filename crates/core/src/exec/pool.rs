//! The persistent executor pool behind the in-core parallel backends:
//! its workers live as long as the pool, so a whole game (hundreds of
//! steps, each a fork-join batch of µs slots) pays the thread-spawn cost
//! once instead of once per step.
//!
//! One monitor, dispatching by the paper's Last-Minute rule (nothing is
//! handed out in advance; a free thread takes the next slot):
//!
//! * a queue of *open batches* (oldest first) and a shutdown flag sit
//!   under one mutex paired with one condvar;
//! * [`ExecutorPool::run_batch`] pushes its batch under that mutex and
//!   notifies; the submitter and every woken worker then *claim* slots
//!   one at a time from the batch's atomic cursor until none is left;
//! * a worker parks only after finding no batch with an unclaimed slot
//!   **while holding the mutex every publish takes**, so a publish is
//!   either seen by that scan or finds the worker already waiting — a
//!   wake-up cannot be lost, and nothing in this file has a timeout;
//! * dropping the pool sets the flag under the same mutex, wakes
//!   everyone and joins every worker — no thread outlives the pool.
//!
//! `run_batch(slots, body)` runs `body(0)` … `body(slots - 1)`, each
//! exactly once, and returns when all have finished. Slot `0` always
//! runs on the *calling* thread (with zero background workers a batch
//! is fully inline), and the caller then claims its own batch's
//! remaining slots like any worker before it waits, so a batch cannot
//! deadlock on workers that are busy elsewhere: every slot it waits for
//! is already running.
//!
//! The body is a plain `&dyn Fn(usize)` borrowing the caller's stack,
//! like a scoped thread body. Handing that borrow to long-lived workers
//! is sound because of one invariant, enforced by a drop guard: **a
//! body is called only after a successful claim, and `run_batch` does
//! not return (or unwind) while a claimed slot is unfinished.** A
//! panicking slot does not take the pool down: the payload is caught
//! where the slot ran and re-thrown on the submitter once the batch has
//! drained; later submissions run normally (`tests/pool_props.rs`).

use crate::metrics::{metrics_enabled, monotonic_now, Counter, PoolMetrics};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// A persistent pool of search-executor workers. See the module docs
/// for the topology and the batch protocol.
pub struct ExecutorPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

/// Everything a worker looks at before it parks.
struct Monitor {
    /// Oldest first; a batch is pushed and removed by its submitter.
    open: VecDeque<Arc<Batch>>,
    shutdown: bool,
}

struct PoolShared {
    monitor: Mutex<Monitor>,
    /// Paired with `monitor`; notified by every publish and shutdown.
    work_ready: Condvar,
    /// Counters and the idle gauge update unconditionally (relaxed
    /// RMWs); the busy/idle clocks are read only while
    /// [`metrics_enabled`] — the knob the overhead-guard test flips.
    metrics: PoolMetrics,
}

/// Completion state of one `run_batch` call.
struct BatchDone {
    /// Slots `1..slots` not yet finished (slot 0 is a plain call).
    pending: usize,
    /// First panic payload caught in a claimed slot, if any.
    panic: Option<Box<dyn Any + Send>>,
}

/// One `run_batch` call, shared by its submitter and the workers.
struct Batch {
    /// Lifetime erased; see `SAFETY` in [`ExecutorPool::run_batch`].
    body: &'static (dyn Fn(usize) + Sync),
    slots: usize,
    /// The next unclaimed slot; a slot belongs to the thread whose
    /// `fetch_add` returned it. `Relaxed`: the cursor publishes nothing
    /// (captures reach a worker through the monitor mutex, a slot's
    /// effects reach the submitter through `done`).
    next: AtomicUsize,
    done: Mutex<BatchDone>,
    done_cond: Condvar,
}

impl Batch {
    /// Claims and runs slots until none is left unclaimed, then reports
    /// the ones this thread ran as finished. Returns how many it ran.
    fn run_claimed(&self) -> usize {
        let mut ran = 0;
        loop {
            let slot = self.next.fetch_add(1, Ordering::Relaxed);
            if slot >= self.slots {
                break;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.body)(slot))) {
                // First panic wins; it is re-thrown by the submitter.
                self.done.lock().panic.get_or_insert(payload);
            }
            ran += 1;
        }
        if ran > 0 {
            let mut done = self.done.lock();
            done.pending -= ran;
            if done.pending == 0 {
                self.done_cond.notify_all();
            }
        }
        ran
    }
}

impl ExecutorPool {
    /// A pool with `background_workers` long-lived worker threads.
    ///
    /// Zero is allowed: every batch then runs inline on the submitting
    /// thread, which is exactly the right degenerate form for
    /// single-threaded specs and keeps them trivially deterministic.
    #[expect(
        clippy::disallowed_methods,
        clippy::expect_used,
        reason = "one of the two sanctioned spawn sites; the OS refusing a thread at pool construction is unrecoverable, so it fails fast before any work is accepted"
    )]
    pub fn new(background_workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            monitor: Mutex::new(Monitor {
                open: VecDeque::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            metrics: PoolMetrics::new(background_workers),
        });
        let workers = (0..background_workers)
            .map(|idx| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("nmcs-exec-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("spawn executor pool worker")
            })
            .collect();
        ExecutorPool { shared, workers }
    }

    /// Number of background workers (the submitting thread adds one more
    /// to every batch, so peak parallelism is `background_workers() + 1`).
    pub fn background_workers(&self) -> usize {
        self.workers.len()
    }

    /// This pool's metrics registry: park/wakeup/steal/batch counters,
    /// the idle-workers gauge, and per-worker busy/idle clocks. All
    /// reads are atomics.
    pub fn metrics(&self) -> &PoolMetrics {
        &self.shared.metrics
    }

    /// The process-wide shared pool the in-core parallel executors run
    /// on, sized to the machine (`available_parallelism − 1` background
    /// workers; the submitting search thread is the `+ 1`). Created on
    /// first use and kept for the life of the process, so every search
    /// — including every replica inside the engine — reuses the same
    /// warm workers instead of spawning per run (or worse, per step).
    ///
    /// Floored at one background worker even on a single-core machine:
    /// multi-slot batches then still execute across two real threads, so
    /// the concurrency machinery (virtual loss, shared meters, slot
    /// claiming) is exercised everywhere instead of silently
    /// degenerating to inline execution on small boxes.
    pub fn shared() -> &'static ExecutorPool {
        static SHARED: OnceLock<ExecutorPool> = OnceLock::new();
        SHARED.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4);
            ExecutorPool::new(cores.saturating_sub(1).max(1))
        })
    }

    /// Runs `body(0) … body(slots - 1)`, each exactly once, across the
    /// calling thread (slot 0, then whatever it claims) and the pool's
    /// workers, returning when every slot has finished. If any slot
    /// panicked, the first payload is re-thrown here — after the batch
    /// has fully drained, so the pool stays usable and later submissions
    /// are unaffected.
    pub fn run_batch(&self, slots: usize, body: &(dyn Fn(usize) + Sync)) {
        assert!(slots >= 1, "a batch needs at least one slot");
        self.shared.metrics.batches.incr();
        self.shared.metrics.batch_slots.add(slots as u64);
        if slots == 1 {
            body(0); // nothing to dispatch; panics propagate naturally
            return;
        }

        // SAFETY: the erased borrow is never used after this call.
        // `Batch::body` is called only in `run_claimed`, after a
        // `fetch_add` on `next` returned a slot below `slots` (a
        // successful claim), and a claimed slot leaves `pending` only
        // once its body has returned or its panic was caught. The
        // `BatchGuard` below — dropped on return *and* on unwinding out
        // of `body(0)` — first claims every slot still unclaimed, so no
        // later claim can succeed, then blocks until `pending` is zero,
        // so every claim that did succeed has finished. A worker still
        // holding the `Arc<Batch>` can only fail a claim and drop it.
        let body_static: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(body) };
        let batch = Arc::new(Batch {
            body: body_static,
            slots,
            next: AtomicUsize::new(1),
            done: Mutex::new(BatchDone {
                pending: slots - 1,
                panic: None,
            }),
            done_cond: Condvar::new(),
        });

        self.shared.monitor.lock().open.push_back(batch.clone());
        self.shared.metrics.wakeups.incr();
        self.shared.work_ready.notify_all();

        let guard = BatchGuard {
            batch: &batch,
            shared: &self.shared,
        };
        body(0);
        drop(guard); // claims what is left, then waits for the rest
        let panic = batch.done.lock().panic.take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for ExecutorPool {
    fn drop(&mut self) {
        // `run_batch` borrows the pool, so no batch is in flight. The
        // flag is set under the monitor mutex: a worker either has yet
        // to scan (and sees it) or is waiting (and gets the notify).
        self.shared.monitor.lock().shutdown = true;
        self.shared.metrics.wakeups.incr();
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Claims every slot nobody has claimed yet (help-first: the submitter
/// works instead of idling), takes the batch off the open queue, and
/// blocks until the slots other threads claimed have finished. In `Drop`
/// so that it also runs when slot 0 unwinds — the soundness lynchpin of
/// the lifetime erasure.
struct BatchGuard<'a> {
    batch: &'a Arc<Batch>,
    shared: &'a PoolShared,
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        self.batch.run_claimed();
        let mut monitor = self.shared.monitor.lock();
        monitor.open.retain(|b| !Arc::ptr_eq(b, self.batch));
        drop(monitor);
        let mut done = self.batch.done.lock();
        while done.pending > 0 {
            // Completion is notified under the `done` mutex itself, so
            // this wait cannot lose a wake-up.
            self.batch.done_cond.wait(&mut done);
        }
    }
}

/// Runs `f`, charging its wall time to `clock` while metrics are enabled
/// (the clock reads are the only conditional part — `f` always runs).
fn timed<R>(clock: &Counter, f: impl FnOnce() -> R) -> R {
    let t0 = metrics_enabled().then(monotonic_now);
    let out = f();
    if let Some(t0) = t0 {
        let ns = monotonic_now().duration_since(t0).as_nanos();
        clock.add(u64::try_from(ns).unwrap_or(u64::MAX));
    }
    out
}

fn worker_loop(shared: &PoolShared, idx: usize) {
    let clock = shared.metrics.worker(idx);
    let mut monitor = shared.monitor.lock();
    loop {
        // Oldest first; an exhausted batch its submitter has not yet
        // removed is skipped, so a worker never spins on it.
        let batch = monitor
            .open
            .iter()
            .find(|b| b.next.load(Ordering::Relaxed) < b.slots)
            .cloned();
        if let Some(batch) = batch {
            drop(monitor);
            let ran = timed(&clock.busy_ns, || batch.run_claimed());
            shared.metrics.steals.add(ran as u64);
            monitor = shared.monitor.lock();
            continue;
        }
        if monitor.shutdown {
            return;
        }
        // Park. The scan above ran under the mutex held here, and every
        // publish pushes under it before notifying.
        shared.metrics.parks.incr();
        shared.metrics.idle_workers.add(1);
        timed(&clock.idle_ns, || shared.work_ready.wait(&mut monitor));
        shared.metrics.idle_workers.add(-1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize};

    #[test]
    fn every_slot_runs_exactly_once() {
        let pool = ExecutorPool::new(3);
        for slots in [1usize, 2, 3, 7, 32] {
            let counts: Vec<AtomicUsize> = (0..slots).map(|_| AtomicUsize::new(0)).collect();
            pool.run_batch(slots, &|slot| {
                counts[slot].fetch_add(1, Ordering::Relaxed);
            });
            for (slot, count) in counts.iter().enumerate() {
                assert_eq!(count.load(Ordering::Relaxed), 1, "slot {slot} of {slots}");
            }
        }
    }

    #[test]
    fn zero_worker_pool_runs_batches_inline() {
        let pool = ExecutorPool::new(0);
        let ran = AtomicUsize::new(0);
        pool.run_batch(5, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 5);
        assert_eq!(pool.background_workers(), 0);
    }

    #[test]
    fn batches_borrow_the_callers_stack() {
        let pool = ExecutorPool::new(2);
        let data: Vec<u64> = (0..100).collect();
        let sum = AtomicU64::new(0);
        pool.run_batch(4, &|slot| {
            let part: u64 = data.iter().skip(slot).step_by(4).sum();
            sum.fetch_add(part, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn worker_panic_is_rethrown_on_the_submitter() {
        let pool = ExecutorPool::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.run_batch(4, &|slot| {
                if slot == 2 {
                    panic!("slot 2 exploded");
                }
            });
        }));
        assert!(err.is_err(), "the slot panic must surface to the caller");
        // The pool survives: the next batch runs normally.
        let ran = AtomicUsize::new(0);
        pool.run_batch(4, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = ExecutorPool::new(4);
        let ran = AtomicUsize::new(0);
        pool.run_batch(16, &|_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        drop(pool); // must not hang or leave threads behind
        assert_eq!(ran.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn shared_pool_is_a_singleton() {
        let a = ExecutorPool::shared() as *const _;
        let b = ExecutorPool::shared() as *const _;
        assert_eq!(a, b);
    }

    #[test]
    fn wakeups_do_not_depend_on_the_park_timeout_net() {
        // There is no park timeout any more: workers re-park between
        // these batches, so a publish or the final shutdown that failed
        // to wake one would hang this test rather than cost it 50 ms.
        let pool = ExecutorPool::new(3);
        let ran = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run_batch(4, &|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(ran.load(Ordering::Relaxed), 400);
        drop(pool);
    }
}
