//! Property tests of the persistent executor pool
//! (`nmcs_core::exec::pool::ExecutorPool`) — the concurrency claims the
//! pool-backed executors rest on:
//!
//! * every batch drains and the pool joins cleanly on drop, under a
//!   watchdog so a hang fails the test instead of wedging the suite;
//! * a panicking task surfaces on the submitter without poisoning the
//!   pool — later submissions (including from other threads) run
//!   normally;
//! * every slot of every batch runs exactly once under nesting and
//!   concurrent submitters, on pools with and without workers. The pool
//!   has no timeout anywhere, so a lost wake-up is a hang: the watchdog
//!   *is* the assertion;
//! * budget- and cancel-interrupted runs of the pool-backed backends
//!   return promptly with a best-so-far line that replays to its score.
//!
//! Worker-count-sensitive assertions honour `NMCS_TEST_WORKERS` so CI
//! exercises them at both 1 and 4 workers (see `.github/workflows`).

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the test races, times and watchdogs the pool with std threads and locks of its own"
)]

mod common;

use common::test_workers;
use pnmcs::games::SameGame;
use pnmcs::search::exec::pool::ExecutorPool;
use pnmcs::search::{Budget, CancelToken, Game, Interruption, SearchReport, SearchSpec};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Runs `f` on a helper thread and fails loudly if it does not finish
/// within `timeout` — the watchdog that turns a pool hang (lost wakeup,
/// missed shutdown, deadlocked batch) into a test failure.
fn with_watchdog<F>(label: &str, timeout: Duration, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    match rx.recv_timeout(timeout) {
        Ok(()) => worker.join().expect("watchdogged body panicked"),
        Err(_) => panic!("{label}: pool hung past {timeout:?}"),
    }
}

/// Runs a `slots`-wide batch whose every slot submits a smaller batch of
/// its own, `depth` levels down, and checks after each `run_batch`
/// returns that every slot of that batch ran exactly once. A failed
/// check inside a slot is a panic the pool carries up to the caller.
fn run_nested(pool: &ExecutorPool, slots: usize, depth: usize) {
    let counts: Vec<AtomicUsize> = (0..slots).map(|_| AtomicUsize::new(0)).collect();
    pool.run_batch(slots, &|slot| {
        counts[slot].fetch_add(1, Ordering::Relaxed);
        if depth > 0 {
            run_nested(pool, 1 + (slot + depth) % 4, depth - 1);
        }
    });
    for (slot, count) in counts.iter().enumerate() {
        let ran = count.load(Ordering::Relaxed);
        assert_eq!(ran, 1, "slot {slot} of {slots} at depth {depth}");
    }
}

/// `submitters` threads each drive [`run_nested`] on one shared pool,
/// then the pool is dropped.
fn hammer_nested(workers: usize, submitters: usize, slots: usize, depth: usize) {
    let pool = ExecutorPool::new(workers);
    std::thread::scope(|scope| {
        for _ in 0..submitters {
            scope.spawn(|| run_nested(&pool, slots, depth));
        }
    });
}

/// Returns once every worker of `pool` is parked. The gauge moves under
/// the monitor mutex that a publish or the drop has to take next, so
/// whoever was counted is inside its wait by the time either happens.
fn wait_until_parked(pool: &ExecutorPool) {
    while pool.metrics().idle_workers.get() < pool.background_workers() as i64 {
        std::thread::yield_now();
    }
}

/// A one-shot latch: `wait` blocks until some thread has called `open`.
#[derive(Default)]
struct Gate(Mutex<bool>, Condvar);

impl Gate {
    fn open(&self) {
        *self.0.lock().expect("gate") = true;
        self.1.notify_all();
    }

    fn wait(&self) {
        let mut open = self.0.lock().expect("gate");
        while !*open {
            open = self.1.wait(open).expect("gate");
        }
    }
}

fn assert_replays<G: Game>(game: &G, report: &SearchReport<G::Move>, label: &str) {
    let mut replay = game.clone();
    for mv in &report.sequence {
        replay.play(mv);
    }
    assert_eq!(
        replay.score(),
        report.score,
        "{label}: interrupted best-so-far must replay to its score"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Drop joins every worker with all submitted batches fully drained,
    /// for arbitrary worker counts, batch shapes, and batch counts.
    #[test]
    fn pool_drains_and_joins_on_drop(
        workers in 0usize..5,
        slots in 1usize..9,
        batches in 1usize..6,
    ) {
        with_watchdog("drain-on-drop", Duration::from_secs(30), move || {
            let pool = ExecutorPool::new(workers);
            let ran = Arc::new(AtomicUsize::new(0));
            for _ in 0..batches {
                let ran = ran.clone();
                pool.run_batch(slots, &|_| {
                    // A sliver of real work so slots interleave.
                    std::hint::black_box((0..100).sum::<u64>());
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
            drop(pool);
            assert_eq!(ran.load(Ordering::Relaxed), slots * batches);
        });
    }

    /// A panicking slot surfaces on the submitter, and the pool keeps
    /// serving: the same pool then runs clean batches — sequentially and
    /// from several submitting threads at once — to completion.
    #[test]
    fn panicking_task_does_not_poison_later_submissions(
        workers in 1usize..5,
        bad_slot in 0usize..6,
    ) {
        with_watchdog("panic-containment", Duration::from_secs(30), move || {
            let pool = Arc::new(ExecutorPool::new(workers));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.run_batch(6, &|slot| {
                    if slot == bad_slot {
                        panic!("injected slot failure");
                    }
                });
            }));
            assert!(outcome.is_err(), "the injected panic must surface");

            // Sequential follow-up batch.
            let ran = AtomicUsize::new(0);
            pool.run_batch(6, &|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(ran.load(Ordering::Relaxed), 6);

            // Concurrent submitters sharing the damaged-then-healed pool.
            let total = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let pool = pool.clone();
                    let total = total.clone();
                    std::thread::spawn(move || {
                        pool.run_batch(4, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("submitter thread");
            }
            assert_eq!(total.load(Ordering::Relaxed), 12);
        });
    }

    /// Exactly-once under arbitrary pool width, concurrent submitters,
    /// batch size and nesting depth — including `workers = 0`, where
    /// every nested batch must drain on its own submitter.
    #[test]
    fn nested_concurrent_batches_run_every_slot_exactly_once(
        workers in 0usize..4,
        submitters in 1usize..5,
        slots in 1usize..41,
        depth in 0usize..3,
    ) {
        with_watchdog("nested exactly-once", Duration::from_secs(60), move || {
            hammer_nested(workers, submitters, slots, depth);
        });
    }

    /// Budget-interrupted pool-backed runs return promptly and their
    /// best-so-far line replays to the reported score, at the CI worker
    /// count, across every pool-backed backend; tree-parallel's also
    /// repeats exactly.
    #[test]
    fn budget_cancelled_pool_runs_return_promptly_with_replayable_best(seed in 0u64..500) {
        let workers = test_workers();
        let game = SameGame::random(7, 7, 3, seed);
        let specs = [
            SearchSpec::leaf(1, 4, workers).seed(seed).build(),
            SearchSpec::root_parallel(2, workers).seed(seed).build(),
            SearchSpec::tree_parallel(workers).seed(seed).build(),
        ];
        for spec in specs {
            let label = spec.algorithm.label();

            // (a) a playout budget trips mid-run.
            let mut budgeted = spec.clone();
            budgeted.budget = Budget::none().with_max_playouts(30);
            let t0 = Instant::now();
            let report = budgeted.run(&game);
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "{label}: budgeted run took {:?}",
                t0.elapsed()
            );
            assert_replays(&game, &report, label);
            if label == "tree-parallel" {
                // Its waves stop at the same lane on every run; the
                // leaf and root slots race to the cap.
                let again = budgeted.run(&game);
                assert_eq!(
                    (again.score, &again.sequence, again.stats, again.interrupted),
                    (report.score, &report.sequence, report.stats, report.interrupted),
                    "{label}: a hit playout budget repeats"
                );
            }

            // (b) a pre-cancelled token stops it before real work.
            let token = CancelToken::new();
            token.cancel();
            let t0 = Instant::now();
            let report = spec.run_cancellable(&game, &token);
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "{label}: pre-cancelled run took {:?}",
                t0.elapsed()
            );
            assert_eq!(report.interrupted, Some(Interruption::Cancelled), "{label}");
            assert_replays(&game, &report, label);
        }
    }
}

/// Mid-flight cancellation from another thread unblocks a pool-backed
/// search promptly — the pool must propagate the shared meter trip to
/// every slot, not just the one that observes the token first.
#[test]
fn mid_flight_cancellation_unblocks_pool_backed_searches() {
    let workers = test_workers();
    let game = SameGame::random(10, 10, 4, 21);
    for spec in [
        SearchSpec::leaf(2, 8, workers).seed(5).build(),
        SearchSpec::tree_parallel_with(
            pnmcs::search::UctConfig {
                iterations: 5_000_000,
                ..Default::default()
            },
            workers,
        )
        .seed(5)
        .build(),
    ] {
        let label = spec.algorithm.label();
        let token = CancelToken::new();
        let (report, latency) = std::thread::scope(|scope| {
            let handle = {
                let token = token.clone();
                let game = &game;
                let spec = &spec;
                scope.spawn(move || spec.run_cancellable(game, &token))
            };
            std::thread::sleep(Duration::from_millis(30));
            let t0 = Instant::now();
            token.cancel();
            let report = handle.join().expect("search thread");
            (report, t0.elapsed())
        });
        assert_eq!(report.interrupted, Some(Interruption::Cancelled), "{label}");
        assert!(
            latency < Duration::from_secs(5),
            "{label}: cancellation latency {latency:?}"
        );
        assert_replays(&game, &report, label);
    }
}

/// One submitter with far more slots than workers: every slot runs
/// exactly once whichever thread claims it (the steal counter is allowed
/// to be anything — scheduling decides — but nothing may be lost or
/// doubled).
#[test]
fn oversubscribed_batches_complete_every_slot_exactly_once() {
    with_watchdog("oversubscription", Duration::from_secs(30), || {
        let pool = ExecutorPool::new(2);
        for _ in 0..10 {
            run_nested(&pool, 32, 0);
        }
    });
}

/// Concurrent submitters race the workers toward their parks, 200
/// batches over, and the drop then has to wake whoever is parked. The
/// pool has no timeout to fall back on, so any lost wake-up — at a
/// publish or at shutdown — hangs here and trips the watchdog.
#[test]
fn wakeup_generation_makes_the_park_timeout_net_redundant() {
    with_watchdog(
        "concurrent-submitter hammer",
        Duration::from_secs(60),
        || {
            let pool = Arc::new(ExecutorPool::new(3));
            let total = Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let pool = pool.clone();
                    let total = total.clone();
                    std::thread::spawn(move || {
                        for _ in 0..50 {
                            pool.run_batch(4, &|_| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("submitter thread");
            }
            assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 4);
            drop(Arc::try_unwrap(pool).ok().expect("sole owner"));
        },
    );
}

/// Three levels of `run_batch` from inside slots, four submitter threads
/// at once, on a pool with no workers, one worker and three: no width
/// may deadlock (the submitter of each batch can always finish it alone)
/// and every slot of every batch runs exactly once.
#[test]
fn three_deep_nested_batches_from_four_submitters_run_exactly_once() {
    for workers in [0, 1, 3] {
        with_watchdog("three-deep nesting", Duration::from_secs(60), move || {
            hammer_nested(workers, 4, 6, 3);
        });
    }
}

/// A panic is re-thrown on the submitter exactly once and only after the
/// batch has drained, whichever thread claimed the slot that panicked,
/// and the pool then runs the next batch. The claiming thread is forced,
/// not hoped for: in the worker case slot 0 holds the submitter until a
/// worker has claimed the bad slot; in the submitter case every slot a
/// worker claims waits until the submitter is inside the bad one.
#[test]
fn submitter_and_worker_claimed_panics_are_each_rethrown_once_after_the_drain() {
    const SLOTS: usize = 8;
    for on_worker in [true, false] {
        with_watchdog("claimed-slot panic", Duration::from_secs(30), move || {
            let pool = ExecutorPool::new(2);
            // Parked first: the worker case then also proves that a
            // publish wakes them (slot 0 waits for a worker forever
            // otherwise).
            wait_until_parked(&pool);
            let submitter = std::thread::current().id();
            let gate = Gate::default();
            let thrown = AtomicBool::new(false);
            let ran = AtomicUsize::new(0);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pool.run_batch(SLOTS, &|slot| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    let here_is_worker = std::thread::current().id() != submitter;
                    if slot > 0 && here_is_worker == on_worker {
                        if !thrown.swap(true, Ordering::Relaxed) {
                            gate.open();
                            panic!("injected into slot {slot}");
                        }
                    } else if here_is_worker != on_worker {
                        gate.wait();
                    }
                });
            }));
            let payload = outcome.expect_err("the injected panic must surface");
            let message = payload.downcast_ref::<String>().expect("panic message");
            assert!(message.starts_with("injected into slot"), "{message}");
            assert_eq!(ran.load(Ordering::Relaxed), SLOTS, "batch drained first");

            let again = AtomicUsize::new(0);
            pool.run_batch(SLOTS, &|_| {
                again.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(again.load(Ordering::Relaxed), SLOTS);
        });
    }
}

/// Dropping a pool whose workers are all parked wakes and joins them.
#[test]
fn drop_of_a_parked_pool_returns_promptly() {
    with_watchdog("drop while parked", Duration::from_secs(10), || {
        let pool = ExecutorPool::new(3);
        pool.run_batch(8, &|_| {});
        wait_until_parked(&pool);
        drop(pool);
    });
}
