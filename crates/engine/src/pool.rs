//! The engine's workers and per-task execution.
//!
//! One queue, pull-when-free — the paper's Last-Minute rule: every
//! admitted replica sits in the one bounded FIFO ([`BoundedQueue`])
//! until a worker *reports free* by popping it, oldest first. Workers
//! block on the queue's condvar while it is empty and exit when it is
//! closed and drained, so long searches never convoy (nothing is ever
//! parked behind a busy worker), the capacity bound is exact, and an
//! idle engine burns no CPU.
//!
//! Task execution goes through the unified search API: each replica
//! builds a [`SearchSpec`] (the job's algorithm and budget with the
//! replica's planned seed and memory policy) and runs it on the erased
//! game with the job's [`nmcs_core::CancelToken`]. Cancellation is
//! therefore cooperative *inside* the search loops — no game wrapper,
//! no truncated-invariant panics — and budget-interrupted replicas
//! return valid best-so-far results.
//!
//! A queue here, a pool there: whole *replicas* are long `'static`
//! tasks under bounded admission and backpressure, which is what a FIFO
//! is for; a replica running a parallel strategy delegates its
//! *in-search* fan-out — per-step leaf batches, median games,
//! tree-parallel workers: borrowed fork-join batches of µs tasks — to
//! the process-wide `nmcs_core::ExecutorPool`, whose workers stay warm
//! across every replica and every job. Neither ever blocks the other: executor batches are
//! help-first (the submitting replica thread works too), so an engine
//! fully busy with replicas still makes progress on each.

use crate::handle::{JobCore, ReplicaOutcome};
use crate::job::{Algorithm, ReplicaResult};
use crate::queue::BoundedQueue;
use nmcs_core::metrics::{metrics_enabled, DeadLetter, DeadLetterQueue, Histogram, TagHistograms};
use nmcs_core::{Interruption, Searcher};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// One schedulable unit: a single replica of a job.
pub(crate) struct Task {
    pub job: Arc<JobCore>,
    pub replica: usize,
}

/// Engine-wide counters (all monotonic except `queue_depth`).
#[derive(Default)]
pub(crate) struct Metrics {
    pub submitted_jobs: AtomicU64,
    pub completed_jobs: AtomicU64,
    pub cancelled_jobs: AtomicU64,
    pub failed_jobs: AtomicU64,
    pub executed_tasks: AtomicU64,
    pub skipped_tasks: AtomicU64,
    pub total_work_units: AtomicU64,
    pub rejected_submissions: AtomicU64,
}

/// How many dead letters the engine retains (oldest evicted first).
const DLQ_CAPACITY: usize = 64;

/// The engine's observability registry: latency histograms, per-key
/// tables, the dead-letter record, and the live-job list the stall
/// scan walks. Histograms/tables are pure atomics; the DLQ and job
/// list take a mutex only at replica completion / a job's first pickup,
/// on a worker — never on a search path and never in `submit`.
pub(crate) struct Registry {
    /// Submission → first replica pickup, per job.
    pub queue_wait: Histogram,
    /// Wall time of each executed replica search.
    pub run_time: Histogram,
    /// Replica run time keyed by tenant (job name).
    pub tenants: TagHistograms,
    /// Replica run time keyed by game domain.
    pub domains: TagHistograms,
    /// Panicked / cancelled / budget-tripped replicas.
    pub dlq: DeadLetterQueue,
    /// Weak refs to every job a worker has picked up (only a running
    /// job can stall); pruned by the stall scan.
    pub jobs: Mutex<Vec<Weak<JobCore>>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            queue_wait: Histogram::new(),
            run_time: Histogram::new(),
            tenants: TagHistograms::new(),
            domains: TagHistograms::new(),
            dlq: DeadLetterQueue::new(DLQ_CAPACITY),
            jobs: Mutex::new(Vec::new()),
        }
    }
}

impl Registry {
    /// Registers a job at its first pickup for the stall scan, pruning
    /// dead entries opportunistically so the list stays O(live jobs).
    pub fn track(&self, job: &Arc<JobCore>) {
        let mut jobs = self.jobs.lock();
        jobs.retain(|w| w.strong_count() > 0);
        jobs.push(Arc::downgrade(job));
    }
}

pub(crate) struct PoolShared {
    pub queue: BoundedQueue<Task>,
    pub metrics: Metrics,
    pub registry: Registry,
}

impl PoolShared {
    pub fn new(queue_capacity: usize) -> Arc<Self> {
        Arc::new(PoolShared {
            queue: BoundedQueue::new(queue_capacity),
            metrics: Metrics::default(),
            registry: Registry::default(),
        })
    }
}

/// Spawns the worker threads. They exit once the queue is closed *and*
/// drained.
///
/// Degrades gracefully when the OS refuses a thread: the workers spawned
/// so far are shut down and joined, and the error surfaces to the caller
/// ([`crate::Engine::start`] maps it to [`crate::EngineError`]) instead
/// of aborting mid-construction with a panic.
#[expect(
    clippy::disallowed_methods,
    reason = "the engine's worker pool is one of the two sanctioned spawn sites"
)]
pub(crate) fn spawn_workers(
    shared: &Arc<PoolShared>,
    workers: usize,
) -> std::io::Result<Vec<std::thread::JoinHandle<()>>> {
    let mut handles = Vec::with_capacity(workers);
    for idx in 0..workers {
        let worker_shared = shared.clone();
        match std::thread::Builder::new()
            .name(format!("nmcs-engine-worker-{idx}"))
            .spawn(move || worker_loop(&worker_shared))
        {
            Ok(handle) => handles.push(handle),
            Err(e) => {
                shared.queue.close();
                for handle in handles {
                    let _ = handle.join();
                }
                return Err(e);
            }
        }
    }
    Ok(handles)
}

fn worker_loop(shared: &PoolShared) {
    while let Some(task) = shared.queue.pop() {
        run_task(shared, task);
    }
}

fn run_task(shared: &PoolShared, task: Task) {
    let job = task.job;
    let plan = job.plans[task.replica];

    if job.is_cancelled() {
        shared.metrics.skipped_tasks.fetch_add(1, Ordering::Relaxed);
        dead_letter(shared, &job, task.replica, "cancelled");
        release_session(&job);
        job.record_replica(task.replica, ReplicaOutcome::Skipped, &shared.metrics);
        return;
    }

    if job.mark_running() {
        // First pickup: from now on the job can stall, and its whole
        // queue wait is known (recorded once).
        shared.registry.track(&job);
        if metrics_enabled() {
            shared
                .registry
                .queue_wait
                .record_duration(job.submitted_at.elapsed());
        }
    }

    // The search is fenced with catch_unwind so a buggy game
    // implementation cannot take the worker thread (and with it the
    // whole engine) down. Cancellation no longer relies on unwinding:
    // the cancel token is polled cooperatively inside every search loop.
    let result = match &job.session {
        // Session-scoped job: advance the warm session one committed
        // move. The slot lock is uncontended — `step_inflight`
        // serialises submissions — and the poller caches refresh while
        // it is still held, so `SessionInfo` never waits on a search.
        Some(entry) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut slot = entry.slot.lock();
            let report = slot.step(Some(job.cancel_token()));
            entry.refresh_caches(&slot);
            report
        })),
        None => {
            // The replica's unified spec: job algorithm (with the
            // plan's memory policy substituted for diversified NMCS
            // replicas) + job budget + plan seed.
            let mut spec = job.spec.search_spec();
            spec.seed = plan.seed;
            if let (Algorithm::Nested { config, .. }, Some(policy)) =
                (&mut spec.algorithm, plan.memory_policy)
            {
                config.memory = policy;
            }
            let game = job.spec.game.clone();
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                spec.search(&game, Some(job.cancel_token()))
            }))
        }
    };
    release_session(&job);

    let outcome = match result {
        // A search that raced with cancellation returned a truncated
        // best-so-far result; discard it so cancelled jobs never report
        // partial scores as if they were complete.
        _ if job.is_cancelled() => {
            shared.metrics.skipped_tasks.fetch_add(1, Ordering::Relaxed);
            dead_letter(shared, &job, task.replica, "cancelled");
            ReplicaOutcome::Skipped
        }
        Ok(report) => {
            shared
                .metrics
                .executed_tasks
                .fetch_add(1, Ordering::Relaxed);
            shared
                .metrics
                .total_work_units
                .fetch_add(report.stats.work_units, Ordering::Relaxed);
            let elapsed = report.elapsed;
            let interrupted = report.interrupted;
            if metrics_enabled() {
                let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
                shared.registry.run_time.record(ns);
                shared.registry.tenants.record_label(&job.spec.name, ns);
                shared
                    .registry
                    .domains
                    .record_label(job.spec.game.domain(), ns);
            }
            if let Some(why) = interrupted {
                let reason = match why {
                    Interruption::Deadline => "deadline",
                    Interruption::PlayoutBudget => "playouts",
                    Interruption::NodeBudget => "nodes",
                    Interruption::Cancelled => "cancelled",
                };
                dead_letter(shared, &job, task.replica, reason);
            }
            ReplicaOutcome::Finished(ReplicaResult {
                replica: task.replica,
                // The session path steps with a per-step derived seed
                // (`session_step_seed`); the report carries whichever
                // seed the search actually drew from.
                seed_used: report.seed,
                memory_policy: plan.memory_policy,
                result: report.into_result(),
                interrupted,
                elapsed,
            })
        }
        Err(_panic) => {
            dead_letter(shared, &job, task.replica, "panicked");
            ReplicaOutcome::Panicked
        }
    };
    job.record_replica(task.replica, outcome, &shared.metrics);
}

/// Clears a session job's in-flight flag and stamps its touch time, so
/// the session is immediately steppable again (and TTL-fresh) whether
/// the step ran, was skipped, or panicked.
fn release_session(job: &Arc<JobCore>) {
    if let Some(entry) = &job.session {
        entry.touch();
        entry.step_inflight.store(false, Ordering::Release);
    }
}

/// Appends a bounded dead-letter record for a replica that panicked,
/// was cancelled, or tripped a budget. Runs after the search returned,
/// so the one short lock inside the DLQ never sits on a rollout path.
fn dead_letter(shared: &PoolShared, job: &Arc<JobCore>, replica: usize, reason: &str) {
    if !metrics_enabled() {
        return;
    }
    shared.registry.dlq.push(DeadLetter {
        job: job.id,
        replica: replica as u64,
        name: job.spec.name.clone(),
        reason: reason.to_string(),
        age_ms: u64::try_from(job.submitted_at.elapsed().as_millis()).unwrap_or(u64::MAX),
    });
}
