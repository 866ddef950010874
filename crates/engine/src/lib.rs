//! # nmcs-engine — a concurrent multi-tenant search service
//!
//! The paper's cluster NMCS answers *one* search as fast as a cluster
//! allows. This crate answers *many*: a long-running [`Engine`] accepts
//! heterogeneous search jobs — any game (via the object-safe
//! [`nmcs_core::DynGame`] erasure) × any strategy of the unified search
//! API ([`Algorithm`] *is* [`nmcs_core::AlgorithmSpec`]) — on one bounded
//! FIFO of replica tasks that its worker threads pull from when free
//! (the paper's Last-Minute rule). A job is "a [`nmcs_core::SearchSpec`]
//! applied to an erased game" ([`JobSpec::from_spec`]), so algorithm,
//! tunables, budget, and seed travel as one serde-able value.
//!
//! Properties the service layer guarantees:
//!
//! * **Determinism** — a job runs the seed it was given: its result is
//!   bit-identical to `spec.run(&game)` with the job's seed, however
//!   many identical jobs are in flight; ensemble replicas derive their
//!   seeds through [`nmcs_core::seeds`], the same scheme the cluster
//!   backends use (see [`scheduler`]). Submitting runs no game code.
//! * **Backpressure** — the queue is bounded; [`Engine::submit`] blocks
//!   when full, [`Engine::try_submit`] fails fast, and queued memory is
//!   bounded by exactly `queue_capacity` tasks: every admitted but
//!   unstarted replica is in the queue
//!   ([`EngineStats::peak_queue_depth`] is the witness).
//! * **Prompt cancellation** — [`JobHandle::cancel`] trips a
//!   [`nmcs_core::CancelToken`] polled inside every search loop at
//!   playout-move granularity, so even a deep NMCS returns within
//!   microseconds of the request.
//! * **Budgets** — [`JobSpec::with_budget`] bounds each replica by
//!   deadline / playout cap / node cap; budget-interrupted replicas
//!   keep their (replayable) best-so-far result, with the reason in
//!   [`ReplicaResult::interrupted`].
//! * **Streaming progress** — [`JobHandle::poll_progress`] returns
//!   monotone snapshots (replicas done, best-so-far score, work units).
//! * **Diversified ensembles** — the replicas of an ensemble job run
//!   distinct derived seeds, and [`JobSpec::with_policy_diversification`]
//!   opts odd NMCS replicas into the greedy memory policy.
//!
//! ## Example
//!
//! ```
//! use nmcs_engine::{Algorithm, Engine, EngineConfig, JobSpec};
//! use nmcs_games::SumGame;
//!
//! let engine = Engine::start(EngineConfig { workers: 2, queue_capacity: 16 }).unwrap();
//! let handle = engine
//!     .submit(JobSpec::new(
//!         "demo",
//!         SumGame::random(5, 3, 1),
//!         Algorithm::nested(1),
//!         2009,
//!     ))
//!     .unwrap();
//! let output = handle.join();
//! assert!(output.score().unwrap() > 0);
//! engine.shutdown();
//! ```

// A panic on a worker, queue or scheduler path takes a worker down.
#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod handle;
mod job;
mod pool;
mod queue;
pub mod scheduler;
pub mod session;

pub use handle::JobHandle;
pub use job::{Algorithm, JobId, JobOutput, JobSpec, JobState, Progress, ReplicaResult};
pub use scheduler::ReplicaPlan;
pub use session::{SessionError, SessionId, SessionInfo, SessionLimits, SessionStats};

use handle::JobCore;
use nmcs_core::metrics::{EngineSnapshot, HistogramSnapshot, MetricsSnapshot};
use nmcs_core::{CodedGame, DynGame, SearchSession, SearchSpec};
use pool::{spawn_workers, PoolShared, Task};
use queue::PushError;
use session::{SessionEntry, SessionTable};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Engine tunables.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (≥ 1).
    pub workers: usize,
    /// Capacity of the submission queue, counted in *replica tasks*.
    /// This bounds the engine's queued memory and is the backpressure
    /// threshold.
    pub queue_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map_or(4, |n| n.get())
                .min(8),
            queue_capacity: 256,
        }
    }
}

/// Why an engine failed to start.
#[derive(Debug)]
pub enum EngineError {
    /// The configuration cannot produce a working engine (`workers == 0`
    /// would build a pool that never runs a job; `queue_capacity == 0`
    /// would make every submission unadmittable). Validated up front so
    /// the failure is a typed error, not a queue assertion panic or a
    /// silent hang.
    InvalidConfig {
        /// Human-readable description of the rejected field.
        reason: &'static str,
    },
    /// The OS refused a worker thread; already-spawned workers were shut
    /// down and joined before this was returned.
    WorkerSpawn(std::io::Error),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidConfig { reason } => {
                write!(f, "invalid engine configuration: {reason}")
            }
            EngineError::WorkerSpawn(e) => write!(f, "failed to spawn engine worker: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::WorkerSpawn(e) => Some(e),
            EngineError::InvalidConfig { .. } => None,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// `try_submit` found fewer free queue slots than the job has
    /// replicas, or a blocking `submit` was given a job with more
    /// replicas than the queue's total capacity (nothing was admitted
    /// in either case).
    QueueFull { capacity: usize, requested: usize },
    /// The engine is shutting down.
    ShuttingDown,
    /// The job can never finish as specified (`replicas == 0` would
    /// enqueue nothing and leave its handle waiting forever). Nothing
    /// was admitted.
    InvalidJob {
        /// Human-readable description of the rejected field.
        reason: &'static str,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull {
                capacity,
                requested,
            } => write!(
                f,
                "submission queue full (capacity {capacity}, job needs {requested} slots)"
            ),
            SubmitError::ShuttingDown => f.write_str("engine is shutting down"),
            SubmitError::InvalidJob { reason } => write!(f, "invalid job: {reason}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A point-in-time snapshot of engine counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    pub workers: usize,
    pub queue_capacity: usize,
    pub queue_depth: usize,
    /// Highest queue depth ever observed (≤ `queue_capacity`, always).
    pub peak_queue_depth: usize,
    pub submitted_jobs: u64,
    pub completed_jobs: u64,
    pub cancelled_jobs: u64,
    /// Jobs that ended [`JobState::Failed`] because a replica panicked.
    pub failed_jobs: u64,
    pub executed_tasks: u64,
    /// Replica tasks skipped because their job was cancelled.
    pub skipped_tasks: u64,
    /// Search work units executed on behalf of completed replicas.
    pub total_work_units: u64,
    /// `try_submit` calls refused by backpressure.
    pub rejected_submissions: u64,
}

/// The multi-tenant search service. See the crate docs.
pub struct Engine {
    shared: Arc<PoolShared>,
    sessions: Arc<SessionTable>,
    next_id: AtomicU64,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Engine {
    /// Starts the worker pool.
    ///
    /// Validates the configuration first — `workers: 0` (a pool that can
    /// never run a job) and `queue_capacity: 0` (a queue that can never
    /// admit one) return [`EngineError::InvalidConfig`] instead of
    /// panicking or hanging — and degrades gracefully if the OS refuses
    /// a worker thread ([`EngineError::WorkerSpawn`]).
    pub fn start(config: EngineConfig) -> Result<Self, EngineError> {
        if config.workers == 0 {
            return Err(EngineError::InvalidConfig {
                reason: "workers must be >= 1",
            });
        }
        if config.queue_capacity == 0 {
            return Err(EngineError::InvalidConfig {
                reason: "queue_capacity must be >= 1",
            });
        }
        let shared = PoolShared::new(config.queue_capacity);
        let workers = spawn_workers(&shared, config.workers).map_err(EngineError::WorkerSpawn)?;
        Ok(Engine {
            shared,
            sessions: Arc::new(SessionTable::new()),
            next_id: AtomicU64::new(1),
            workers,
        })
    }

    fn admit(
        &self,
        spec: JobSpec,
        session: Option<Arc<SessionEntry>>,
    ) -> (Arc<JobCore>, Vec<Task>) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let plans = scheduler::plan_job(&spec);
        let core = JobCore::new(id, spec, plans, session);
        let tasks = (0..core.spec.replicas)
            .map(|replica| Task {
                job: core.clone(),
                replica,
            })
            .collect();
        (core, tasks)
    }

    /// Enqueue-or-drop, shared by every submission path: the whole
    /// replica batch is admitted atomically (waiting for room when
    /// `blocking`), or nothing is — the rejected tasks are dropped, so a
    /// refused job leaves no trace and the caller's `JobCore` is its
    /// only remaining reference.
    fn enqueue(&self, tasks: Vec<Task>, blocking: bool) -> Result<(), SubmitError> {
        let requested = tasks.len();
        if requested == 0 {
            // An empty batch always "fits", and a job with no replica to
            // finish it would never reach a terminal state.
            return Err(SubmitError::InvalidJob {
                reason: "replicas must be >= 1",
            });
        }
        let queue = &self.shared.queue;
        let metrics = &self.shared.metrics;
        let pushed = if blocking {
            queue.push_all(tasks)
        } else {
            queue.try_push_all(tasks)
        };
        pushed.map_err(|(push_error, _rejected_tasks)| match push_error {
            PushError::Full => {
                metrics.rejected_submissions.fetch_add(1, Ordering::Relaxed);
                SubmitError::QueueFull {
                    capacity: queue.capacity(),
                    requested,
                }
            }
            PushError::Closed => SubmitError::ShuttingDown,
        })?;
        metrics.submitted_jobs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Submits a job, **blocking** while the queue is full
    /// (backpressure). The whole replica batch is admitted atomically:
    /// a `submit` racing `close()` either lands every replica or
    /// returns [`SubmitError::ShuttingDown`] with nothing enqueued —
    /// it never hangs, and never leaves a job half-admitted for the
    /// workers to cancel. Fails with [`SubmitError::QueueFull`] only
    /// when the job has more replicas than the queue has slots (waiting
    /// could never succeed), and with [`SubmitError::InvalidJob`] when
    /// it has none.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, SubmitError> {
        let (core, tasks) = self.admit(spec, None);
        self.enqueue(tasks, true)?;
        Ok(JobHandle { core })
    }

    /// Submits a job without blocking: if the queue lacks room for
    /// *every* replica, nothing is admitted and the caller gets
    /// [`SubmitError::QueueFull`] **with the spec handed back**, so the
    /// retry-with-blocking-`submit` fallback needs no upfront clone of
    /// the game position.
    #[allow(
        clippy::result_large_err,
        reason = "handing the spec back on rejection is the point: the caller resubmits it without cloning the game"
    )]
    pub fn try_submit(&self, spec: JobSpec) -> Result<JobHandle, (SubmitError, JobSpec)> {
        let (core, tasks) = self.admit(spec, None);
        match self.enqueue(tasks, false) {
            Ok(()) => Ok(JobHandle { core }),
            Err(error) => {
                let spec = Arc::try_unwrap(core)
                    .unwrap_or_else(|_| unreachable!("rejected job leaked a reference"))
                    .spec;
                Err((error, spec))
            }
        }
    }

    /// Opens a warm-tree session over a typed game: the engine keeps a
    /// [`SearchSession`] (position + warm tree + transposition table,
    /// when the spec's `tree_reuse` knob is on) between requests, and
    /// each [`Engine::submit_session`] advances it one committed move.
    /// Sessions expire after the configured idle TTL and are evicted
    /// LRU-first under the table's count/byte bounds
    /// ([`Engine::set_session_limits`]).
    pub fn open_session<G>(
        &self,
        tenant: &str,
        game: G,
        spec: SearchSpec,
    ) -> Result<SessionId, SessionError>
    where
        G: CodedGame + Send + Sync + 'static,
        G::Move: Send + Sync,
    {
        self.open_session_dyn(tenant, DynGame::new(game), spec, None)
    }

    /// [`Engine::open_session`] over an already-erased game, with an
    /// optional per-session transposition-table byte bound (`None` uses
    /// the core default).
    pub fn open_session_dyn(
        &self,
        tenant: &str,
        game: DynGame,
        spec: SearchSpec,
        table_bytes: Option<usize>,
    ) -> Result<SessionId, SessionError> {
        self.sessions.sweep();
        let session = SearchSession::new(game, spec, table_bytes);
        self.sessions.open(tenant, session).map(|e| e.id)
    }

    /// Submits one session step as a regular engine job (same bounded
    /// queue, same backpressure, same cancellation). The job's result
    /// is the step's search report: the full best line found from the
    /// pre-step position, whose head was committed. Steps are strictly
    /// serial per session — a second submission while one is in flight
    /// returns [`SessionError::StepInFlight`].
    pub fn submit_session(&self, id: SessionId) -> Result<JobHandle, SessionError> {
        self.sessions.sweep();
        let entry = self
            .sessions
            .get(id)
            .ok_or(SessionError::NoSuchSession(id))?;
        if entry.step_inflight.swap(true, Ordering::AcqRel) {
            return Err(SessionError::StepInFlight(id));
        }
        entry.touch();
        // The job mirrors the session's spec and current position (the
        // position clone feeds the tenant/domain metrics and replays;
        // the step itself runs on the session's own game).
        let spec = {
            let slot = entry.slot.lock();
            JobSpec {
                name: entry.tenant.clone(),
                game: slot.game().clone(),
                algorithm: slot.spec().algorithm.clone(),
                seed: slot.spec().seed,
                budget: slot.spec().budget.clone(),
                replicas: 1,
                diversify_policies: false,
            }
        };
        let (core, tasks) = self.admit(spec, Some(entry.clone()));
        match self.enqueue(tasks, true) {
            Ok(()) => Ok(JobHandle { core }),
            Err(error) => {
                entry.step_inflight.store(false, Ordering::Release);
                Err(SessionError::Submit(error))
            }
        }
    }

    /// Unlists a session. A step already in flight completes normally
    /// on its own reference. Returns whether the id was open.
    pub fn close_session(&self, id: SessionId) -> bool {
        self.sessions.close(id)
    }

    /// A lock-free snapshot of one session (never waits on a running
    /// step), or `None` if the id is not open.
    pub fn session_info(&self, id: SessionId) -> Option<SessionInfo> {
        self.sessions.get(id).map(|e| e.info())
    }

    /// Sweeps (TTL expiry + byte-bound eviction) and returns the
    /// session-table counters.
    pub fn session_stats(&self) -> SessionStats {
        self.sessions.sweep();
        self.sessions.stats()
    }

    /// Replaces the session-table bounds and applies them immediately
    /// (an over-bound table evicts on this very call).
    pub fn set_session_limits(&self, limits: SessionLimits) {
        self.sessions.set_limits(limits);
        self.sessions.sweep();
    }

    /// The current session-table bounds.
    pub fn session_limits(&self) -> SessionLimits {
        self.sessions.limits()
    }

    /// Open sessions belonging to `tenant` — the serve layer's session
    /// quota gauge.
    pub fn tenant_sessions(&self, tenant: &str) -> usize {
        self.sessions.tenant_sessions(tenant)
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        let m = &self.shared.metrics;
        EngineStats {
            workers: self.workers.len(),
            queue_capacity: self.shared.queue.capacity(),
            queue_depth: self.shared.queue.len(),
            peak_queue_depth: self.shared.queue.peak(),
            submitted_jobs: m.submitted_jobs.load(Ordering::Relaxed),
            completed_jobs: m.completed_jobs.load(Ordering::Relaxed),
            cancelled_jobs: m.cancelled_jobs.load(Ordering::Relaxed),
            failed_jobs: m.failed_jobs.load(Ordering::Relaxed),
            executed_tasks: m.executed_tasks.load(Ordering::Relaxed),
            skipped_tasks: m.skipped_tasks.load(Ordering::Relaxed),
            total_work_units: m.total_work_units.load(Ordering::Relaxed),
            rejected_submissions: m.rejected_submissions.load(Ordering::Relaxed),
        }
    }

    /// The searchable inspector: one serde-round-trippable
    /// [`MetricsSnapshot`] spanning all three instrumented layers — the
    /// process-wide executor pool (parks / steals / wakeups / per-worker
    /// busy-vs-idle clocks), the search layer (playout rates, budget
    /// trips, per-backend wall-time percentiles), and this engine
    /// (queue-wait vs run-time split, per-tenant / per-domain
    /// histograms, the bounded dead-letter record, and a stall scan
    /// flagging running jobs past their deadline estimate).
    ///
    /// Reads atomics and takes only the short DLQ / job-list locks;
    /// never blocks a search and never touches any search RNG.
    pub fn inspector(&self) -> MetricsSnapshot {
        let m = &self.shared.metrics;
        let reg = &self.shared.registry;
        let mut stalled = Vec::new();
        {
            let mut jobs = reg.jobs.lock();
            jobs.retain(|w| w.strong_count() > 0);
            for weak in jobs.iter() {
                if let Some(job) = weak.upgrade() {
                    stalled.extend(job.stalled());
                }
            }
        }
        let sessions = self.sessions.stats();
        let engine = EngineSnapshot {
            submitted_jobs: m.submitted_jobs.load(Ordering::Relaxed),
            completed_jobs: m.completed_jobs.load(Ordering::Relaxed),
            cancelled_jobs: m.cancelled_jobs.load(Ordering::Relaxed),
            failed_jobs: m.failed_jobs.load(Ordering::Relaxed),
            rejected_submissions: m.rejected_submissions.load(Ordering::Relaxed),
            executed_tasks: m.executed_tasks.load(Ordering::Relaxed),
            skipped_tasks: m.skipped_tasks.load(Ordering::Relaxed),
            total_work_units: m.total_work_units.load(Ordering::Relaxed),
            queue_depth: self.shared.queue.len() as u64,
            queue_wait: reg.queue_wait.snapshot(),
            run_time: reg.run_time.snapshot(),
            tenants: reg.tenants.snapshot(),
            domains: reg.domains.snapshot(),
            dead_letters: reg.dlq.snapshot(),
            dlq_dropped: reg.dlq.dropped(),
            stalled,
            tag_collisions: reg.tenants.collisions() + reg.domains.collisions(),
            sessions: sessions.open as u64,
            session_bytes: sessions.bytes as u64,
            sessions_opened: sessions.opened,
            sessions_expired: sessions.expired,
            sessions_evicted: sessions.evicted,
        };
        let mut snapshot = nmcs_core::metrics::snapshot();
        snapshot.engine = Some(engine);
        snapshot
    }

    /// Queue-wait latency summary alone (time from submission to first
    /// replica pickup) — the input an admission controller polls per
    /// request, far cheaper than a full [`Engine::inspector`] snapshot.
    pub fn queue_wait_snapshot(&self) -> HistogramSnapshot {
        self.shared.registry.queue_wait.snapshot()
    }

    /// Begins shutdown without consuming the engine: no new jobs are
    /// accepted (submitters — including ones *blocked* in [`Engine::submit`]
    /// on a full queue — wake with [`SubmitError::ShuttingDown`]), while
    /// everything already admitted still drains. Workers exit once
    /// drained; they are joined by [`Engine::shutdown`] or drop.
    pub fn close(&self) {
        self.shared.queue.close();
    }

    /// Stops accepting jobs, drains everything already admitted, and
    /// joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.shutdown_inner();
        }
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the tests race and time the engine from threads of their own"
)]
mod tests {
    use super::*;
    use nmcs_core::SearchSpec;
    use nmcs_games::{NeedleLadder, SumGame};

    fn engine(workers: usize, cap: usize) -> Engine {
        Engine::start(EngineConfig {
            workers,
            queue_capacity: cap,
        })
        .expect("valid test configuration")
    }

    #[test]
    fn single_job_completes_with_direct_call_score() {
        let e = engine(2, 8);
        let g = SumGame::random(5, 3, 7);
        let h = e
            .submit(JobSpec::new("sum", g.clone(), Algorithm::nested(1), 99))
            .unwrap();
        let out = h.join();
        assert_eq!(out.state, JobState::Completed);
        let direct = SearchSpec::nested(1).seed(99).run(&g);
        assert_eq!(out.score().unwrap(), direct.score);
        e.shutdown();
    }

    #[test]
    fn many_jobs_across_workers() {
        let e = engine(4, 64);
        let handles: Vec<_> = (0..16)
            .map(|i| {
                e.submit(JobSpec::new(
                    format!("job-{i}"),
                    NeedleLadder::new(6),
                    Algorithm::nested(1),
                    1000 + i,
                ))
                .unwrap()
            })
            .collect();
        for h in handles {
            let out = h.join();
            assert_eq!(out.state, JobState::Completed);
            assert_eq!(out.score().unwrap(), NeedleLadder::new(6).optimum());
        }
        let stats = e.stats();
        assert_eq!(stats.completed_jobs, 16);
        assert_eq!(stats.executed_tasks, 16);
        e.shutdown();
    }

    #[test]
    fn progress_reaches_terminal_state() {
        let e = engine(1, 8);
        let h = e
            .submit(
                JobSpec::new("p", SumGame::random(4, 3, 3), Algorithm::nested(1), 5)
                    .with_replicas(3),
            )
            .unwrap();
        let out = h.join();
        assert_eq!(out.state, JobState::Completed);
        assert_eq!(out.replicas.len(), 3);
        assert!(out.replicas.iter().all(|r| r.is_some()));
        // Merge picks the max.
        let best = out.best.as_ref().unwrap();
        let max = out
            .replicas
            .iter()
            .filter_map(|r| r.as_ref().map(|r| r.result.score))
            .max()
            .unwrap();
        assert_eq!(best.result.score, max);
        e.shutdown();
    }

    #[test]
    fn shutdown_drains_pending_jobs() {
        let e = engine(2, 32);
        let handles: Vec<_> = (0..8)
            .map(|i| {
                e.submit(JobSpec::new(
                    format!("drain-{i}"),
                    SumGame::random(4, 3, i),
                    Algorithm::nested(1),
                    i,
                ))
                .unwrap()
            })
            .collect();
        e.shutdown();
        for h in handles {
            assert_eq!(h.join().state, JobState::Completed);
        }
    }

    #[test]
    fn zero_workers_is_a_typed_error_not_a_hang() {
        match Engine::start(EngineConfig {
            workers: 0,
            queue_capacity: 8,
        }) {
            Err(EngineError::InvalidConfig { reason }) => {
                assert!(reason.contains("workers"), "got reason {reason:?}")
            }
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("expected InvalidConfig, got a running engine"),
        }
    }

    #[test]
    fn zero_queue_capacity_is_a_typed_error_not_a_panic() {
        match Engine::start(EngineConfig {
            workers: 2,
            queue_capacity: 0,
        }) {
            Err(EngineError::InvalidConfig { reason }) => {
                assert!(reason.contains("queue_capacity"), "got reason {reason:?}")
            }
            Err(other) => panic!("expected InvalidConfig, got {other:?}"),
            Ok(_) => panic!("expected InvalidConfig, got a running engine"),
        }
    }

    /// A game whose playouts run until an external gate opens: each move
    /// sleeps briefly, and moves keep coming while the gate is closed.
    /// Lets a test pin a worker deterministically.
    #[derive(Clone)]
    struct GateGame {
        release: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }

    impl nmcs_core::Game for GateGame {
        type Move = u8;
        fn legal_moves(&self, out: &mut Vec<u8>) {
            if !self.release.load(Ordering::Acquire) {
                out.push(0);
            }
        }
        fn play(&mut self, _mv: &u8) {
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        fn score(&self) -> nmcs_core::Score {
            0
        }
        fn moves_played(&self) -> usize {
            0
        }
    }

    /// Opens its [`GateGame`]s — on request, or when dropped. Declare
    /// it *after* the engine: a failing assertion then opens the gate
    /// before the engine's drop joins the workers pinned on it, so the
    /// test fails instead of hanging.
    struct Gate(std::sync::Arc<std::sync::atomic::AtomicBool>);

    impl Gate {
        fn open(&self) {
            self.0.store(true, Ordering::Release);
        }
    }

    impl Drop for Gate {
        fn drop(&mut self) {
            self.open();
        }
    }

    fn gate() -> (Gate, GateGame) {
        let release = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let game = GateGame {
            release: release.clone(),
        };
        (Gate(release), game)
    }

    /// Polls `cond` until it holds; a scheduler that never gets there
    /// fails the test instead of hanging it.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn short_jobs_do_not_convoy_behind_a_long_one() {
        let e = engine(2, 16);
        let (release, long_game) = gate();
        let long = e
            .submit(JobSpec::uncoded("long", long_game, Algorithm::nested(0), 1))
            .unwrap();
        wait_until("long job running", || {
            long.poll_progress().state == JobState::Running
        });
        let short: Vec<_> = (0..6)
            .map(|i| {
                e.submit(JobSpec::new(
                    format!("short-{i}"),
                    SumGame::random(4, 3, i),
                    Algorithm::nested(0),
                    i,
                ))
                .unwrap()
            })
            .collect();
        // The free worker pulls all six, one after the other, while its
        // sibling stays pinned: nothing waits behind the busy worker.
        wait_until("six short jobs complete", || {
            short
                .iter()
                .all(|h| h.poll_progress().state == JobState::Completed)
        });
        assert_eq!(long.poll_progress().state, JobState::Running);
        release.open();
        assert_eq!(long.join().state, JobState::Completed);
        e.shutdown();
    }

    #[test]
    fn queue_capacity_bounds_every_unstarted_replica_exactly() {
        let e = engine(1, 8);
        let (release_a, game_a) = gate();
        let (release_b, game_b) = gate();
        let job_b =
            |i: u64| JobSpec::uncoded(format!("b-{i}"), game_b.clone(), Algorithm::nested(0), i);
        let a = e
            .submit(JobSpec::uncoded("a", game_a, Algorithm::nested(0), 0))
            .unwrap();
        wait_until("a running", || a.poll_progress().state == JobState::Running);
        let mut queued: Vec<_> = (0..8).map(|i| e.try_submit(job_b(i)).unwrap()).collect();
        assert!(matches!(
            e.try_submit(job_b(8)),
            Err((SubmitError::QueueFull { .. }, _))
        ));
        // The worker finishes `a` and pulls exactly one task — the head
        // of the queue, which pins it again — so exactly one slot frees:
        // no unstarted task lives anywhere but in the queue.
        release_a.open();
        wait_until("head of the queue running", || {
            queued[0].poll_progress().state == JobState::Running
        });
        assert_eq!(e.stats().queue_depth, 7);
        queued.push(e.try_submit(job_b(9)).expect("one slot freed"));
        assert!(matches!(
            e.try_submit(job_b(10)),
            Err((SubmitError::QueueFull { .. }, _))
        ));
        assert_eq!(e.stats().peak_queue_depth, 8);
        release_b.open();
        assert_eq!(a.join().state, JobState::Completed);
        for h in queued {
            assert_eq!(h.join().state, JobState::Completed);
        }
        e.shutdown();
    }

    #[test]
    fn a_job_with_zero_replicas_is_refused_not_admitted_to_wait_forever() {
        let e = engine(1, 4);
        let mut spec = JobSpec::new("empty", SumGame::random(4, 3, 1), Algorithm::nested(1), 9);
        spec.replicas = 0;
        match e.submit(spec.clone()) {
            Err(SubmitError::InvalidJob { reason }) => {
                assert!(reason.contains("replicas"), "got reason {reason:?}")
            }
            other => panic!("expected InvalidJob, got {other:?}"),
        }
        match e.try_submit(spec) {
            Err((SubmitError::InvalidJob { .. }, returned)) => {
                assert_eq!(returned.name, "empty", "spec is handed back");
            }
            other => panic!("expected InvalidJob, got {other:?}"),
        }
        assert_eq!(e.stats().submitted_jobs, 0);
        e.shutdown();
    }

    #[test]
    fn blocked_submitter_wakes_with_error_when_engine_closes() {
        let release = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let gate = GateGame {
            release: release.clone(),
        };
        // One worker, one queue slot: job A occupies the worker until the
        // gate opens, job B fills the only slot, so a third submission
        // blocks in `submit` — the regression shape for the shutdown
        // audit (a dropped engine must wake it, not strand it forever).
        let e = engine(1, 1);
        let a = e
            .submit(JobSpec::uncoded(
                "gate-a",
                gate.clone(),
                Algorithm::nested(0),
                1,
            ))
            .unwrap();
        // Wait until A is actually running so B occupies the queue slot.
        while a.poll_progress().state != JobState::Running {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let b = e
            .submit(JobSpec::uncoded(
                "gate-b",
                gate.clone(),
                Algorithm::nested(0),
                2,
            ))
            .unwrap();

        let blocked = std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                e.submit(JobSpec::uncoded(
                    "gate-c",
                    gate.clone(),
                    Algorithm::nested(0),
                    3,
                ))
            });
            // Give the submitter time to block on the full queue, then
            // close the engine out from under it (the drop/shutdown path
            // runs exactly this close).
            std::thread::sleep(std::time::Duration::from_millis(30));
            e.close();
            release.store(true, Ordering::Release);
            handle.join().expect("submitter thread must not panic")
        });
        match blocked {
            Err(SubmitError::ShuttingDown) => {}
            other => panic!("blocked submitter should see ShuttingDown, got {other:?}"),
        }
        // Admitted work still drains to completion.
        assert_eq!(a.join().state, JobState::Completed);
        assert_eq!(b.join().state, JobState::Completed);
        e.shutdown(); // joins workers; must not hang
    }

    /// The submit-vs-close hammer (engine level): submitters blocking
    /// on a small queue while `close()` lands mid-storm. Every submit
    /// either completes — its handle joins to a terminal state — or
    /// returns `ShuttingDown` with nothing half-admitted; shutdown then
    /// joins without hanging.
    #[test]
    fn submit_racing_close_completes_or_errors_never_hangs() {
        for round in 0..10u64 {
            let e = engine(1, 3);
            let handles = std::thread::scope(|scope| {
                let threads: Vec<_> = (0..6u64)
                    .map(|t| {
                        let e = &e;
                        scope.spawn(move || {
                            e.submit(
                                JobSpec::new(
                                    format!("hammer-{t}"),
                                    SumGame::random(3, 3, round * 100 + t),
                                    Algorithm::nested(0),
                                    round * 100 + t,
                                )
                                .with_replicas(2),
                            )
                        })
                    })
                    .collect();
                if round % 2 == 0 {
                    std::thread::yield_now();
                }
                e.close();
                threads
                    .into_iter()
                    .map(|t| t.join().expect("submitter must not panic"))
                    .collect::<Vec<_>>()
            });
            let mut accepted = 0u64;
            for h in handles {
                match h {
                    Ok(handle) => {
                        accepted += 1;
                        assert!(
                            handle.join().state.is_terminal(),
                            "accepted job must reach a terminal state"
                        );
                    }
                    Err(SubmitError::ShuttingDown) => {}
                    Err(other) => panic!("round {round}: unexpected {other:?}"),
                }
            }
            assert_eq!(e.stats().submitted_jobs, accepted, "round {round}");
            e.shutdown(); // must not hang
        }
    }

    #[test]
    fn blocking_submit_of_an_oversized_job_is_queue_full_not_a_hang() {
        let e = engine(1, 2);
        // Three replicas can never fit a two-slot queue at once: waiting
        // would deadlock, so blocking submit must refuse immediately.
        let spec = JobSpec::new("wide", SumGame::random(4, 3, 1), Algorithm::nested(1), 9)
            .with_replicas(3);
        match e.submit(spec) {
            Err(SubmitError::QueueFull {
                capacity: 2,
                requested: 3,
            }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        assert_eq!(e.stats().rejected_submissions, 1);
        e.shutdown();
    }

    #[test]
    fn submit_after_shutdown_fails_and_rolls_back_cleanly() {
        let e = engine(1, 4);
        // Simulate the closed-queue state shutdown creates, while the
        // engine value is still alive to submit through.
        e.shared.queue.close();

        let spec = JobSpec::new("late", SumGame::random(4, 3, 1), Algorithm::nested(1), 9)
            .with_replicas(2);
        match e.submit(spec.clone()) {
            Err(SubmitError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        match e.try_submit(spec) {
            Err((SubmitError::ShuttingDown, returned)) => {
                assert_eq!(returned.name, "late", "spec is handed back");
            }
            other => panic!("expected ShuttingDown, got {other:?}"),
        }
        // Neither failure admitted anything.
        let stats = e.stats();
        assert_eq!(stats.submitted_jobs, 0);
        assert_eq!(stats.queue_depth, 0);
        e.shutdown(); // must not hang
    }
}
