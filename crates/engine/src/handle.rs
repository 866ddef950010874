//! Job state shared between submitters and workers, and the public
//! [`JobHandle`].

use crate::job::{JobId, JobOutput, JobSpec, JobState, Progress, ReplicaResult};
use crate::pool::Metrics;

/// What a worker reports for one replica.
pub(crate) enum ReplicaOutcome {
    Finished(ReplicaResult),
    /// Cancelled before or during the search; no result.
    Skipped,
    /// The search panicked (buggy game implementation).
    Panicked,
}
use crate::scheduler::ReplicaPlan;
use crate::session::SessionEntry;
use nmcs_core::metrics::monotonic_now;
use nmcs_core::CancelToken;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::Arc;
use std::time::Instant;

pub(crate) struct JobInner {
    pub state: JobState,
    pub replicas_done: usize,
    pub results: Vec<Option<ReplicaResult>>,
    pub work_units: u64,
    /// First replica pickup; the queue-wait / run-time boundary.
    pub started_at: Option<Instant>,
    pub finished_at: Option<Instant>,
    /// Set when a replica panicked; the job finishes as `Failed`.
    pub failed: bool,
}

/// Everything the engine and workers share about one job.
pub(crate) struct JobCore {
    pub id: JobId,
    pub spec: JobSpec,
    pub plans: Vec<ReplicaPlan>,
    /// `Some` for session-scoped jobs: the worker advances this session
    /// one step instead of running the spec's one-shot search.
    pub session: Option<Arc<SessionEntry>>,
    /// Cooperative cancellation handle, polled inside the search loops
    /// of every replica (see [`nmcs_core::CancelToken`]).
    pub cancel: CancelToken,
    pub submitted_at: Instant,
    pub inner: Mutex<JobInner>,
    pub done: Condvar,
}

impl JobCore {
    pub fn new(
        id: JobId,
        spec: JobSpec,
        plans: Vec<ReplicaPlan>,
        session: Option<Arc<SessionEntry>>,
    ) -> Arc<Self> {
        let replicas = spec.replicas;
        Arc::new(JobCore {
            id,
            spec,
            plans,
            session,
            cancel: CancelToken::new(),
            submitted_at: monotonic_now(),
            inner: Mutex::new(JobInner {
                state: JobState::Queued,
                replicas_done: 0,
                results: (0..replicas).map(|_| None).collect(),
                work_units: 0,
                started_at: None,
                finished_at: None,
                failed: false,
            }),
            done: Condvar::new(),
        })
    }

    pub fn lock(&self) -> MutexGuard<'_, JobInner> {
        self.inner.lock()
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// The job's cancel token (workers hand it to `SearchSpec::search`).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Marks the job running (first replica picked up) and stamps the
    /// queue-wait / run-time boundary. Returns `true` only for the
    /// replica that performed the transition, so the caller records the
    /// job's queue wait exactly once.
    pub fn mark_running(&self) -> bool {
        let mut inner = self.lock();
        if inner.state == JobState::Queued {
            inner.state = JobState::Running;
            inner.started_at = Some(monotonic_now());
            true
        } else {
            false
        }
    }

    /// The worst-case wall-clock bound for this job in milliseconds:
    /// per-replica deadline × replicas, the fully-serialised schedule.
    /// Explicitly `None` when the budget carries no deadline **or** a
    /// sub-millisecond one — a deadline that truncates to 0 ms is no
    /// usable estimate, and comparing against it would flag every
    /// running job the moment it starts.
    pub fn deadline_estimate_ms(&self) -> Option<u64> {
        let deadline = self.spec.budget.deadline?;
        let deadline_ms = u64::try_from(deadline.as_millis()).unwrap_or(u64::MAX);
        if deadline_ms == 0 {
            return None;
        }
        Some(deadline_ms.saturating_mul(self.spec.replicas as u64))
    }

    /// Flags this job as stalled when it is still running past its
    /// worst-case deadline estimate ([`JobCore::deadline_estimate_ms`]):
    /// a healthy replica trips its own deadline budget and returns, so
    /// exceeding the bound means a search loop has stopped observing
    /// its budget. Jobs with no usable estimate are never flagged.
    pub fn stalled(&self) -> Option<nmcs_core::metrics::StalledJob> {
        let estimate_ms = self.deadline_estimate_ms()?;
        let started = {
            let inner = self.lock();
            if inner.state != JobState::Running {
                return None;
            }
            inner.started_at?
        };
        let running_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
        (running_ms > estimate_ms).then(|| nmcs_core::metrics::StalledJob {
            job: self.id,
            name: self.spec.name.clone(),
            running_ms,
            deadline_ms: estimate_ms,
        })
    }

    /// Records a finished (or skipped, `result == None`) replica; when it
    /// is the last one, seals the job, bumps the engine's job counters,
    /// and wakes joiners. The counters are updated while the job lock is
    /// held so any thread that observes the terminal state (via `join` or
    /// `poll_progress`) also observes them. Returns `true` when the job
    /// reached a terminal state.
    pub fn record_replica(
        &self,
        replica: usize,
        result: ReplicaOutcome,
        metrics: &Metrics,
    ) -> bool {
        let mut inner = self.lock();
        debug_assert!(
            inner.results[replica].is_none(),
            "replica {replica} recorded twice"
        );
        match result {
            ReplicaOutcome::Finished(r) => {
                inner.work_units += r.result.stats.work_units;
                inner.results[replica] = Some(r);
            }
            ReplicaOutcome::Skipped => {}
            ReplicaOutcome::Panicked => inner.failed = true,
        }
        inner.replicas_done += 1;
        let finished = inner.replicas_done == self.spec.replicas;
        if finished && !inner.state.is_terminal() {
            use std::sync::atomic::Ordering;
            if self.is_cancelled() {
                inner.state = JobState::Cancelled;
                metrics.cancelled_jobs.fetch_add(1, Ordering::Relaxed);
            } else if inner.failed {
                inner.state = JobState::Failed;
                metrics.failed_jobs.fetch_add(1, Ordering::Relaxed);
            } else {
                inner.state = JobState::Completed;
                metrics.completed_jobs.fetch_add(1, Ordering::Relaxed);
            }
            inner.finished_at = Some(monotonic_now());
            drop(inner);
            self.done.notify_all();
        }
        finished
    }

    /// Index and score of the best finished replica (ties: lowest
    /// replica index, matching the deterministic tie-break of the
    /// paper's root process). Carrying the score out alongside the
    /// index keeps every caller free of re-indexing `results` (and of
    /// the `unwrap` that used to imply).
    fn best_replica(inner: &JobInner) -> Option<(usize, i64)> {
        let mut best: Option<(i64, usize)> = None;
        for (i, r) in inner.results.iter().enumerate() {
            if let Some(r) = r {
                let score = r.result.score;
                if best.is_none_or(|(bs, _)| score > bs) {
                    best = Some((score, i));
                }
            }
        }
        best.map(|(s, i)| (i, s))
    }

    pub fn progress(&self) -> Progress {
        let inner = self.lock();
        let best = Self::best_replica(&inner);
        // The same clock reads the metrics registry uses: submitted_at →
        // started_at is the queue wait, started_at → finished_at (or
        // now, while running) is the run time.
        let now = monotonic_now();
        let queued_for = inner
            .started_at
            .unwrap_or(now)
            .saturating_duration_since(self.submitted_at);
        let running_for = inner
            .started_at
            .map(|s| {
                inner
                    .finished_at
                    .unwrap_or(now)
                    .saturating_duration_since(s)
            })
            .unwrap_or_default();
        Progress {
            job: self.id,
            state: inner.state,
            replicas_total: self.spec.replicas,
            replicas_done: inner.replicas_done,
            best_score: best.map(|(_, score)| score),
            best_replica: best.map(|(i, _)| i),
            work_units: inner.work_units,
            queued_for,
            running_for,
        }
    }

    pub fn output(&self, inner: &JobInner) -> JobOutput {
        let best = Self::best_replica(inner);
        JobOutput {
            job: self.id,
            name: self.spec.name.clone(),
            state: inner.state,
            best: best.and_then(|(i, _)| inner.results[i].clone()),
            replicas: inner.results.clone(),
            elapsed: inner
                .finished_at
                .unwrap_or_else(monotonic_now)
                .duration_since(self.submitted_at),
        }
    }
}

/// Handle to a submitted job: poll progress, cancel, or block for the
/// final result. Dropping the handle does not affect the job. Cloning
/// is cheap (one `Arc`); every clone observes the same job, so a server
/// can keep one handle registered while another request waits on it.
pub struct JobHandle {
    pub(crate) core: Arc<JobCore>,
}

impl Clone for JobHandle {
    fn clone(&self) -> Self {
        JobHandle {
            core: self.core.clone(),
        }
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.core.id)
            .field("name", &self.core.spec.name)
            .finish()
    }
}

impl JobHandle {
    pub fn id(&self) -> JobId {
        self.core.id
    }

    pub fn name(&self) -> &str {
        &self.core.spec.name
    }

    /// A point-in-time snapshot; never blocks on search work.
    pub fn poll_progress(&self) -> Progress {
        self.core.progress()
    }

    /// Requests cancellation. Replicas that already finished keep their
    /// results; queued replicas are skipped when dequeued; *running*
    /// replicas observe the token inside their search loops (at
    /// playout-move granularity) and return promptly. Idempotent.
    pub fn cancel(&self) {
        self.core.cancel.cancel();
    }

    /// Blocks until the job reaches a terminal state and returns the
    /// merged outcome.
    pub fn join(self) -> JobOutput {
        let mut inner = self.core.lock();
        while !inner.state.is_terminal() {
            self.core.done.wait(&mut inner);
        }
        self.core.output(&inner)
    }

    /// Blocks until the job reaches a terminal state and returns the
    /// merged outcome **without consuming the handle** — a server can
    /// keep the handle registered for later polls while one request
    /// waits for completion.
    pub fn wait(&self) -> JobOutput {
        let mut inner = self.core.lock();
        while !inner.state.is_terminal() {
            self.core.done.wait(&mut inner);
        }
        self.core.output(&inner)
    }

    /// Whether the job already reached a terminal state — exactly
    /// `try_output().is_some()`, for the price of one lock and one flag
    /// read: nothing is cloned or allocated, so a directory can ask it
    /// of every retained job on every submit.
    pub fn is_terminal(&self) -> bool {
        self.core.lock().state.is_terminal()
    }

    /// The merged outcome if the job already finished, `None` while it
    /// is still queued or running. Never blocks on search work.
    pub fn try_output(&self) -> Option<JobOutput> {
        let inner = self.core.lock();
        inner.state.is_terminal().then(|| self.core.output(&inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use nmcs_core::SearchSpec;
    use nmcs_games::SumGame;
    use std::time::Duration;

    fn core_with_deadline(deadline: Option<Duration>, replicas: usize) -> Arc<JobCore> {
        let mut job = JobSpec::from_spec(
            "stall-test",
            SumGame::random(3, 3, 7),
            SearchSpec::sample().seed(1).build(),
        );
        job.budget.deadline = deadline;
        job.replicas = replicas;
        JobCore::new(1, job, Vec::new(), None)
    }

    /// Marks the core running with a start time backdated `ago` into
    /// the past — an overrun without sleeping. Falls back to "now" when
    /// the platform clock cannot be backdated that far.
    fn force_running_backdated(core: &JobCore, ago: Duration) {
        let mut inner = core.lock();
        inner.state = JobState::Running;
        let now = monotonic_now();
        inner.started_at = Some(now.checked_sub(ago).unwrap_or(now));
    }

    /// `is_terminal()` is `try_output().is_some()` at every point of a
    /// job's life, whichever of the three terminal states it ends in.
    #[test]
    fn is_terminal_agrees_with_try_output_through_every_transition() {
        for end in [JobState::Completed, JobState::Cancelled, JobState::Failed] {
            let handle = JobHandle {
                core: core_with_deadline(None, 1),
            };
            let agree = |expect: bool| {
                assert_eq!(handle.is_terminal(), expect, "towards {end:?}");
                assert_eq!(handle.try_output().is_some(), expect, "towards {end:?}");
            };
            agree(false); // queued
            assert!(handle.core.mark_running());
            agree(false); // running
            let outcome = match end {
                JobState::Cancelled => {
                    handle.cancel();
                    agree(false); // cancellation requested, replica not yet back
                    ReplicaOutcome::Skipped
                }
                JobState::Failed => ReplicaOutcome::Panicked,
                _ => ReplicaOutcome::Finished(ReplicaResult {
                    replica: 0,
                    seed_used: 1,
                    memory_policy: None,
                    result: nmcs_core::SearchResult {
                        score: 5,
                        sequence: vec![0, 1, 2],
                        stats: nmcs_core::SearchStats::default(),
                    },
                    interrupted: None,
                    elapsed: Duration::ZERO,
                }),
            };
            assert!(handle.core.record_replica(0, outcome, &Metrics::default()));
            agree(true);
            assert_eq!(handle.poll_progress().state, end);
        }
    }

    #[test]
    fn no_deadline_means_no_estimate_and_no_stall_flag() {
        let core = core_with_deadline(None, 4);
        assert_eq!(core.deadline_estimate_ms(), None);
        force_running_backdated(&core, Duration::from_secs(3600));
        assert!(core.stalled().is_none(), "absent deadline must never flag");
    }

    #[test]
    fn zero_deadline_means_no_estimate_and_no_stall_flag() {
        // A sub-millisecond deadline truncates to 0 ms; the old
        // `running_ms > 0` comparison flagged such a job the instant it
        // started running.
        let core = core_with_deadline(Some(Duration::from_micros(200)), 4);
        assert_eq!(core.deadline_estimate_ms(), None);
        force_running_backdated(&core, Duration::from_secs(3600));
        assert!(core.stalled().is_none(), "zero-ms deadline must never flag");
    }

    #[test]
    fn real_deadline_scales_by_replicas_and_flags_overruns() {
        let core = core_with_deadline(Some(Duration::from_millis(50)), 3);
        assert_eq!(core.deadline_estimate_ms(), Some(150));

        // Queued jobs are never stalled, however old.
        assert!(core.stalled().is_none());

        // Freshly running: inside the bound.
        {
            let mut inner = core.lock();
            inner.state = JobState::Running;
            inner.started_at = Some(monotonic_now());
        }
        assert!(core.stalled().is_none(), "fresh job is not stalled");

        // Running past the serialised bound: flagged with the explicit
        // estimate.
        force_running_backdated(&core, Duration::from_secs(3600));
        if let Some(stall) = core.stalled() {
            assert_eq!(stall.deadline_ms, 150);
            assert!(stall.running_ms > 150);
            assert_eq!(stall.name, "stall-test");
        } else {
            // The backdated clock saturated at the process epoch on a
            // very young process; the invariant still holds there.
            let inner = core.lock();
            let ran = inner.started_at.unwrap().elapsed().as_millis();
            assert!(ran <= 150, "ran {ran}ms unflagged past the bound");
        }
    }
}
