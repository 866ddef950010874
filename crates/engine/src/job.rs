//! Job descriptions and result types for the engine.
//!
//! Since the unified search API landed, an engine job is "a
//! [`SearchSpec`] applied to an erased game": [`Algorithm`] is the
//! core's [`nmcs_core::AlgorithmSpec`] re-exported (the engine's old
//! private enum duplicated its config plumbing), jobs carry a
//! [`Budget`], and every replica runs through `SearchSpec::run` — so an
//! engine job is reproducible as one `spec.run(&game)` call with the
//! replica's recorded seed.

use nmcs_core::{Budget, CodedGame, DynGame, Game, MemoryPolicy, Score, SearchResult, SearchSpec};
use std::time::Duration;

/// Engine-assigned job identifier (unique per [`crate::Engine`]).
pub type JobId = u64;

/// Which search to run — the unified algorithm description from
/// `nmcs-core`. Every variant maps to exactly one strategy of
/// [`SearchSpec`], so an engine job is reproducible as a direct
/// `spec.run(&game)` call with the job's seed.
///
/// Parallel variants compose with the engine transparently: a
/// leaf-/root-/tree-parallel replica fans its inner work out on the
/// process-wide `nmcs_core::ExecutorPool` (shared with every other
/// replica — no per-job thread spawns), while the engine's own pool below
/// schedules whole replicas. Every variant's replica result is
/// reproducible bit for bit from `ReplicaResult::seed_used`, and its
/// replay invariant — sequence replays to score — is what the engine's
/// merge relies on.
pub type Algorithm = nmcs_core::AlgorithmSpec;

/// A search job: one game position × one algorithm × one seed × one
/// budget, run as `replicas` root-parallel replicas whose best result
/// wins.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Human-readable name: the tenant key of the engine's per-tenant
    /// histograms and the name on the job's dead letters. It never
    /// influences the search.
    pub name: String,
    /// Initial position (type-erased; see [`nmcs_core::erased`]).
    pub game: DynGame,
    pub algorithm: Algorithm,
    /// Root seed. With `replicas == 1` the job's search is bit-identical
    /// to the direct library call seeded with this value; with more
    /// replicas, per-replica seeds derive from it via
    /// [`nmcs_core::seeds::median_seed`] (see
    /// [`crate::scheduler::ReplicaPlan`]).
    pub seed: u64,
    /// Per-replica budget (deadline / playout cap / node cap), honoured
    /// cooperatively inside the search loops. A budget-interrupted
    /// replica still reports its best-so-far result.
    pub budget: Budget,
    /// Number of root-parallel replicas (≥ 1).
    pub replicas: usize,
    /// When true, odd NMCS replicas run the greedy memory policy instead
    /// of the memorising one, so the ensemble explores structurally
    /// different trajectories instead of only reseeding.
    pub diversify_policies: bool,
}

impl JobSpec {
    /// A job over a coded game (NRPA keeps true move codes).
    pub fn new<G>(name: impl Into<String>, game: G, algorithm: Algorithm, seed: u64) -> Self
    where
        G: CodedGame + Send + Sync + 'static,
        G::Move: Send + Sync,
    {
        JobSpec {
            name: name.into(),
            game: DynGame::new(game),
            algorithm,
            seed,
            budget: Budget::none(),
            replicas: 1,
            diversify_policies: false,
        }
    }

    /// A job over a plain game (NRPA falls back to positional codes).
    pub fn uncoded<G>(name: impl Into<String>, game: G, algorithm: Algorithm, seed: u64) -> Self
    where
        G: Game + Send + Sync + 'static,
        G::Move: Send + Sync,
    {
        JobSpec {
            name: name.into(),
            game: DynGame::new_uncoded(game),
            algorithm,
            seed,
            budget: Budget::none(),
            replicas: 1,
            diversify_policies: false,
        }
    }

    /// A job from a complete [`SearchSpec`] — algorithm, budget, and
    /// seed travel together, so a spec pasted from a sweep row or a
    /// service request runs unchanged.
    pub fn from_spec<G>(name: impl Into<String>, game: G, spec: SearchSpec) -> Self
    where
        G: CodedGame + Send + Sync + 'static,
        G::Move: Send + Sync,
    {
        JobSpec {
            name: name.into(),
            game: DynGame::new(game),
            algorithm: spec.algorithm,
            seed: spec.seed,
            budget: spec.budget,
            replicas: 1,
            diversify_policies: false,
        }
    }

    /// The job's unified spec (algorithm + budget + job seed). Replica
    /// `r` of an ensemble runs this spec with its plan seed substituted.
    pub fn search_spec(&self) -> SearchSpec {
        SearchSpec {
            algorithm: self.algorithm.clone(),
            budget: self.budget.clone(),
            seed: self.seed,
        }
    }

    /// Sets the per-replica budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the ensemble width.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        assert!(replicas >= 1, "a job needs at least one replica");
        self.replicas = replicas;
        self
    }

    /// Enables per-replica policy diversification.
    pub fn with_policy_diversification(mut self) -> Self {
        self.diversify_policies = true;
        self
    }
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted; no replica has started.
    Queued,
    /// At least one replica is running.
    Running,
    /// All replicas finished and the merge is final.
    Completed,
    /// Cancelled; any replicas that had already finished are preserved.
    Cancelled,
    /// A replica panicked (e.g. a buggy game implementation); finished
    /// replicas are preserved.
    Failed,
}

impl JobState {
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Cancelled | JobState::Failed
        )
    }
}

/// A point-in-time snapshot of a job, returned by
/// [`crate::JobHandle::poll_progress`]. Snapshots stream monotonically:
/// `replicas_done` and `work_units` never decrease, `best_score` never
/// worsens, and `state` only advances.
#[derive(Debug, Clone)]
pub struct Progress {
    pub job: JobId,
    pub state: JobState,
    pub replicas_total: usize,
    pub replicas_done: usize,
    /// Best score over the replicas finished so far.
    pub best_score: Option<Score>,
    /// Replica index that produced `best_score`.
    pub best_replica: Option<usize>,
    /// Work units accumulated across finished replicas.
    pub work_units: u64,
    /// Time from submission until the first replica was picked up (or
    /// until this poll, while still queued). Fed by the same clock
    /// reads as the engine's queue-wait histogram.
    pub queued_for: Duration,
    /// Time since the first replica was picked up (zero while queued;
    /// frozen at the terminal transition once the job finishes).
    pub running_for: Duration,
}

/// Outcome of one replica.
#[derive(Debug, Clone)]
pub struct ReplicaResult {
    pub replica: usize,
    /// The seed this replica ran with: the job seed for a single
    /// replica, `median_seed(seed, 0, replica)` for an ensemble (see
    /// [`crate::scheduler`]), the step's derived seed for a session
    /// step. The replica's `result` is bit-identical to `spec.run` with
    /// this seed (and `memory_policy`, for NMCS).
    pub seed_used: u64,
    /// The NMCS memory policy this replica ran with (None for non-NMCS
    /// algorithms).
    pub memory_policy: Option<MemoryPolicy>,
    /// Index-encoded search result; decode with
    /// [`nmcs_core::decode_result`] against the typed root position.
    pub result: SearchResult<usize>,
    /// Why the replica stopped early, if its budget interrupted it
    /// (budget-interrupted replicas keep their best-so-far result;
    /// cancellation discards the replica instead).
    pub interrupted: Option<nmcs_core::Interruption>,
    pub elapsed: Duration,
}

/// Final outcome of a job, returned by [`crate::JobHandle::join`].
#[derive(Debug, Clone)]
pub struct JobOutput {
    pub job: JobId,
    pub name: String,
    /// `Completed`, `Cancelled`, or `Failed`.
    pub state: JobState,
    /// Best replica result (the ensemble merge). `None` only if the job
    /// was cancelled before any replica finished.
    pub best: Option<ReplicaResult>,
    /// All replica results, indexed by replica; `None` entries were
    /// cancelled before finishing.
    pub replicas: Vec<Option<ReplicaResult>>,
    /// Wall-clock time from submission to the terminal state.
    pub elapsed: Duration,
}

impl JobOutput {
    /// Best score across finished replicas.
    pub fn score(&self) -> Option<Score> {
        self.best.as_ref().map(|r| r.result.score)
    }
}
