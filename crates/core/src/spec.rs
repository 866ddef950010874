//! The unified search API: one front door for every backend.
//!
//! A [`SearchSpec`] names a strategy ([`AlgorithmSpec`]: NMCS, NRPA, UCT,
//! the Monte-Carlo baselines, leaf-parallel batching, root-parallel
//! fan-out), its per-algorithm configuration, a [`Budget`] (wall-clock
//! deadline, playout cap, node cap), and a seed — everything needed to
//! say *"run X on game G for at most 200 ms with this seed"* uniformly
//! across backends. Specs are plain serde-able data, so any sweep row or
//! service job is reproducible from one pasted JSON string.
//!
//! ```
//! use nmcs_core::spec::SearchSpec;
//! use nmcs_core::{CodedGame, Game, Score};
//!
//! #[derive(Clone)]
//! struct Walk(Vec<u8>);
//! impl Game for Walk {
//!     type Move = u8;
//!     fn legal_moves(&self, out: &mut Vec<u8>) {
//!         if self.0.len() < 4 { out.extend_from_slice(&[0, 1]); }
//!     }
//!     fn play(&mut self, mv: &u8) { self.0.push(*mv); }
//!     fn score(&self) -> Score { self.0.iter().map(|&m| m as Score).sum() }
//!     fn moves_played(&self) -> usize { self.0.len() }
//! }
//! impl CodedGame for Walk {
//!     fn move_code(&self, mv: &u8) -> u64 { *mv as u64 }
//! }
//!
//! let report = SearchSpec::nested(1).deadline_ms(200).seed(42).run(&Walk(vec![]));
//! assert_eq!(report.score, 4); // level-1 NMCS solves the toy walk
//! assert!(report.interrupted.is_none());
//! ```
//!
//! Determinism contract: for any spec whose budget is never hit, the
//! result is **bit-identical** to the direct call of the function the
//! variant names with the same seed (`nested_with`, `nrpa_with`,
//! `uct_with`, `flat_monte_carlo_with`; for the parallel variants,
//! `parallel_nmcs::trace::run_reference`) — budget and cancellation
//! polls never touch the RNG stream. `tests/budget_props.rs` and the
//! unit tests below assert both halves of the contract.

use crate::baselines::flat_monte_carlo_with;
use crate::ctx::SearchCtx;
use crate::exec;
use crate::game::{Game, Score};
use crate::nrpa::{nrpa_with, CodedGame, NrpaConfig};
use crate::report::{Interruption, SearchReport};
use crate::rng::Rng;
use crate::search::{nested_with, MemoryPolicy, NestedConfig};
use crate::uct::{LockStrategy, StatsMode, UctArena, UctConfig, DEFAULT_TT_BYTES};
use serde::{Deserialize, Error, Serialize, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

/// A cooperative cancellation handle usable with any backend (not just
/// the engine): clone it, hand one clone to the search via
/// [`SearchSpec::run_cancellable`] or [`SearchBuilder::cancel`], keep the
/// other, and call [`CancelToken::cancel`] from any thread. Every search
/// loop polls the token (at playout-move granularity), so even a deep
/// nested search unwinds within microseconds, returning its best-so-far
/// result with [`SearchReport::interrupted`] set to
/// [`crate::report::Interruption::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------
// Budget
// ---------------------------------------------------------------------

/// Stopping limits enforced uniformly across every backend. All fields
/// are optional; an all-`None` budget never stops a search.
///
/// Checks happen in the shared playout/evaluation loops (see
/// [`crate::ctx::SearchCtx`]), so a deadline or playout cap behaves the
/// same whether the spec runs serially, leaf-parallel, or root-parallel
/// — and the checks never perturb the RNG stream, so an *unhit* budget
/// leaves results bit-identical to an unbudgeted run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Budget {
    /// Wall-clock limit, measured from the start of the run.
    pub deadline: Option<Duration>,
    /// Maximum completed random playouts (summed across workers).
    pub max_playouts: Option<u64>,
    /// Maximum candidate expansions / tree nodes (summed across workers).
    pub max_nodes: Option<u64>,
}

impl Budget {
    /// No limits.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether any limit is set.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.max_playouts.is_some() || self.max_nodes.is_some()
    }

    /// Chainable wall-clock limit.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Chainable playout cap.
    pub fn with_max_playouts(mut self, n: u64) -> Self {
        self.max_playouts = Some(n);
        self
    }

    /// Chainable node (expansion) cap.
    pub fn with_max_nodes(mut self, n: u64) -> Self {
        self.max_nodes = Some(n);
        self
    }
}

impl Serialize for Budget {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "deadline_ms".to_string(),
                self.deadline.map(|d| d.as_secs_f64() * 1e3).to_value(),
            ),
            ("max_playouts".to_string(), self.max_playouts.to_value()),
            ("max_nodes".to_string(), self.max_nodes.to_value()),
        ])
    }
}

impl Deserialize for Budget {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let opt = |name: &str| v.get_field(name).cloned().unwrap_or(Value::Null);
        let deadline_ms: Option<f64> = Option::from_value(&opt("deadline_ms"))?;
        // Specs arrive from outside the program: a deadline no `Duration`
        // holds (including an infinite one) is refused here, not panicked on.
        let deadline = deadline_ms
            .map(|ms| {
                Duration::try_from_secs_f64((ms / 1e3).max(0.0))
                    .map_err(|_| Error::custom(format!("`deadline_ms` out of range: {ms:e}")))
            })
            .transpose()?;
        Ok(Budget {
            deadline,
            max_playouts: Option::from_value(&opt("max_playouts"))?,
            max_nodes: Option::from_value(&opt("max_nodes"))?,
        })
    }
}

// ---------------------------------------------------------------------
// AlgorithmSpec
// ---------------------------------------------------------------------

/// Which search strategy to run, with its per-algorithm configuration.
/// Every serial variant maps to exactly one `*_with` function, so a spec
/// run is reproducible as a direct library call with the same seed.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgorithmSpec {
    /// Nested Monte-Carlo Search at `level` ([`crate::search::nested_with`]).
    Nested { level: u32, config: NestedConfig },
    /// Nested Rollout Policy Adaptation at `level` ([`crate::nrpa::nrpa_with`]).
    Nrpa { level: u32, config: NrpaConfig },
    /// Single-agent UCT ([`crate::uct::uct_with`]).
    Uct {
        config: UctConfig,
        /// Warm-tree mode: the search runs on a re-rootable tree
        /// with a bounded transposition table keyed by
        /// [`Game::state_hash`], so transposed move orders share
        /// statistics and `SearchSession` can keep the tree across
        /// steps. **Off** (the default): bit-identical to the pre-knob
        /// behaviour per seed. **On**: a different (table-backed)
        /// search — run-to-run deterministic, but *not* bit-identical
        /// to reuse-off.
        tree_reuse: bool,
    },
    /// Flat Monte-Carlo: best of `playouts` random playouts
    /// ([`crate::baselines::flat_monte_carlo_with`]).
    FlatMc { playouts: usize },
    /// Leaf-parallel batched NMCS: each candidate move evaluated by a
    /// batch of seeded `level − 1` evaluations on a worker pool
    /// (the strategy documented in [`crate::exec`]).
    LeafParallel {
        level: u32,
        batch: usize,
        threads: usize,
        /// Evaluate and play only the first move (paper Tables I–II mode).
        first_move: bool,
    },
    /// Root-parallel NMCS: the paper's root/median/client hierarchy,
    /// one median game per root move on a worker pool (the strategy of
    /// `parallel_nmcs::run_threads`; `level ≥ 2`, clients run
    /// `level − 2`).
    RootParallel {
        level: u32,
        threads: usize,
        /// Evaluate and play only the first move (paper Tables I–II mode).
        first_move: bool,
    },
    /// Tree-parallel UCT ([`crate::uct`]): the UCT arena selects, expands
    /// and backs up in waves of `threads` descents, and each wave's
    /// rollouts run as one batch on the executor pool. Lane `i` draws
    /// from `tree_worker_seed(seed, i)`, so results are a pure function
    /// of (game, spec, seed) at every width; `threads == 1` is
    /// bit-identical to [`AlgorithmSpec::Uct`] per seed. The
    /// [`StatsMode`] says how a wave's in-flight descents enter
    /// selection (WU-UCT unobserved-sample statistics vs plain virtual
    /// loss); the [`LockStrategy`] still parses but selects nothing.
    TreeParallel {
        config: UctConfig,
        threads: usize,
        lock: LockStrategy,
        stats: StatsMode,
        /// Warm-tree mode, as on [`AlgorithmSpec::Uct`]: expansions
        /// intern their position's [`Game::state_hash`] in a bounded
        /// transposition table so transposed lines share statistics.
        /// Off (default): bit-identical to the pre-knob behaviour.
        /// On: run-to-run deterministic, as off is.
        tree_reuse: bool,
    },
}

impl AlgorithmSpec {
    /// Paper-faithful NMCS at `level`.
    pub fn nested(level: u32) -> Self {
        AlgorithmSpec::Nested {
            level,
            config: NestedConfig::paper(),
        }
    }

    /// NRPA at `level` with `iterations` recursive calls per level and
    /// the paper defaults for everything else (routed through
    /// [`NrpaConfig::paper`], so tunables are never hardcoded at call
    /// sites).
    pub fn nrpa(level: u32, iterations: usize) -> Self {
        AlgorithmSpec::Nrpa {
            level,
            config: NrpaConfig::with_iterations(iterations),
        }
    }

    /// Tree-parallel UCT on `threads` lanes with default tunables
    /// (WU-UCT statistics).
    pub fn tree_parallel(threads: usize) -> Self {
        AlgorithmSpec::TreeParallel {
            config: UctConfig::default(),
            threads,
            lock: LockStrategy::default(),
            stats: StatsMode::default(),
            tree_reuse: false,
        }
    }

    /// Short label for logs, tables, and progress lines.
    pub fn label(&self) -> &'static str {
        match self {
            AlgorithmSpec::Nested { .. } => "nested",
            AlgorithmSpec::Nrpa { .. } => "nrpa",
            AlgorithmSpec::Uct { .. } => "uct",
            AlgorithmSpec::FlatMc { .. } => "flat-mc",
            AlgorithmSpec::LeafParallel { .. } => "leaf-parallel",
            AlgorithmSpec::RootParallel { .. } => "root-parallel",
            AlgorithmSpec::TreeParallel { .. } => "tree-parallel",
        }
    }
}

// The serde representation tags each variant with a `kind` string and
// inlines its configuration; hand-written because the vendored derive
// does not handle data-carrying enums.
impl Serialize for AlgorithmSpec {
    fn to_value(&self) -> Value {
        let kind = |k: &str| ("kind".to_string(), Value::Str(k.to_string()));
        let fields = match self {
            AlgorithmSpec::Nested { level, config } => vec![
                kind("nested"),
                ("level".to_string(), level.to_value()),
                ("config".to_string(), config.to_value()),
            ],
            AlgorithmSpec::Nrpa { level, config } => vec![
                kind("nrpa"),
                ("level".to_string(), level.to_value()),
                ("config".to_string(), config.to_value()),
            ],
            AlgorithmSpec::Uct { config, tree_reuse } => vec![
                kind("uct"),
                ("config".to_string(), config.to_value()),
                ("tree_reuse".to_string(), tree_reuse.to_value()),
            ],
            AlgorithmSpec::FlatMc { playouts } => vec![
                kind("flat_mc"),
                ("playouts".to_string(), playouts.to_value()),
            ],
            AlgorithmSpec::LeafParallel {
                level,
                batch,
                threads,
                first_move,
            } => vec![
                kind("leaf_parallel"),
                ("level".to_string(), level.to_value()),
                ("batch".to_string(), batch.to_value()),
                ("threads".to_string(), threads.to_value()),
                ("first_move".to_string(), first_move.to_value()),
            ],
            AlgorithmSpec::RootParallel {
                level,
                threads,
                first_move,
            } => vec![
                kind("root_parallel"),
                ("level".to_string(), level.to_value()),
                ("threads".to_string(), threads.to_value()),
                ("first_move".to_string(), first_move.to_value()),
            ],
            AlgorithmSpec::TreeParallel {
                config,
                threads,
                lock,
                stats,
                tree_reuse,
            } => vec![
                kind("tree_parallel"),
                ("config".to_string(), config.to_value()),
                ("threads".to_string(), threads.to_value()),
                ("lock".to_string(), lock.to_value()),
                ("stats".to_string(), stats.to_value()),
                ("tree_reuse".to_string(), tree_reuse.to_value()),
            ],
        };
        Value::Object(fields)
    }
}

/// The widest `threads` a spec may ask for. The executors size per-worker
/// state from it before any budget is read, and a failed allocation
/// aborts the process (no `catch_unwind` sees it). The paper's widest run
/// is 64 clients; the shared pool has `cores − 1` workers.
const MAX_THREADS: usize = 1024;

/// The largest leaf-parallel `batch`. Every step sizes one score slot per
/// `(move, batch slot)` pair before any budget is read, so an unbounded
/// batch is an allocation the process cannot survive. The paper runs at
/// most 64 evaluations of a candidate at once.
const MAX_BATCH: usize = 1024;

/// Reads the integer field `name` of a `kind` algorithm and refuses a
/// value below `min` or above `max`. Specs arrive from outside the
/// program (`POST /jobs`, `tables --spec`); a width or level the
/// executors assert on, or would allocate for without bound, has to be
/// turned away here, not inside an engine worker.
fn field_in_range<T>(v: &Value, kind: &str, name: &str, min: T, max: Option<T>) -> Result<T, Error>
where
    T: Deserialize + PartialOrd + std::fmt::Display,
{
    let field = v
        .get_field(name)
        .ok_or_else(|| Error::missing_field(name))?;
    let n = T::from_value(field)?;
    if n < min || max.as_ref().is_some_and(|max| n > *max) {
        let upper = max.map_or(String::new(), |max| format!(" and <= {max}"));
        return Err(Error::custom(format!(
            "`{kind}` needs `{name}` >= {min}{upper}, got {n}"
        )));
    }
    Ok(n)
}

/// Playouts run to the end: the per-playout move cap is gone. A legacy
/// `"playout_cap"` of `null`, or none, was this same search and is
/// accepted; a number named a different search and is refused rather
/// than silently replayed as this one (the derived `NestedConfig` reader
/// ignores fields it does not know, so nothing else would notice it).
fn refuse_playout_cap(fields: Option<&Value>, kind: &str) -> Result<(), Error> {
    let cap = fields.and_then(|f| f.get_field("playout_cap"));
    if let Some(n) = cap.map(Option::<usize>::from_value).transpose()?.flatten() {
        return Err(Error::custom(format!(
            "`{kind}` no longer caps playouts: `playout_cap` must be null, got {n}"
        )));
    }
    Ok(())
}

impl Deserialize for AlgorithmSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |name: &str| -> Result<&Value, Error> {
            v.get_field(name).ok_or_else(|| Error::missing_field(name))
        };
        let opt = |name: &str| v.get_field(name).cloned().unwrap_or(Value::Null);
        let kind = String::from_value(field("kind")?)?;
        match kind.as_str() {
            "nested" => {
                let config = v.get_field("config");
                refuse_playout_cap(config, &kind)?;
                Ok(AlgorithmSpec::Nested {
                    level: u32::from_value(field("level")?)?,
                    config: match config {
                        Some(c) => NestedConfig::from_value(c)?,
                        None => NestedConfig::paper(),
                    },
                })
            }
            "nrpa" => Ok(AlgorithmSpec::Nrpa {
                level: u32::from_value(field("level")?)?,
                config: match v.get_field("config") {
                    Some(c) => NrpaConfig::from_value(c)?,
                    None => NrpaConfig::paper(),
                },
            }),
            "uct" => Ok(AlgorithmSpec::Uct {
                config: match v.get_field("config") {
                    Some(c) => UctConfig::from_value(c)?,
                    None => UctConfig::default(),
                },
                // Pre-knob (PR-9) rows carry no `tree_reuse`; legacy
                // JSON replays with reuse off — the bit-identical path.
                tree_reuse: match v.get_field("tree_reuse") {
                    Some(b) => bool::from_value(b)?,
                    None => false,
                },
            }),
            "flat_mc" => Ok(AlgorithmSpec::FlatMc {
                playouts: usize::from_value(field("playouts")?)?,
            }),
            // The paper's `sample` is a level-0 nested search.
            "sample" => Ok(AlgorithmSpec::nested(0)),
            "leaf_parallel" => {
                refuse_playout_cap(Some(v), &kind)?;
                Ok(AlgorithmSpec::LeafParallel {
                    level: field_in_range(v, &kind, "level", 1, None)?,
                    batch: field_in_range(v, &kind, "batch", 1, Some(MAX_BATCH))?,
                    threads: field_in_range(v, &kind, "threads", 1, Some(MAX_THREADS))?,
                    first_move: bool::from_value(&opt("first_move")).unwrap_or(false),
                })
            }
            "root_parallel" => {
                refuse_playout_cap(Some(v), &kind)?;
                Ok(AlgorithmSpec::RootParallel {
                    level: field_in_range(v, &kind, "level", 2, None)?,
                    threads: field_in_range(v, &kind, "threads", 1, Some(MAX_THREADS))?,
                    first_move: bool::from_value(&opt("first_move")).unwrap_or(false),
                })
            }
            "tree_parallel" => {
                // Batched leaves are gone: a legacy `"leaf_batch"` of 0 or
                // 1 was this same inline search, so it is ignored (as is
                // `"leaf_batch_dynamic"`, which only chose where a slab
                // ran); a batch of 2 or more named a different search and
                // is refused rather than silently replayed as this one.
                if let Some(b) = v.get_field("leaf_batch") {
                    let b = usize::from_value(b)?;
                    if b >= 2 {
                        return Err(Error::custom(format!(
                            "`tree_parallel` no longer batches leaves: `leaf_batch` must be 0 or 1, got {b}"
                        )));
                    }
                }
                Ok(AlgorithmSpec::TreeParallel {
                    config: match v.get_field("config") {
                        Some(c) => UctConfig::from_value(c)?,
                        None => UctConfig::default(),
                    },
                    threads: field_in_range(v, &kind, "threads", 1, Some(MAX_THREADS))?,
                    // Pre-knob (PR-4) rows carry none of these fields;
                    // they replay on the current defaults.
                    lock: match v.get_field("lock") {
                        Some(l) => LockStrategy::from_value(l)?,
                        None => LockStrategy::default(),
                    },
                    stats: match v.get_field("stats") {
                        Some(s) => StatsMode::from_value(s)?,
                        None => StatsMode::default(),
                    },
                    tree_reuse: match v.get_field("tree_reuse") {
                        Some(b) => bool::from_value(b)?,
                        None => false,
                    },
                })
            }
            other => Err(Error::custom(format!("unknown algorithm kind `{other}`"))),
        }
    }
}

// ---------------------------------------------------------------------
// SearchSpec
// ---------------------------------------------------------------------

/// A complete, serde-able description of one search run: strategy +
/// configuration + [`Budget`] + seed. Build one fluently via the
/// constructors (which return a [`SearchBuilder`]) and run it with
/// [`SearchSpec::run`] / [`Searcher::search`]:
///
/// ```
/// use nmcs_core::spec::SearchSpec;
/// # use nmcs_core::{CodedGame, Game, Score};
/// # #[derive(Clone)]
/// # struct Walk(Vec<u8>);
/// # impl Game for Walk {
/// #     type Move = u8;
/// #     fn legal_moves(&self, out: &mut Vec<u8>) {
/// #         if self.0.len() < 3 { out.extend_from_slice(&[0, 1]); }
/// #     }
/// #     fn play(&mut self, mv: &u8) { self.0.push(*mv); }
/// #     fn score(&self) -> Score { self.0.iter().map(|&m| m as Score).sum() }
/// #     fn moves_played(&self) -> usize { self.0.len() }
/// # }
/// # impl CodedGame for Walk { fn move_code(&self, mv: &u8) -> u64 { *mv as u64 } }
/// let spec = SearchSpec::nested(1).seed(7).max_playouts(10_000).build();
/// let json = serde_json::to_string(&spec).unwrap();          // persist …
/// let again: SearchSpec = serde_json::from_str(&json).unwrap(); // … replay
/// assert_eq!(spec, again);
/// assert_eq!(spec.run(&Walk(vec![])).score, again.run(&Walk(vec![])).score);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpec {
    /// The strategy and its configuration.
    pub algorithm: AlgorithmSpec,
    /// Stopping limits (all optional).
    pub budget: Budget,
    /// Root seed; every random draw of the run derives from it.
    pub seed: u64,
}

impl SearchSpec {
    /// A spec from parts (the fluent constructors below are usually
    /// nicer).
    pub fn new(algorithm: AlgorithmSpec) -> Self {
        SearchSpec {
            algorithm,
            budget: Budget::none(),
            seed: 0,
        }
    }

    /// Paper-faithful NMCS at `level`.
    pub fn nested(level: u32) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::nested(level))
    }

    /// NMCS at `level` with an explicit [`NestedConfig`].
    pub fn nested_with(level: u32, config: NestedConfig) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::Nested { level, config })
    }

    /// NRPA at `level` with the paper defaults ([`NrpaConfig::paper`]).
    pub fn nrpa(level: u32) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::Nrpa {
            level,
            config: NrpaConfig::paper(),
        })
    }

    /// NRPA at `level` with an explicit [`NrpaConfig`].
    pub fn nrpa_with(level: u32, config: NrpaConfig) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::Nrpa { level, config })
    }

    /// Single-agent UCT with default tunables.
    pub fn uct() -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::Uct {
            config: UctConfig::default(),
            tree_reuse: false,
        })
    }

    /// UCT with an explicit [`UctConfig`].
    pub fn uct_with(config: UctConfig) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::Uct {
            config,
            tree_reuse: false,
        })
    }

    /// Flat Monte-Carlo with `playouts` samples.
    pub fn flat_mc(playouts: usize) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::FlatMc { playouts })
    }

    /// A single random playout: the paper's `sample`, which is NMCS at
    /// level 0 (`nested(0)`). Level 0 never reads the memory policy.
    pub fn sample() -> SearchBuilder {
        Self::nested(0)
    }

    /// Leaf-parallel batched NMCS: `batch` evaluations per candidate
    /// move on `threads` workers.
    pub fn leaf(level: u32, batch: usize, threads: usize) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::LeafParallel {
            level,
            batch,
            threads,
            first_move: false,
        })
    }

    /// Root-parallel NMCS (`level ≥ 2`) on `threads` workers.
    pub fn root_parallel(level: u32, threads: usize) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::RootParallel {
            level,
            threads,
            first_move: false,
        })
    }

    /// Tree-parallel UCT in waves of `threads` descents (default
    /// tunables: WU-UCT statistics — tune with
    /// [`SearchBuilder::stats_mode`]). With `threads == 1` this is
    /// bit-identical to [`SearchSpec::uct`] per seed; at every width the
    /// result is a pure function of (game, spec, seed).
    pub fn tree_parallel(threads: usize) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::tree_parallel(threads))
    }

    /// Tree-parallel UCT with an explicit [`UctConfig`] (default
    /// execution knobs; tune with the builder methods).
    pub fn tree_parallel_with(config: UctConfig, threads: usize) -> SearchBuilder {
        SearchBuilder::new(AlgorithmSpec::TreeParallel {
            config,
            threads,
            lock: LockStrategy::default(),
            stats: StatsMode::default(),
            tree_reuse: false,
        })
    }

    /// Runs the spec on `game`. See [`Searcher::search`] for the full
    /// contract.
    pub fn run<G>(&self, game: &G) -> SearchReport<G::Move>
    where
        G: CodedGame + Send + Sync,
        G::Move: Send + Sync,
    {
        self.search(game, None)
    }

    /// Runs the spec on `game`, observing `cancel` cooperatively: every
    /// backend polls the token at playout-move granularity and returns
    /// its best-so-far result with `interrupted` set when cancelled.
    pub fn run_cancellable<G>(&self, game: &G, cancel: &CancelToken) -> SearchReport<G::Move>
    where
        G: CodedGame + Send + Sync,
        G::Move: Send + Sync,
    {
        self.search(game, Some(cancel))
    }
}

impl Serialize for SearchSpec {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("algorithm".to_string(), self.algorithm.to_value()),
            ("budget".to_string(), self.budget.to_value()),
            ("seed".to_string(), self.seed.to_value()),
        ])
    }
}

impl Deserialize for SearchSpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(SearchSpec {
            algorithm: AlgorithmSpec::from_value(
                v.get_field("algorithm")
                    .ok_or_else(|| Error::missing_field("algorithm"))?,
            )?,
            budget: match v.get_field("budget") {
                Some(b) => Budget::from_value(b)?,
                None => Budget::none(),
            },
            seed: match v.get_field("seed") {
                Some(s) => u64::from_value(s)?,
                None => 0,
            },
        })
    }
}

// ---------------------------------------------------------------------
// Searcher
// ---------------------------------------------------------------------

/// A strategy that can search a game under a budget. Implemented by
/// [`SearchSpec`] for every coded game; future backends (tree-parallel,
/// cluster, async) plug in by implementing this trait. The object-safe
/// erased twin for heterogeneous collections is
/// [`crate::erased::AnySearcher`].
pub trait Searcher<G: Game> {
    /// Runs the search on `game`, optionally observing a cancel token.
    ///
    /// Contract: the returned report's `sequence` replays from `game` to
    /// a position whose score is `score` (one exception: a parallel
    /// strategy in `first_move` mode reports the best *evaluation* score
    /// of the single move it plays, the paper's Tables I–II semantics);
    /// `interrupted` is `Some` iff the run stopped on a budget limit or
    /// cancellation; and when the budget is not hit, the result is
    /// bit-identical to the same strategy run without any budget.
    fn search(&self, game: &G, cancel: Option<&CancelToken>) -> SearchReport<G::Move>;
}

impl<G> Searcher<G> for SearchSpec
where
    G: CodedGame + Send + Sync,
    G::Move: Send + Sync,
{
    fn search(&self, game: &G, cancel: Option<&CancelToken>) -> SearchReport<G::Move> {
        let started = crate::metrics::monotonic_now();
        let mut ctx = SearchCtx::new(&self.budget, cancel);
        let mut client_jobs = 0u64;
        let line = match &self.algorithm {
            AlgorithmSpec::Nested { level, config } => {
                let mut rng = Rng::seeded(self.seed);
                nested_with(game, *level, config, &mut rng, &mut ctx)
            }
            AlgorithmSpec::Nrpa { level, config } => {
                let mut rng = Rng::seeded(self.seed);
                nrpa_with(game, *level, config, &mut rng, &mut ctx)
            }
            AlgorithmSpec::Uct { config, tree_reuse } => {
                // Reuse-on gives the same arena a transposition table,
                // so the *only* behavioural delta of the knob is the
                // statistics sharing it exists to provide.
                let table = tree_reuse.then_some(DEFAULT_TT_BYTES);
                let wu = StatsMode::WuUct;
                UctArena::new(table).farm(game, config, wu, 1, self.seed, &mut ctx)
            }
            AlgorithmSpec::FlatMc { playouts } => {
                let mut rng = Rng::seeded(self.seed);
                flat_monte_carlo_with(game, *playouts, &mut rng, &mut ctx)
            }
            AlgorithmSpec::LeafParallel {
                level,
                batch,
                threads,
                first_move,
            } => {
                let fan = exec::Fan::new(*threads, self.seed);
                let run = exec::leaf_parallel(game, *level, *batch, *first_move, &fan, &mut ctx);
                client_jobs = run.client_jobs;
                (run.score, run.sequence)
            }
            AlgorithmSpec::RootParallel {
                level,
                threads,
                first_move,
            } => {
                let fan = exec::Fan::new(*threads, self.seed);
                let run = exec::root_parallel(game, *level, *first_move, &fan, &mut ctx);
                client_jobs = run.client_jobs;
                (run.score, run.sequence)
            }
            AlgorithmSpec::TreeParallel {
                config,
                threads,
                stats,
                tree_reuse,
                ..
            } => {
                let table = tree_reuse.then_some(DEFAULT_TT_BYTES);
                UctArena::new(table).farm(game, config, *stats, *threads, self.seed, &mut ctx)
            }
        };
        finish_search(&self.algorithm, self.seed, started, ctx, line, client_jobs)
    }
}

/// Closes a completed search: reads the interruption, wall time and
/// stats off `ctx`, records them in the process-wide
/// [`search_metrics`](crate::metrics::search_metrics), and assembles
/// the report. One-shot [`Searcher::search`] runs and warm
/// [`SearchSession`](crate::SearchSession) steps both end here, so every
/// completed search is counted exactly once.
///
/// Metrics are recorded after the backend returned — never inside a
/// rollout loop, and never touching the RNG, so enabling them cannot
/// change any result (asserted by `tests/metrics_props.rs`).
pub(crate) fn finish_search<M>(
    algorithm: &AlgorithmSpec,
    seed: u64,
    started: Instant,
    ctx: SearchCtx,
    (score, sequence): (Score, Vec<M>),
    client_jobs: u64,
) -> SearchReport<M> {
    let interrupted = ctx.interruption();
    let elapsed = started.elapsed();
    let stats = ctx.into_stats();
    if crate::metrics::metrics_enabled() {
        let reg = crate::metrics::search_metrics();
        reg.searches.incr();
        reg.playouts.add(stats.playouts);
        reg.playout_moves.add(stats.playout_moves);
        match interrupted {
            Some(Interruption::Deadline) => reg.deadline_trips.incr(),
            Some(Interruption::PlayoutBudget) => reg.playout_trips.incr(),
            Some(Interruption::NodeBudget) => reg.node_trips.incr(),
            Some(Interruption::Cancelled) => reg.cancellations.incr(),
            None => {}
        }
        reg.wall.record_label(
            algorithm.label(),
            u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
        );
    }
    SearchReport {
        score,
        sequence,
        stats,
        elapsed,
        client_jobs,
        interrupted,
        seed,
    }
}

// ---------------------------------------------------------------------
// SearchBuilder
// ---------------------------------------------------------------------

/// Fluent builder returned by the [`SearchSpec`] constructors. Every
/// method is chainable; finish with [`SearchBuilder::build`] (to get the
/// serde-able spec) or [`SearchBuilder::run`] (to search immediately):
///
/// `SearchSpec::nested(2).deadline_ms(200).seed(42).run(&game)`
#[derive(Debug, Clone)]
pub struct SearchBuilder {
    spec: SearchSpec,
    cancel: Option<CancelToken>,
}

impl SearchBuilder {
    fn new(algorithm: AlgorithmSpec) -> Self {
        SearchBuilder {
            spec: SearchSpec::new(algorithm),
            cancel: None,
        }
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Replaces the whole budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.spec.budget = budget;
        self
    }

    /// Wall-clock limit.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.spec.budget.deadline = Some(d);
        self
    }

    /// Wall-clock limit in milliseconds.
    pub fn deadline_ms(self, ms: u64) -> Self {
        self.deadline(Duration::from_millis(ms))
    }

    /// Playout cap (completed playouts, summed across workers).
    pub fn max_playouts(mut self, n: u64) -> Self {
        self.spec.budget.max_playouts = Some(n);
        self
    }

    /// Node/expansion cap (summed across workers).
    pub fn max_nodes(mut self, n: u64) -> Self {
        self.spec.budget.max_nodes = Some(n);
        self
    }

    /// Cross-step memory policy (NMCS variants only; ignored by other
    /// strategies).
    pub fn memory(mut self, memory: MemoryPolicy) -> Self {
        if let AlgorithmSpec::Nested { config, .. } = &mut self.spec.algorithm {
            config.memory = memory;
        }
        self
    }

    /// Evaluate and play only the first move (parallel variants; the
    /// paper's Tables I–II mode).
    pub fn first_move_only(mut self) -> Self {
        match &mut self.spec.algorithm {
            AlgorithmSpec::LeafParallel { first_move, .. }
            | AlgorithmSpec::RootParallel { first_move, .. } => *first_move = true,
            _ => {}
        }
        self
    }

    /// Sets the tree-parallel [`LockStrategy`], which still parses but
    /// selects nothing: the UCT arena takes no lock at any width.
    pub fn lock_strategy(mut self, strategy: LockStrategy) -> Self {
        if let AlgorithmSpec::TreeParallel { lock, .. } = &mut self.spec.algorithm {
            *lock = strategy;
        }
        self
    }

    /// How a wave's in-flight descents bias selection (tree-parallel
    /// only; ignored by other strategies).
    pub fn stats_mode(mut self, mode: StatsMode) -> Self {
        if let AlgorithmSpec::TreeParallel { stats, .. } = &mut self.spec.algorithm {
            *stats = mode;
        }
        self
    }

    /// Warm-tree mode (UCT and tree-parallel only; ignored by other
    /// strategies): the search runs on a re-rootable tree with a
    /// bounded transposition table keyed by [`Game::state_hash`], so
    /// transposed move orders share node statistics and sessions can
    /// keep the tree warm between steps.
    ///
    /// Determinism contract, stated explicitly: **reuse-off is
    /// bit-identical to the pre-knob behaviour** (legacy JSON without
    /// the field deserialises to off); **reuse-on is run-to-run
    /// deterministic** (same spec + seed → same result on every run, at
    /// every width), but is a different search from reuse-off — table
    /// sharing is the point.
    pub fn tree_reuse(mut self, reuse: bool) -> Self {
        match &mut self.spec.algorithm {
            AlgorithmSpec::Uct { tree_reuse, .. }
            | AlgorithmSpec::TreeParallel { tree_reuse, .. } => *tree_reuse = reuse,
            _ => {}
        }
        self
    }

    /// Attaches a cancel token observed by [`SearchBuilder::run`].
    pub fn cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Finishes the builder, returning the plain serde-able spec.
    pub fn build(self) -> SearchSpec {
        self.spec
    }

    /// Builds and immediately runs on `game`.
    pub fn run<G>(self, game: &G) -> SearchReport<G::Move>
    where
        G: CodedGame + Send + Sync,
        G::Move: Send + Sync,
    {
        self.spec.search(game, self.cancel.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::Score;
    use crate::report::Interruption;
    use crate::uct::uct_with;

    /// Ternary toy with a unique optimum at all-2s, coded for NRPA.
    #[derive(Clone, Debug)]
    struct Ternary {
        depth: usize,
        taken: Vec<u8>,
    }

    impl Game for Ternary {
        type Move = u8;
        fn legal_moves(&self, out: &mut Vec<u8>) {
            if self.taken.len() < self.depth {
                out.extend_from_slice(&[0, 1, 2]);
            }
        }
        fn play(&mut self, mv: &u8) {
            self.taken.push(*mv);
        }
        fn score(&self) -> Score {
            self.taken.iter().fold(0, |acc, &m| acc * 3 + m as Score)
        }
        fn moves_played(&self) -> usize {
            self.taken.len()
        }
    }

    impl CodedGame for Ternary {
        fn move_code(&self, mv: &u8) -> u64 {
            (self.taken.len() as u64) << 2 | *mv as u64
        }
    }

    fn game() -> Ternary {
        Ternary {
            depth: 4,
            taken: vec![],
        }
    }

    #[test]
    fn builder_produces_the_expected_spec() {
        let spec = SearchSpec::nested(2)
            .deadline_ms(200)
            .seed(42)
            .max_playouts(1_000)
            .build();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.budget.deadline, Some(Duration::from_millis(200)));
        assert_eq!(spec.budget.max_playouts, Some(1_000));
        assert!(matches!(
            spec.algorithm,
            AlgorithmSpec::Nested { level: 2, .. }
        ));
    }

    #[test]
    fn every_serial_strategy_matches_its_legacy_entry_point() {
        use crate::search::{sample, SearchResult};

        let g = game();
        for seed in [1u64, 7, 42] {
            let r = SearchSpec::nested(2).seed(seed).run(&g);
            let d = SearchResult::unbounded(|ctx| {
                nested_with(&g, 2, &NestedConfig::paper(), &mut Rng::seeded(seed), ctx)
            });
            assert_eq!(
                (r.score, &r.sequence, &r.stats),
                (d.score, &d.sequence, &d.stats)
            );

            let cfg = NrpaConfig::with_iterations(8);
            let r = SearchSpec::nrpa_with(1, cfg.clone()).seed(seed).run(&g);
            let d =
                SearchResult::unbounded(|ctx| nrpa_with(&g, 1, &cfg, &mut Rng::seeded(seed), ctx));
            assert_eq!(
                (r.score, &r.sequence, &r.stats),
                (d.score, &d.sequence, &d.stats)
            );

            let ucfg = UctConfig {
                iterations: 64,
                ..UctConfig::default()
            };
            let r = SearchSpec::uct_with(ucfg.clone()).seed(seed).run(&g);
            let d = SearchResult::unbounded(|ctx| uct_with(&g, &ucfg, &mut Rng::seeded(seed), ctx));
            assert_eq!(
                (r.score, &r.sequence, &r.stats),
                (d.score, &d.sequence, &d.stats)
            );

            let r = SearchSpec::flat_mc(16).seed(seed).run(&g);
            let d = SearchResult::unbounded(|ctx| {
                flat_monte_carlo_with(&g, 16, &mut Rng::seeded(seed), ctx)
            });
            assert_eq!(
                (r.score, &r.sequence, &r.stats),
                (d.score, &d.sequence, &d.stats)
            );

            let r = SearchSpec::sample().seed(seed).run(&g);
            let d = sample(&g, &mut Rng::seeded(seed));
            assert_eq!(
                (r.score, &r.sequence, &r.stats),
                (d.score, &d.sequence, &d.stats)
            );
        }
    }

    #[test]
    fn single_worker_tree_parallel_spec_equals_uct_spec() {
        let g = Ternary {
            depth: 5,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 250,
            ..UctConfig::default()
        };
        for seed in [1u64, 9, 77] {
            let uct = SearchSpec::uct_with(cfg.clone()).seed(seed).run(&g);
            let tree = SearchSpec::tree_parallel_with(cfg.clone(), 1)
                .seed(seed)
                .run(&g);
            assert_eq!(tree.score, uct.score, "seed {seed}");
            assert_eq!(tree.sequence, uct.sequence, "seed {seed}");
            assert_eq!(tree.stats, uct.stats, "seed {seed}");
        }
    }

    #[test]
    fn multi_worker_tree_parallel_reports_replay() {
        let g = Ternary {
            depth: 6,
            taken: vec![],
        };
        let r = SearchSpec::tree_parallel(4).seed(3).run(&g);
        let again = SearchSpec::tree_parallel(4).seed(3).run(&g);
        assert_eq!((&again.sequence, again.stats), (&r.sequence, r.stats));
        let mut replay = g;
        for mv in &r.sequence {
            replay.play(mv);
        }
        assert_eq!(replay.score(), r.score);
        assert!(r.interrupted.is_none());
    }

    #[test]
    fn parallel_strategies_are_worker_count_invariant() {
        let g = Ternary {
            depth: 5,
            taken: vec![],
        };
        for (one, four) in [
            (
                SearchSpec::leaf(1, 4, 1).seed(9).run(&g),
                SearchSpec::leaf(1, 4, 4).seed(9).run(&g),
            ),
            (
                SearchSpec::root_parallel(2, 1).seed(9).run(&g),
                SearchSpec::root_parallel(2, 4).seed(9).run(&g),
            ),
        ] {
            assert_eq!(one.score, four.score);
            assert_eq!(one.sequence, four.sequence);
            assert_eq!(one.stats, four.stats);
            assert_eq!(one.client_jobs, four.client_jobs);
        }
    }

    #[test]
    fn reports_replay_to_their_score() {
        let g = game();
        for spec in [
            SearchSpec::nested(1).seed(3).build(),
            SearchSpec::uct().seed(3).build(),
            SearchSpec::flat_mc(8).seed(3).build(),
            SearchSpec::leaf(1, 2, 2).seed(3).build(),
            SearchSpec::root_parallel(2, 2).seed(3).build(),
        ] {
            let r = spec.run(&g);
            let mut replay = g.clone();
            for mv in &r.sequence {
                replay.play(mv);
            }
            assert_eq!(replay.score(), r.score, "{}", spec.algorithm.label());
            assert!(r.interrupted.is_none());
        }
    }

    #[test]
    fn pre_cancelled_token_returns_promptly_with_interrupted_set() {
        let token = CancelToken::new();
        token.cancel();
        let g = Ternary {
            depth: 64,
            taken: vec![],
        };
        for spec in [
            SearchSpec::nested(3).seed(1).build(),
            SearchSpec::nrpa(2).seed(1).build(),
            SearchSpec::uct().seed(1).build(),
            SearchSpec::flat_mc(1_000_000).seed(1).build(),
            SearchSpec::leaf(2, 8, 2).seed(1).build(),
            SearchSpec::root_parallel(2, 2).seed(1).build(),
        ] {
            let r = spec.run_cancellable(&g, &token);
            assert_eq!(
                r.interrupted,
                Some(Interruption::Cancelled),
                "{}",
                spec.algorithm.label()
            );
        }
    }

    #[test]
    fn spec_serde_round_trips_every_variant() {
        let specs = [
            SearchSpec::nested(3).seed(5).deadline_ms(250).build(),
            SearchSpec::nested_with(2, NestedConfig::greedy()).build(),
            SearchSpec::nrpa(2).seed(1).max_playouts(500).build(),
            SearchSpec::uct().max_nodes(10_000).build(),
            SearchSpec::flat_mc(64).build(),
            SearchSpec::sample().seed(11).build(),
            SearchSpec::leaf(2, 16, 8).build(),
            SearchSpec::root_parallel(3, 8).first_move_only().build(),
            SearchSpec::tree_parallel(4)
                .seed(8)
                .max_playouts(600)
                .build(),
            SearchSpec::tree_parallel_with(
                UctConfig {
                    iterations: 123,
                    ..UctConfig::default()
                },
                2,
            )
            .build(),
        ];
        for spec in specs {
            let json = serde_json::to_string(&spec).unwrap();
            let back: SearchSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back, "round-trip of {json}");
        }
    }

    #[test]
    fn serde_refuses_widths_and_levels_the_executors_assert_on() {
        // One case per rejected field; each error names the field.
        for (algorithm, field) in [
            (
                r#"{"kind":"leaf_parallel","level":0,"batch":4,"threads":2}"#,
                "level",
            ),
            (
                r#"{"kind":"leaf_parallel","level":1,"batch":0,"threads":2}"#,
                "batch",
            ),
            (
                r#"{"kind":"leaf_parallel","level":1,"batch":4,"threads":0}"#,
                "threads",
            ),
            (r#"{"kind":"root_parallel","level":1,"threads":2}"#, "level"),
            (
                r#"{"kind":"root_parallel","level":2,"threads":0}"#,
                "threads",
            ),
            (r#"{"kind":"tree_parallel","threads":0}"#, "threads"),
            // Over-wide: the executors would size a `Vec` from these
            // before any budget is read, and a failed allocation aborts.
            (
                r#"{"kind":"tree_parallel","threads":1099511627776}"#,
                "threads",
            ),
            (
                r#"{"kind":"leaf_parallel","level":1,"batch":4,"threads":1099511627776}"#,
                "threads",
            ),
            (
                r#"{"kind":"root_parallel","level":2,"threads":1099511627776}"#,
                "threads",
            ),
            (
                r#"{"kind":"leaf_parallel","level":1,"batch":1099511627776,"threads":2}"#,
                "batch",
            ),
            (
                r#"{"kind":"leaf_parallel","level":1,"batch":4611686018427387904,"threads":2}"#,
                "batch",
            ),
        ] {
            let err = serde_json::from_str::<AlgorithmSpec>(algorithm)
                .expect_err(algorithm)
                .to_string();
            assert!(
                err.contains(&format!("`{field}` >= ")),
                "{algorithm}: {err}"
            );
        }
    }

    #[test]
    fn unhit_budget_is_bit_identical_to_unbudgeted_run() {
        let g = game();
        for spec_pair in [
            (
                SearchSpec::nested(2).seed(4).build(),
                SearchSpec::nested(2)
                    .seed(4)
                    .deadline(Duration::from_secs(3600))
                    .max_playouts(u64::MAX)
                    .max_nodes(u64::MAX)
                    .build(),
            ),
            (
                SearchSpec::uct().seed(4).build(),
                SearchSpec::uct().seed(4).max_playouts(u64::MAX).build(),
            ),
        ] {
            let (plain, budgeted) = spec_pair;
            let a = plain.run(&g);
            let b = budgeted.run(&g);
            assert_eq!(a.score, b.score);
            assert_eq!(a.sequence, b.sequence);
            assert_eq!(a.stats, b.stats, "budget checks must not perturb the RNG");
            assert!(b.interrupted.is_none());
        }
    }

    #[test]
    fn nrpa_constructor_routes_through_paper_defaults() {
        let AlgorithmSpec::Nrpa { config, .. } = AlgorithmSpec::nrpa(2, 37) else {
            panic!("wrong variant");
        };
        assert_eq!(config.iterations, 37);
        assert_eq!(config.alpha, NrpaConfig::paper().alpha);
    }
}
