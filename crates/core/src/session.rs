//! Warm-tree search sessions: persistent search state across steps.
//!
//! A one-shot [`SearchSpec`] run rebuilds its tree from scratch every
//! time. A [`SearchSession`] instead *keeps* the tree between steps:
//! each [`SearchSession::step`] searches from the current position,
//! commits the first move of the best line, plays it, and re-roots the
//! tree on the chosen child — so the statistics gathered below that
//! child carry into the next step, and the bounded transposition table
//! keyed by [`Game::state_hash`] keeps sharing statistics across
//! transposed lines. At equal per-step budget, a warm search starts
//! from thousands of already-evaluated positions instead of zero
//! (`tables --reuse` measures the gap).
//!
//! Both UCT kinds keep the same tree, the arena (`UctArena`) with its
//! table: `uct` steps it with one lane, `tree_parallel(w)` with `w`.
//! At width 1, in the default WU-UCT stats mode, the two are
//! bit-identical at every step, table counters included
//! (`tests/session_props.rs`).
//!
//! Determinism: step `k` searches with
//! [`session_step_seed`]`(spec.seed, k)` (step 0 ≡ the root seed), so a
//! session is run-to-run deterministic, as every backend is. Reuse-off
//! sessions run the plain spec per step, cold, bit-identical to a
//! sequence of one-shot runs at the derived seeds.

use crate::ctx::SearchCtx;
use crate::game::{Game, Score};
use crate::nrpa::CodedGame;
use crate::report::{Interruption, SearchReport};
use crate::seeds::session_step_seed;
use crate::spec::{finish_search, AlgorithmSpec, CancelToken, SearchSpec, Searcher};
use crate::uct::{StatsMode, UctArena, UctConfig, DEFAULT_TT_BYTES};

/// The tree a warm step searches with: a `uct` or `tree_parallel`
/// spec's tunables, stats mode and lane count (`uct` is one WU-UCT
/// lane).
fn uct_shape(algorithm: &AlgorithmSpec) -> Option<(&UctConfig, StatsMode, usize)> {
    match algorithm {
        AlgorithmSpec::Uct { config, .. } => Some((config, StatsMode::WuUct, 1)),
        AlgorithmSpec::TreeParallel {
            config,
            stats,
            threads,
            ..
        } => Some((config, *stats, *threads)),
        _ => None,
    }
}

/// Persistent search state for stepping one game to completion: the
/// current position, the committed moves, and — when the spec's
/// `tree_reuse` knob is on — the warm tree re-rooted after every
/// committed move.
///
/// The engine holds one per open session (`Engine::open_session`),
/// serving each session-scoped job as one [`SearchSession::step`].
pub struct SearchSession<G: Game> {
    game: G,
    spec: SearchSpec,
    /// The warm tree, when the spec's `tree_reuse` is on.
    tree: Option<UctArena<G::Move>>,
    step: usize,
    committed: Vec<G::Move>,
}

impl<G> SearchSession<G>
where
    G: CodedGame + Send + Sync,
    G::Move: Send + Sync,
{
    /// Opens a session at `game`'s current position. Whether steps run
    /// warm is read off the spec: `tree_reuse` on a UCT or
    /// tree-parallel algorithm builds the tree (with its transposition
    /// table bounded to `table_bytes`, or the default bound if `None`);
    /// anything else steps cold.
    pub fn new(game: G, spec: SearchSpec, table_bytes: Option<usize>) -> Self {
        let tree = match &spec.algorithm {
            AlgorithmSpec::Uct {
                tree_reuse: true, ..
            }
            | AlgorithmSpec::TreeParallel {
                tree_reuse: true, ..
            } => Some(UctArena::new(Some(table_bytes.unwrap_or(DEFAULT_TT_BYTES)))),
            _ => None,
        };
        SearchSession {
            game,
            spec,
            tree,
            step: 0,
            committed: Vec::new(),
        }
    }

    /// Searches from the current position under the spec's per-step
    /// budget, commits the first move of the best line found, plays it,
    /// and (warm sessions) re-roots the tree on it. The returned
    /// report's `sequence` is the full best line *from the pre-step
    /// position* — its head is what was committed, the tail is the
    /// projection the next steps will revise.
    ///
    /// Stepping a terminal position is a no-op report: current score,
    /// empty sequence, nothing committed. A **cancelled** step also
    /// commits nothing (its truncated line is discarded, the position
    /// stays put); a **budget-tripped** step commits normally — its
    /// best-so-far line is a valid result. Neither poisons the session.
    pub fn step(&mut self, cancel: Option<&CancelToken>) -> SearchReport<G::Move> {
        let step_seed = session_step_seed(self.spec.seed, self.step);
        self.step += 1;
        if self.game.is_terminal() {
            return SearchReport {
                score: self.game.score(),
                sequence: Vec::new(),
                stats: Default::default(),
                elapsed: std::time::Duration::ZERO,
                client_jobs: 0,
                interrupted: None,
                seed: step_seed,
            };
        }
        let report = match (&mut self.tree, uct_shape(&self.spec.algorithm)) {
            (Some(arena), Some((config, stats, threads))) => {
                let started = crate::metrics::monotonic_now();
                let mut ctx = SearchCtx::new(&self.spec.budget, cancel);
                let line = arena.farm(&self.game, config, stats, threads, step_seed, &mut ctx);
                let report = finish_search(&self.spec.algorithm, step_seed, started, ctx, line, 0);
                if let Some(mv) = committable(&report) {
                    arena.reroot(mv);
                }
                report
            }
            _ => {
                // The plain spec at the step seed. A budget trip (or
                // cancellation) surfaces in the report but does not
                // poison the session — the next step starts fresh from
                // whatever was committed.
                let mut spec = self.spec.clone();
                spec.seed = step_seed;
                spec.search(&self.game, cancel)
            }
        };
        if let Some(mv) = committable(&report) {
            self.game.play(mv);
            self.committed.push(mv.clone());
        }
        report
    }

    /// The current (post-commit) position.
    pub fn game(&self) -> &G {
        &self.game
    }

    /// The spec steps run under.
    pub fn spec(&self) -> &SearchSpec {
        &self.spec
    }

    /// Moves committed so far, in order.
    pub fn committed(&self) -> &[G::Move] {
        &self.committed
    }

    /// Steps taken so far (terminal no-op steps included).
    pub fn steps(&self) -> usize {
        self.step
    }

    /// Whether the position is terminal (further steps are no-ops).
    pub fn is_done(&self) -> bool {
        self.game.is_terminal()
    }

    /// The current position's score.
    pub fn score(&self) -> Score {
        self.game.score()
    }

    /// Whether steps run on a warm tree.
    pub fn is_warm(&self) -> bool {
        self.tree.is_some()
    }

    /// Approximate heap bytes held across steps: the warm tree plus its
    /// transposition table (0 for cold sessions — they keep no search
    /// state), read off the arena's vectors' capacities in O(1).
    /// Statistics cells are reclaimed once no node or table slot holds
    /// them, so they stay within one per live node plus one per
    /// occupied slot.
    pub fn approx_bytes(&self) -> usize {
        self.tree.as_ref().map_or(0, UctArena::approx_bytes)
    }

    /// (hits, evictions) of the warm tree's transposition table.
    pub fn table_counters(&self) -> (u64, u64) {
        self.tree.as_ref().map_or((0, 0), UctArena::table_counters)
    }
}

/// The move a step commits: the head of its line, unless the step was
/// cancelled. Cancellation means "stop and discard", unlike a tripped
/// budget whose best-so-far line is a valid (replayable) result.
fn committable<M>(report: &SearchReport<M>) -> Option<&M> {
    match report.interrupted {
        Some(Interruption::Cancelled) => None,
        _ => report.sequence.first(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SearchSpec;

    /// Depth × width decision table with known optimum, transposition-
    /// free (the taken prefix is the position).
    #[derive(Clone, Debug)]
    struct Walk {
        taken: Vec<u8>,
        depth: usize,
    }

    impl Game for Walk {
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
            self.taken.iter().map(|&m| m as Score).sum()
        }
        fn moves_played(&self) -> usize {
            self.taken.len()
        }
    }

    impl CodedGame for Walk {
        fn move_code(&self, mv: &u8) -> u64 {
            ((self.taken.len() as u64) << 2) | *mv as u64
        }
    }

    fn walk(depth: usize) -> Walk {
        Walk {
            taken: Vec::new(),
            depth,
        }
    }

    #[test]
    fn warm_session_steps_to_terminal_and_finds_the_optimum() {
        // Per-step commit is greedy in the searched line's head, which
        // is not optimal for every seed at this budget — this seed is
        // one where the default-config search solves the walk, pinned
        // by the session determinism contract.
        let spec = SearchSpec::uct().tree_reuse(true).seed(0).build();
        let mut s = SearchSession::new(walk(6), spec, None);
        assert!(s.is_warm());
        let mut guard = 0;
        while !s.is_done() {
            let r = s.step(None);
            assert!(!r.sequence.is_empty(), "non-terminal steps commit a move");
            guard += 1;
            assert!(guard <= 6, "one committed move per step");
        }
        assert_eq!(s.score(), 12, "greedy-by-search walk finds all 2s");
        assert_eq!(s.committed(), &[2u8; 6]);
        assert!(s.approx_bytes() > 0, "warm sessions hold tree state");
        // Terminal steps are no-ops.
        let r = s.step(None);
        assert!(r.sequence.is_empty());
        assert_eq!(r.score, 12);
        assert_eq!(s.steps(), 7);
    }

    #[test]
    fn cold_session_commits_the_one_shot_first_move() {
        // Reuse off: step 0 must match a plain one-shot run at the same
        // seed, bit for bit (same backend, same seed, same position).
        let spec = SearchSpec::uct().seed(11).build();
        let one_shot = spec.run(&walk(5));
        let mut s = SearchSession::new(walk(5), spec, None);
        assert!(!s.is_warm());
        assert_eq!(s.approx_bytes(), 0, "cold sessions keep no search state");
        let r = s.step(None);
        assert_eq!(r.score, one_shot.score);
        assert_eq!(r.sequence, one_shot.sequence);
        assert_eq!(s.committed(), &one_shot.sequence[..1]);
    }

    #[test]
    fn sessions_are_run_to_run_deterministic() {
        for reuse in [false, true] {
            let spec = SearchSpec::uct().tree_reuse(reuse).seed(5).build();
            let run = || {
                let mut s = SearchSession::new(walk(5), spec.clone(), None);
                let mut scores = Vec::new();
                while !s.is_done() {
                    scores.push(s.step(None).score);
                }
                (scores, s.committed().to_vec())
            };
            assert_eq!(run(), run(), "reuse={reuse}");
        }
    }

    #[test]
    fn non_tree_algorithms_step_cold() {
        // As above: greedy head-commit solves the walk at this seed
        // specifically; the pin is on determinism, not on per-step
        // optimality in general.
        let spec = SearchSpec::nested(1).seed(1).build();
        let mut s = SearchSession::new(walk(4), spec, None);
        assert!(!s.is_warm());
        while !s.is_done() {
            s.step(None);
        }
        assert_eq!(s.score(), 8, "level-1 NMCS solves the walk per step");
    }
}
