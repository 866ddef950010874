//! Job traces and the sequential reference implementation of the
//! parallel algorithm (paper §IV).
//!
//! The parallel search's *decisions* are scheduling-independent (seeds fix
//! every score), so one sequential execution can record the full fork-join
//! job structure — which client jobs exist, how much work each needs, and
//! which barriers separate them. The discrete-event simulator then replays
//! that [`SearchTrace`] under any cluster shape and dispatch policy in
//! milliseconds, which is how the paper's 64-client tables are regenerated
//! without a cluster.
//!
//! Structure of a trace (matching the three process tiers):
//!
//! ```text
//! SearchTrace
//! └─ steps: Vec<RootStepTrace>          (one per root game step)
//!    └─ medians: Vec<MedianTrace>       (one per root candidate move)
//!       └─ steps: Vec<MedianStepTrace>  (one per median game step)
//!          └─ jobs: Vec<ClientJob>      (one per median candidate move)
//! ```
//!
//! Within a median, step `t+1`'s jobs may only start after all of step
//! `t`'s results returned (the median's collection barrier). Within the
//! root, step `s+1`'s medians may only start after all of step `s`'s
//! medians finished (the root's collection barrier).

use nmcs_core::seeds::{client_seed, median_seed};
use nmcs_core::{nested_with, Game, NestedConfig, Rng, Score, SearchCtx};
use serde::{Deserialize, Serialize};

/// What the root process plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunMode {
    /// Play only the first move of the game (Tables I–II, IV, VI).
    FirstMove,
    /// Play an entire game — "one rollout" (Tables I, III, V).
    FullGame,
}

/// One client evaluation job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientJob {
    /// Work units the job needs (measured by the instrumented search).
    pub demand: u64,
    /// Moves already played in the position the client receives — the
    /// Last-Minute dispatcher's expected-remaining-time estimate.
    pub moves_played: u64,
    /// The score the job returns (recorded for validation; timing replay
    /// does not need it).
    pub score: Score,
}

/// One step of a median game: one job per candidate move, then a barrier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MedianStepTrace {
    pub jobs: Vec<ClientJob>,
}

/// One median process's whole game for one root candidate move.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MedianTrace {
    pub steps: Vec<MedianStepTrace>,
    /// Final score the median reports to the root.
    pub result_score: Score,
}

/// One root step: one median game per root candidate move.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RootStepTrace {
    pub medians: Vec<MedianTrace>,
}

/// The complete fork-join structure of one parallel search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchTrace {
    /// Root search level (clients run `level - 2`).
    pub level: u32,
    pub seed: u64,
    pub mode: RunMode,
    pub steps: Vec<RootStepTrace>,
    /// Final score of the root game (FirstMove: best step-0 evaluation).
    pub score: Score,
    /// Total client work units (the sequential-execution cost).
    pub total_work: u64,
    /// Total number of client jobs.
    pub client_jobs: u64,
}

impl SearchTrace {
    /// Largest number of simultaneously-outstanding client jobs possible
    /// (sum over a root step's medians of their per-step maxima is an
    /// upper bound; this returns the max over root steps of the sum of
    /// first-step widths, a good saturation indicator).
    pub fn peak_parallelism(&self) -> usize {
        self.steps
            .iter()
            .map(|s| {
                s.medians
                    .iter()
                    .map(|m| m.steps.first().map_or(0, |st| st.jobs.len()))
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }
}

/// Result of a parallel search (scores and moves; timing comes from the
/// backends).
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelOutcome<Mv> {
    pub score: Score,
    /// Moves played by the root (one entry in FirstMove mode).
    pub sequence: Vec<Mv>,
    pub total_work: u64,
    pub client_jobs: u64,
}

/// Runs the parallel algorithm's logic sequentially, recording the trace.
///
/// Level must be ≥ 2 (the paper's hierarchy needs a root level, a median
/// level below it, and clients running `level − 2`; level 3 and 4 are the
/// paper's settings).
pub fn run_reference<G: Game>(
    game: &G,
    level: u32,
    seed: u64,
    mode: RunMode,
) -> (ParallelOutcome<G::Move>, SearchTrace) {
    assert!(level >= 2, "parallel NMCS needs level >= 2, got {level}");
    let config = NestedConfig::paper();
    let client_level = level - 2;

    let mut root_pos = game.clone();
    let mut sequence = Vec::new();
    let mut steps = Vec::new();
    let mut total_work = 0u64;
    let mut client_jobs = 0u64;
    let mut first_step_best: Option<Score> = None;

    let mut moves: Vec<G::Move> = Vec::new();
    let mut root_step = 0usize;
    loop {
        moves.clear();
        root_pos.legal_moves(&mut moves);
        if moves.is_empty() {
            break;
        }
        let mut medians = Vec::with_capacity(moves.len());
        let mut best: Option<(Score, usize)> = None;
        for (i, mv) in moves.iter().enumerate() {
            let mut child = root_pos.clone();
            child.play(mv);
            let mseed = median_seed(seed, root_step, i);
            let mtrace = run_median_game(
                &child,
                client_level,
                mseed,
                &config,
                &mut total_work,
                &mut client_jobs,
            );
            let s = mtrace.result_score;
            if best.is_none_or(|(bs, bj)| s > bs || (s == bs && i < bj)) {
                best = Some((s, i));
            }
            medians.push(mtrace);
        }
        steps.push(RootStepTrace { medians });
        let (best_score, best_idx) = best.expect("non-empty move list");
        if root_step == 0 {
            first_step_best = Some(best_score);
        }
        sequence.push(moves[best_idx].clone());
        root_pos.play(&moves[best_idx]);
        root_step += 1;
        if mode == RunMode::FirstMove {
            break;
        }
    }

    let score = match mode {
        RunMode::FirstMove => first_step_best.unwrap_or_else(|| root_pos.score()),
        RunMode::FullGame => root_pos.score(),
    };
    let outcome = ParallelOutcome {
        score,
        sequence,
        total_work,
        client_jobs,
    };
    let trace = SearchTrace {
        level,
        seed,
        mode,
        steps,
        score,
        total_work,
        client_jobs,
    };
    (outcome, trace)
}

/// Plays one median game (greedy per-step argmax over client-job scores,
/// per the paper's median pseudocode) and records its job structure.
fn run_median_game<G: Game>(
    start: &G,
    client_level: u32,
    mseed: u64,
    config: &NestedConfig,
    total_work: &mut u64,
    client_jobs: &mut u64,
) -> MedianTrace {
    let mut pos = start.clone();
    let mut steps = Vec::new();
    let mut moves: Vec<G::Move> = Vec::new();
    let mut mstep = 0usize;
    loop {
        moves.clear();
        pos.legal_moves(&mut moves);
        if moves.is_empty() {
            break;
        }
        let mut jobs = Vec::with_capacity(moves.len());
        let mut best: Option<(Score, usize)> = None;
        for (j, mv) in moves.iter().enumerate() {
            let mut child = pos.clone();
            child.play(mv);
            let seed = client_seed(mseed, mstep, j);
            let mut ctx = SearchCtx::unbounded();
            let (score, _) = nested_with(
                &child,
                client_level,
                config,
                &mut Rng::seeded(seed),
                &mut ctx,
            );
            let work = ctx.stats().work_units;
            *total_work += work;
            *client_jobs += 1;
            jobs.push(ClientJob {
                demand: work,
                moves_played: child.moves_played() as u64,
                score,
            });
            if best.is_none_or(|(bs, bj)| score > bs || (score == bs && j < bj)) {
                best = Some((score, j));
            }
        }
        steps.push(MedianStepTrace { jobs });
        let (_, best_idx) = best.expect("non-empty move list");
        pos.play(&moves[best_idx]);
        mstep += 1;
    }
    MedianTrace {
        steps,
        result_score: pos.score(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmcs_games::{NeedleLadder, SumGame};

    #[test]
    fn reference_solves_needle_ladder_exactly() {
        // Greedy per-step argmax climbs the ladder deterministically at
        // every level >= 2 (playout partial credit orders the children).
        let g = NeedleLadder::new(10);
        for level in [2, 3] {
            let (out, _) = run_reference(&g, level, 1, RunMode::FullGame);
            assert_eq!(out.score, g.optimum(), "level {level}");
        }
    }

    #[test]
    fn reference_near_optimal_on_sum_game_at_level_2() {
        // The parallel hierarchy is greedy at every level (paper §IV
        // pseudocode), so it is weaker than the memorised sequential NMCS;
        // near-optimality is the right expectation here.
        let g = SumGame::random(5, 3, 11);
        let (out, trace) = run_reference(&g, 2, 99, RunMode::FullGame);
        assert!(
            out.score as f64 >= 0.9 * g.optimum() as f64,
            "greedy level-2 reference too weak: {} vs {}",
            out.score,
            g.optimum()
        );
        assert_eq!(out.sequence.len(), 5);
        assert_eq!(trace.steps.len(), 5);
        assert_eq!(trace.score, out.score);
        assert!(trace.total_work > 0);
        assert_eq!(trace.client_jobs as usize, count_jobs(&trace));
    }

    fn count_jobs(trace: &SearchTrace) -> usize {
        trace
            .steps
            .iter()
            .flat_map(|s| &s.medians)
            .flat_map(|m| &m.steps)
            .map(|st| st.jobs.len())
            .sum()
    }

    #[test]
    fn first_move_mode_stops_after_one_step() {
        let g = SumGame::random(6, 3, 4);
        let (out, trace) = run_reference(&g, 2, 1, RunMode::FirstMove);
        assert_eq!(out.sequence.len(), 1);
        assert_eq!(trace.steps.len(), 1);
        // One median per candidate move of the initial position.
        assert_eq!(trace.steps[0].medians.len(), 3);
    }

    #[test]
    fn deterministic_across_runs() {
        let g = SumGame::random(4, 3, 8);
        let (a_out, a_tr) = run_reference(&g, 2, 5, RunMode::FullGame);
        let (b_out, b_tr) = run_reference(&g, 2, 5, RunMode::FullGame);
        assert_eq!(a_out, b_out);
        assert_eq!(a_tr, b_tr);
    }

    #[test]
    fn different_seeds_may_change_work_but_not_validity() {
        let g = SumGame::random(4, 3, 8);
        let (a, _) = run_reference(&g, 2, 5, RunMode::FullGame);
        let (b, _) = run_reference(&g, 2, 6, RunMode::FullGame);
        // Scores may differ, sequences must be full games.
        assert_eq!(a.sequence.len(), 4);
        assert_eq!(b.sequence.len(), 4);
    }

    #[test]
    fn median_moves_played_hints_increase_within_a_game() {
        let g = SumGame::random(5, 2, 3);
        let (_, trace) = run_reference(&g, 2, 7, RunMode::FirstMove);
        for m in &trace.steps[0].medians {
            let hints: Vec<u64> = m
                .steps
                .iter()
                .flat_map(|s| s.jobs.iter().map(|j| j.moves_played))
                .collect();
            // Within one median game, later steps evaluate deeper
            // positions.
            let mut per_step: Vec<u64> = m
                .steps
                .iter()
                .map(|s| s.jobs.first().map(|j| j.moves_played).unwrap_or(0))
                .collect();
            let sorted = {
                let mut v = per_step.clone();
                v.sort_unstable();
                v
            };
            assert_eq!(per_step, sorted, "hints {hints:?}");
            per_step.dedup();
            assert_eq!(per_step.len(), m.steps.len(), "one depth per step");
        }
    }

    #[test]
    fn trace_serde_round_trip() {
        let g = SumGame::random(3, 2, 2);
        let (_, trace) = run_reference(&g, 2, 9, RunMode::FullGame);
        let json = serde_json::to_string(&trace).unwrap();
        let back: SearchTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(trace, back);
    }

    #[test]
    fn peak_parallelism_counts_first_step_widths() {
        let g = SumGame::random(4, 3, 1);
        let (_, trace) = run_reference(&g, 2, 3, RunMode::FirstMove);
        // 3 medians × 3 first-step jobs each.
        assert_eq!(trace.peak_parallelism(), 9);
    }

    #[test]
    #[should_panic(expected = "level >= 2")]
    fn level_below_two_rejected() {
        let g = SumGame::random(3, 2, 1);
        let _ = run_reference(&g, 1, 0, RunMode::FullGame);
    }
}
