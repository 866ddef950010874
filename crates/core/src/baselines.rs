//! Baseline search algorithms.
//!
//! The paper positions NMCS against simpler Monte-Carlo strategies and
//! against the previous Morpion Solitaire record holder, a simulated
//! annealing search (Hyyrö & Poranen 2007, reference \[16\]; best computer
//! score 79 before the paper's 80). These baselines serve two purposes:
//!
//! * they are the comparators for the "NMCS amplifies plain Monte-Carlo"
//!   claim (§I), benchmarked in the ablation suite, and
//! * their simplicity makes them good cross-checks in tests (on toy games
//!   with known optima every search must agree).

use crate::ctx::SearchCtx;
use crate::game::{Game, Score};
use crate::rng::Rng;
use crate::search::Walker;

/// Flat Monte-Carlo search: play `n` independent random games from `game`
/// and keep the best.
///
/// This is the "simple Monte-Carlo search" that nested search improves on
/// (§I). With the same playout budget as a level-1 NMCS it is markedly
/// weaker, which the `flat_vs_nested` bench quantifies. The engine room
/// of `SearchSpec::flat_mc`.
pub fn flat_monte_carlo_with<G: Game>(
    game: &G,
    n: usize,
    rng: &mut Rng,
    ctx: &mut SearchCtx,
) -> (Score, Vec<G::Move>) {
    assert!(n > 0, "flat_monte_carlo needs at least one playout");
    let mut best_score = Score::MIN;
    let mut best_seq: Vec<G::Move> = Vec::new();
    let mut seq: Vec<G::Move> = Vec::new();
    let mut walker = Walker::new(game);
    for i in 0..n {
        if i > 0 && ctx.should_stop() {
            break;
        }
        seq.clear();
        let root = walker.mark();
        let score = walker.rollout(rng, &mut seq, ctx);
        walker.rewind(root);
        if score > best_score {
            best_score = score;
            best_seq.clear();
            best_seq.extend(seq.iter().cloned());
        }
    }
    (best_score, best_seq)
}

/// Iterated sampling: at each step of one game, sample `n` random playouts
/// per candidate move and play the move with the best *maximum* playout.
///
/// Equivalent to a level-1 NMCS when `n == 1` except for the absence of
/// sequence memory; with larger `n` it is the classic "rollout algorithm"
/// of Tesauro & Galperin applied with a uniform random base policy. A
/// library function only, for ablation A5: no spec kind runs it. On
/// interruption the game stops where it stands; the played prefix and its
/// score stay consistent.
pub fn iterated_sampling_with<G: Game>(
    game: &G,
    n: usize,
    rng: &mut Rng,
    ctx: &mut SearchCtx,
) -> (Score, Vec<G::Move>) {
    assert!(
        n > 0,
        "iterated_sampling needs at least one playout per move"
    );
    let mut walker = Walker::new(game);
    let mut played: Vec<G::Move> = Vec::new();
    let mut moves: Vec<G::Move> = Vec::new();
    let mut seq: Vec<G::Move> = Vec::new();
    loop {
        walker.position().legal_moves_into(&mut moves);
        if moves.is_empty() {
            break;
        }
        if ctx.should_stop() {
            break;
        }
        let mut best: Option<(Score, usize)> = None;
        'candidates: for (i, mv) in moves.iter().enumerate() {
            for _ in 0..n {
                if ctx.should_stop() {
                    break 'candidates;
                }
                ctx.record_expansion();
                seq.clear();
                let mark = walker.mark();
                walker.play(mv);
                let s = walker.rollout(rng, &mut seq, ctx);
                walker.rewind(mark);
                if best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, i));
                }
            }
        }
        let Some((_, idx)) = best else {
            // Interrupted before any evaluation of this step finished.
            break;
        };
        walker.play(&moves[idx]);
        played.push(moves[idx].clone());
        ctx.record_nested_move();
    }
    (walker.position().score(), played)
}

/// Configuration for the simulated-annealing baseline
/// ([`simulated_annealing_with`]).
#[derive(Debug, Clone, PartialEq)]
pub struct AnnealingConfig {
    /// Total iterations (neighbour proposals).
    pub iterations: usize,
    /// Initial temperature, in score units.
    pub t_initial: f64,
    /// Final temperature; the schedule is geometric between the two.
    pub t_final: f64,
}

impl Default for AnnealingConfig {
    fn default() -> Self {
        Self {
            iterations: 10_000,
            t_initial: 4.0,
            t_final: 0.05,
        }
    }
}

/// Simulated annealing over *decision vectors*, in the spirit of Hyyrö &
/// Poranen's Morpion Solitaire heuristic (paper reference \[16\]).
///
/// A candidate solution is the list of branch indices chosen at each step
/// of a game (the "decision vector"); replaying it is deterministic: step
/// `k` plays `legal_moves()[d_k mod |moves|]`. A neighbour is produced by
/// re-randomising one decision at a random depth and keeping the suffix
/// (whose interpretation shifts with the new prefix — the classic encoding
/// for permutation-free games). Standard Metropolis acceptance with a
/// geometric cooling schedule.
///
/// A library function only, for ablation A5: no spec kind runs it.
/// Budget/cancellation polls happen once per proposal and once per
/// replayed move — and never touch the RNG, so an unhit budget is
/// bit-identical to the unbudgeted run. An
/// interrupted replay stops where it stands; the prefix played so far
/// and its score stay consistent, so the returned best line always
/// replays to the returned score.
pub fn simulated_annealing_with<G: Game>(
    game: &G,
    config: &AnnealingConfig,
    rng: &mut Rng,
    ctx: &mut SearchCtx,
) -> (Score, Vec<G::Move>) {
    // Long enough for any bounded game we ship; decisions beyond the game
    // end are simply unused.
    const DECISIONS: usize = 512;
    let mut current: Vec<u32> = (0..DECISIONS).map(|_| rng.next_u64() as u32).collect();

    let replay = |decisions: &[u32], ctx: &mut SearchCtx| -> (Score, Vec<G::Move>) {
        let mut pos = game.clone();
        let mut moves: Vec<G::Move> = Vec::new();
        let mut seq: Vec<G::Move> = Vec::new();
        for &d in decisions {
            if ctx.should_stop() {
                break;
            }
            moves.clear();
            pos.legal_moves(&mut moves);
            if moves.is_empty() {
                break;
            }
            let mv = moves[(d as usize) % moves.len()].clone();
            pos.play(&mv);
            seq.push(mv);
            ctx.record_playout_move();
        }
        ctx.record_playout_end();
        (pos.score(), seq)
    };

    let (mut cur_score, mut cur_seq) = replay(&current, ctx);
    let mut best_score = cur_score;
    let mut best_seq = cur_seq.clone();

    let iters = config.iterations.max(1);
    let cooling = (config.t_final / config.t_initial).powf(1.0 / iters as f64);
    let mut temp = config.t_initial;

    for _ in 0..iters {
        if ctx.should_stop() {
            break;
        }
        let depth = rng.below(cur_seq.len().max(1));
        let old = current[depth];
        current[depth] = rng.next_u64() as u32;
        let (score, seq) = replay(&current, ctx);
        let accept =
            score >= cur_score || rng.chance((((score - cur_score) as f64) / temp.max(1e-9)).exp());
        if accept {
            cur_score = score;
            cur_seq = seq;
            if score > best_score {
                best_score = score;
                best_seq = cur_seq.clone();
            }
        } else {
            current[depth] = old;
        }
        temp *= cooling;
    }

    (best_score, best_seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchResult;

    /// Depth-`d` ternary game scoring the base-3 reading of the path; the
    /// unique optimum plays move 2 every step.
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

    fn ternary(depth: usize) -> Ternary {
        Ternary {
            depth,
            taken: Vec::new(),
        }
    }

    fn optimum(depth: usize) -> Score {
        (0..depth).fold(0, |acc, _| acc * 3 + 2)
    }

    #[test]
    fn flat_mc_improves_with_budget() {
        let g = ternary(4);
        let few =
            SearchResult::unbounded(|ctx| flat_monte_carlo_with(&g, 2, &mut Rng::seeded(1), ctx))
                .score;
        let many =
            SearchResult::unbounded(|ctx| flat_monte_carlo_with(&g, 512, &mut Rng::seeded(1), ctx))
                .score;
        assert!(many >= few);
        assert!(
            many > optimum(4) / 2,
            "512 samples of 81 leaves should land high"
        );
    }

    #[test]
    fn flat_mc_sequence_is_replayable() {
        let g = ternary(5);
        let r =
            SearchResult::unbounded(|ctx| flat_monte_carlo_with(&g, 16, &mut Rng::seeded(9), ctx));
        let mut replay = ternary(5);
        for mv in &r.sequence {
            replay.play(mv);
        }
        assert_eq!(replay.score(), r.score);
        assert_eq!(r.stats.playouts, 16);
    }

    #[test]
    fn iterated_sampling_beats_flat_mc_with_same_order_of_budget() {
        let trials = 20;
        let mut flat_total = 0;
        let mut iter_total = 0;
        for seed in 0..trials {
            let g = ternary(5);
            // iterated sampling with n=3: 5 steps × 3 moves × 3 playouts ≈ 45
            flat_total += SearchResult::unbounded(|ctx| {
                flat_monte_carlo_with(&g, 45, &mut Rng::seeded(seed), ctx)
            })
            .score;
            iter_total += SearchResult::unbounded(|ctx| {
                iterated_sampling_with(&g, 3, &mut Rng::seeded(seed), ctx)
            })
            .score;
        }
        assert!(
            iter_total > flat_total,
            "iterated {iter_total} should beat flat {flat_total}"
        );
    }

    #[test]
    fn iterated_sampling_sequence_consistent() {
        let g = ternary(4);
        let r =
            SearchResult::unbounded(|ctx| iterated_sampling_with(&g, 2, &mut Rng::seeded(3), ctx));
        let mut replay = ternary(4);
        for mv in &r.sequence {
            replay.play(mv);
        }
        assert_eq!(replay.score(), r.score);
        assert_eq!(r.sequence.len(), 4);
    }

    #[test]
    fn annealing_finds_good_solutions_on_small_game() {
        let g = ternary(4);
        let cfg = AnnealingConfig {
            iterations: 3000,
            t_initial: 8.0,
            t_final: 0.01,
        };
        let r = SearchResult::unbounded(|ctx| {
            simulated_annealing_with(&g, &cfg, &mut Rng::seeded(7), ctx)
        });
        assert!(
            r.score >= optimum(4) - 3,
            "annealing should get near optimum {}, got {}",
            optimum(4),
            r.score
        );
        let mut replay = ternary(4);
        for mv in &r.sequence {
            replay.play(mv);
        }
        assert_eq!(replay.score(), r.score);
    }

    #[test]
    fn annealing_on_terminal_game_is_harmless() {
        let g = ternary(0);
        let cfg = AnnealingConfig {
            iterations: 10,
            ..Default::default()
        };
        let r = SearchResult::unbounded(|ctx| {
            simulated_annealing_with(&g, &cfg, &mut Rng::seeded(1), ctx)
        });
        assert_eq!(r.score, 0);
        assert!(r.sequence.is_empty());
    }

    #[test]
    fn baselines_deterministic_given_seed() {
        let g = ternary(4);
        assert_eq!(
            SearchResult::unbounded(|ctx| flat_monte_carlo_with(&g, 10, &mut Rng::seeded(5), ctx))
                .score,
            SearchResult::unbounded(|ctx| flat_monte_carlo_with(&g, 10, &mut Rng::seeded(5), ctx))
                .score
        );
        assert_eq!(
            SearchResult::unbounded(|ctx| iterated_sampling_with(&g, 2, &mut Rng::seeded(5), ctx))
                .sequence,
            SearchResult::unbounded(|ctx| iterated_sampling_with(&g, 2, &mut Rng::seeded(5), ctx))
                .sequence
        );
        let cfg = AnnealingConfig {
            iterations: 200,
            ..Default::default()
        };
        assert_eq!(
            SearchResult::unbounded(|ctx| simulated_annealing_with(
                &g,
                &cfg,
                &mut Rng::seeded(5),
                ctx
            ))
            .score,
            SearchResult::unbounded(|ctx| simulated_annealing_with(
                &g,
                &cfg,
                &mut Rng::seeded(5),
                ctx
            ))
            .score
        );
    }
}
