//! Nested Rollout Policy Adaptation (NRPA) — the successor algorithm.
//!
//! The paper's level-4 parallel NMCS held the Morpion 5D record (80
//! moves) until Rosin's NRPA (IJCAI 2011) reached 82 by replacing the
//! uniform playout policy with a *learned* softmax policy that each
//! nesting level adapts toward the best sequence found below it. It is
//! the canonical "future work" extension of the paper's line of research,
//! so the library ships it alongside plain NMCS:
//!
//! * level 0: a playout that samples moves with probability
//!   `exp(w[code(move)])` (softmax over the current position's moves);
//! * level `k`: `iterations` calls to level `k-1`, keeping the best
//!   sequence ever seen and, after each call, adapting a *copy* of the
//!   policy toward that sequence by gradient step `alpha`.
//!
//! Moves are identified across positions by a domain-provided *code*
//! ([`CodedGame::move_code`]); codes collide at the domain's discretion
//! (colliding moves share a weight, which is sometimes even desirable).

use crate::ctx::SearchCtx;
use crate::game::{Game, Score};
use crate::rng::Rng;
use crate::search::Walker;
use crate::stats::SearchStats;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Reusable buffers of an NRPA run: a legal-move buffer shared by the
/// policy playouts and the adaptation walks (only one of either is
/// active at a time).
struct NrpaScratch<G: Game> {
    moves: Vec<G::Move>,
    /// (move code, softmax numerator) pairs of the adaptation step.
    probs: Vec<(u64, f64)>,
}

impl<G: Game> NrpaScratch<G> {
    fn new() -> Self {
        NrpaScratch {
            moves: Vec::new(),
            probs: Vec::new(),
        }
    }
}

/// A game whose moves have stable identity across positions, as NRPA's
/// policy table requires.
pub trait CodedGame: Game {
    /// A stable identifier for `mv` (independent of when it is played).
    fn move_code(&self, mv: &Self::Move) -> u64;
}

/// NRPA tunables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NrpaConfig {
    /// Recursive calls per level (Rosin uses 100; smaller values keep
    /// laptop runs interactive).
    pub iterations: usize,
    /// Policy learning rate (Rosin uses 1.0).
    pub alpha: f64,
}

impl Default for NrpaConfig {
    fn default() -> Self {
        Self {
            iterations: 100,
            alpha: 1.0,
        }
    }
}

impl NrpaConfig {
    /// Rosin's published configuration (100 iterations per level,
    /// `alpha = 1.0`). The single source of truth for NRPA defaults:
    /// every convenience constructor (including the engine's
    /// `Algorithm::nrpa`) routes through this instead of hardcoding
    /// tunables.
    pub fn paper() -> Self {
        Self::default()
    }

    /// `paper()` with a different iteration count — the common scaled
    /// shape (`iterations` is the knob every harness sweeps).
    pub fn with_iterations(iterations: usize) -> Self {
        Self {
            iterations,
            ..Self::paper()
        }
    }
}

/// The adapted policy: a weight per move code.
#[derive(Debug, Clone, Default)]
pub struct Policy {
    weights: HashMap<u64, f64>,
}

impl Policy {
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn weight(&self, code: u64) -> f64 {
        self.weights.get(&code).copied().unwrap_or(0.0)
    }

    /// Number of distinct move codes touched so far.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Rosin's adaptation step: pull the policy toward `sequence` played
    /// from `root` — for each step, add `alpha` to the played move's
    /// weight and subtract `alpha · softmax-probability` from every legal
    /// move's weight.
    pub fn adapt<G: CodedGame>(&mut self, root: &G, sequence: &[G::Move], alpha: f64) {
        let mut walker = Walker::new(root);
        adapt_along(self, &mut walker, sequence, alpha, &mut NrpaScratch::new());
    }

    /// One position's worth of [`Policy::adapt`]: the softmax update at
    /// `pos` toward `played`.
    fn adapt_step<G: CodedGame>(
        &mut self,
        pos: &G,
        played: &G::Move,
        alpha: f64,
        moves: &mut Vec<G::Move>,
        probs: &mut Vec<(u64, f64)>,
    ) {
        pos.legal_moves_into(moves);
        debug_assert!(!moves.is_empty());
        // Softmax over the current weights.
        let max_w = moves
            .iter()
            .map(|m| self.weight(pos.move_code(m)))
            .fold(f64::NEG_INFINITY, f64::max);
        let mut z = 0.0;
        probs.clear();
        for m in moves.iter() {
            let code = pos.move_code(m);
            let p = (self.weight(code) - max_w).exp();
            z += p;
            probs.push((code, p));
        }
        for &(code, p) in probs.iter() {
            *self.weights.entry(code).or_insert(0.0) -= alpha * p / z;
        }
        *self.weights.entry(pos.move_code(played)).or_insert(0.0) += alpha;
    }
}

/// [`Policy::adapt`] on a walker: updates `policy` at every position of
/// `sequence`, playing it forward. Leaves the walker at the end of
/// `sequence`.
fn adapt_along<G: CodedGame>(
    policy: &mut Policy,
    walker: &mut Walker<G>,
    sequence: &[G::Move],
    alpha: f64,
    scratch: &mut NrpaScratch<G>,
) {
    for played in sequence {
        policy.adapt_step(
            walker.position(),
            played,
            alpha,
            &mut scratch.moves,
            &mut scratch.probs,
        );
        walker.play(played);
    }
}

/// One policy-guided playout (NRPA level 0).
pub fn policy_playout<G: CodedGame>(
    game: &G,
    policy: &Policy,
    rng: &mut Rng,
    stats: &mut SearchStats,
) -> (Score, Vec<G::Move>) {
    let mut ctx = SearchCtx::unbounded();
    let mut walker = Walker::new(game);
    let out = policy_rollout(&mut walker, policy, rng, &mut ctx, &mut NrpaScratch::new());
    stats.merge(ctx.stats());
    out
}

/// The policy-guided playout itself, with the uniform budget/cancellation
/// poll per move. Leaves the walker at the end of the game it played.
fn policy_rollout<G: CodedGame>(
    walker: &mut Walker<G>,
    policy: &Policy,
    rng: &mut Rng,
    ctx: &mut SearchCtx,
    scratch: &mut NrpaScratch<G>,
) -> (Score, Vec<G::Move>) {
    let mut seq = Vec::new();
    loop {
        if ctx.should_stop() {
            break;
        }
        let pos = walker.position();
        pos.legal_moves_into(&mut scratch.moves);
        if scratch.moves.is_empty() {
            break;
        }
        // Gumbel-max sampling from the softmax: argmax(w + Gumbel noise).
        // Equivalent to softmax sampling, needs one pass and no
        // normalisation.
        let mut best = 0usize;
        let mut best_key = f64::NEG_INFINITY;
        for (i, m) in scratch.moves.iter().enumerate() {
            let w = policy.weight(pos.move_code(m));
            let u = rng.unit_f64().max(1e-300);
            let key = w - (-(u.ln())).ln();
            if key > best_key {
                best_key = key;
                best = i;
            }
        }
        let mv = scratch.moves.swap_remove(best);
        walker.play(&mv);
        seq.push(mv);
        ctx.record_playout_move();
    }
    ctx.record_playout_end();
    (walker.position().score(), seq)
}

/// Nested Rollout Policy Adaptation at `level` from `game`, accounting
/// into (and honouring the budget/cancellation of) `ctx`.
///
/// The engine room behind `SearchSpec::run` for the `Nrpa` strategy. On
/// interruption the best sequence found so far is returned (still
/// replayable to its score).
pub fn nrpa_with<G: CodedGame>(
    game: &G,
    level: u32,
    config: &NrpaConfig,
    rng: &mut Rng,
    ctx: &mut SearchCtx,
) -> (Score, Vec<G::Move>) {
    let mut policy = Policy::new();
    let mut walker = Walker::new(game);
    let mut scratch = NrpaScratch::new();
    nrpa_level(
        &mut walker,
        level,
        config,
        &mut policy,
        rng,
        ctx,
        &mut scratch,
    )
}

/// One NRPA level from the walker's position; the walker is back on that
/// position when this returns.
fn nrpa_level<G: CodedGame>(
    walker: &mut Walker<G>,
    level: u32,
    config: &NrpaConfig,
    policy: &mut Policy,
    rng: &mut Rng,
    ctx: &mut SearchCtx,
    scratch: &mut NrpaScratch<G>,
) -> (Score, Vec<G::Move>) {
    if level == 0 {
        let root = walker.mark();
        let out = policy_rollout(walker, policy, rng, ctx, scratch);
        walker.rewind(root);
        return out;
    }
    let mut best_score = Score::MIN;
    let mut best_seq: Vec<G::Move> = Vec::new();
    // Each level adapts its own copy of the policy (Rosin's algorithm).
    let mut local = policy.clone();
    for i in 0..config.iterations {
        if i > 0 {
            if ctx.should_stop() {
                break;
            }
            // Pull the copy toward the best line before every call but
            // the first; after the last call the copy is dropped, so an
            // adaptation there would be a walk nobody sees.
            if !best_seq.is_empty() {
                let root = walker.mark();
                adapt_along(&mut local, walker, &best_seq, config.alpha, scratch);
                walker.rewind(root);
            }
        }
        let (score, seq) = nrpa_level(walker, level - 1, config, &mut local, rng, ctx, scratch);
        if score > best_score || i == 0 {
            best_score = score;
            best_seq = seq;
        }
    }
    (best_score, best_seq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{sample, SearchResult};

    /// Depth-`d` binary game scoring the base-2 reading of the path;
    /// optimal play is all-ones. Codes distinguish (depth, choice).
    #[derive(Clone, Debug)]
    struct Binary {
        depth: usize,
        taken: Vec<u8>,
    }

    impl Game for Binary {
        type Move = u8;
        fn legal_moves(&self, out: &mut Vec<u8>) {
            if self.taken.len() < self.depth {
                out.extend_from_slice(&[0, 1]);
            }
        }
        fn play(&mut self, mv: &u8) {
            self.taken.push(*mv);
        }
        fn score(&self) -> Score {
            self.taken.iter().fold(0, |acc, &m| acc * 2 + m as Score)
        }
        fn moves_played(&self) -> usize {
            self.taken.len()
        }
    }

    impl CodedGame for Binary {
        fn move_code(&self, mv: &u8) -> u64 {
            (self.taken.len() as u64) << 1 | *mv as u64
        }
    }

    #[test]
    fn nrpa_level2_solves_binary_game() {
        let g = Binary {
            depth: 8,
            taken: vec![],
        };
        let cfg = NrpaConfig {
            iterations: 30,
            alpha: 1.0,
        };
        let r = SearchResult::unbounded(|ctx| nrpa_with(&g, 2, &cfg, &mut Rng::seeded(5), ctx));
        assert_eq!(r.score, 255, "NRPA should learn the all-ones line");
        assert_eq!(r.sequence, vec![1; 8]);
    }

    #[test]
    fn nrpa_beats_uniform_sampling_at_equal_playouts() {
        let g = Binary {
            depth: 10,
            taken: vec![],
        };
        let cfg = NrpaConfig {
            iterations: 10,
            alpha: 1.0,
        };
        let r = SearchResult::unbounded(|ctx| nrpa_with(&g, 2, &cfg, &mut Rng::seeded(3), ctx));
        // 100 playouts of uniform sampling:
        let mut rng = Rng::seeded(3);
        let best_uniform = (0..100).map(|_| sample(&g, &mut rng).score).max().unwrap();
        assert!(
            r.score >= best_uniform,
            "NRPA {} vs best-of-100 uniform {}",
            r.score,
            best_uniform
        );
    }

    #[test]
    fn adaptation_raises_played_move_probability() {
        let g = Binary {
            depth: 4,
            taken: vec![],
        };
        let mut p = Policy::new();
        let seq = vec![1u8, 1, 1, 1];
        p.adapt(&g, &seq, 1.0);
        // Weight of (depth 0, move 1) should now exceed (depth 0, move 0).
        let w1 = p.weight(1);
        let w0 = p.weight(0);
        assert!(w1 > w0, "w1 {w1} vs w0 {w0}");
    }

    #[test]
    fn policy_playout_follows_strong_weights() {
        let g = Binary {
            depth: 6,
            taken: vec![],
        };
        let mut p = Policy::new();
        // Drive all weights hard toward 1s.
        for _ in 0..20 {
            p.adapt(&g, &[1u8; 6], 1.0);
        }
        let mut stats = SearchStats::new();
        let mut ones = 0;
        for seed in 0..20 {
            let (_, seq) = policy_playout(&g, &p, &mut Rng::seeded(seed), &mut stats);
            ones += seq.iter().filter(|&&m| m == 1).count();
        }
        assert!(
            ones > 100,
            "after adaptation most moves should be 1s: {ones}/120"
        );
        assert_eq!(stats.playouts, 20);
    }

    #[test]
    fn level0_is_a_single_policy_playout() {
        let g = Binary {
            depth: 5,
            taken: vec![],
        };
        let cfg = NrpaConfig::default();
        let r = SearchResult::unbounded(|ctx| nrpa_with(&g, 0, &cfg, &mut Rng::seeded(1), ctx));
        assert_eq!(r.stats.playouts, 1);
        assert_eq!(r.sequence.len(), 5);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = Binary {
            depth: 6,
            taken: vec![],
        };
        let cfg = NrpaConfig {
            iterations: 8,
            alpha: 0.7,
        };
        let a = SearchResult::unbounded(|ctx| nrpa_with(&g, 2, &cfg, &mut Rng::seeded(11), ctx));
        let b = SearchResult::unbounded(|ctx| nrpa_with(&g, 2, &cfg, &mut Rng::seeded(11), ctx));
        assert_eq!(a.score, b.score);
        assert_eq!(a.sequence, b.sequence);
    }

    #[test]
    fn sequence_replays_to_score() {
        let g = Binary {
            depth: 7,
            taken: vec![],
        };
        let cfg = NrpaConfig {
            iterations: 5,
            alpha: 1.0,
        };
        for seed in 0..10 {
            let r =
                SearchResult::unbounded(|ctx| nrpa_with(&g, 1, &cfg, &mut Rng::seeded(seed), ctx));
            let mut replay = g.clone();
            for mv in &r.sequence {
                replay.play(mv);
            }
            assert_eq!(replay.score(), r.score, "seed {seed}");
        }
    }
}
