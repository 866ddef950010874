//! Toy games with *known optima*, used to validate every search algorithm
//! and backend in the workspace: if parallel NMCS on the simulated cluster
//! cannot solve `SumGame`, something is broken in plumbing, not in luck.

use nmcs_core::{mix64, CodedGame, Game, Rng, Score};

/// Domain-separation salts of the toy games' [`Game::state_hash`] folds
/// (non-zero: `mix64(0) == 0`).
const SUM_HASH_SALT: u64 = 0x7a31_9c04_d6e8_5b2f;
const NEEDLE_HASH_SALT: u64 = 0x2fd8_44b1_03c7_96e5;

/// A depth × width decision table: at step `k` the player picks a column
/// `c` and earns `values[k][c]`. The optimum is the sum of row maxima —
/// computable in closed form, while random play is mediocre, which gives
/// search quality something measurable to improve.
#[derive(Debug)]
pub struct SumGame {
    values: std::sync::Arc<Vec<Vec<Score>>>,
    taken: Vec<u8>,
    accumulated: Score,
}

impl Clone for SumGame {
    fn clone(&self) -> Self {
        Self {
            values: self.values.clone(),
            taken: self.taken.clone(),
            accumulated: self.accumulated,
        }
    }

    /// Copies into `self`'s buffers: the searches restore positions by
    /// copy, once per candidate evaluation.
    fn clone_from(&mut self, source: &Self) {
        if !std::sync::Arc::ptr_eq(&self.values, &source.values) {
            self.values = source.values.clone();
        }
        self.taken.clone_from(&source.taken);
        self.accumulated = source.accumulated;
    }
}

impl SumGame {
    /// Builds a game with the given value table (each row non-empty, width
    /// at most 256).
    pub fn new(values: Vec<Vec<Score>>) -> Self {
        assert!(values.iter().all(|row| !row.is_empty() && row.len() <= 256));
        Self {
            values: std::sync::Arc::new(values),
            taken: Vec::new(),
            accumulated: 0,
        }
    }

    /// A pseudo-random instance with values in `[0, 100)`.
    pub fn random(depth: usize, width: usize, seed: u64) -> Self {
        let mut rng = Rng::seeded(seed);
        let values = (0..depth)
            .map(|_| (0..width).map(|_| rng.below(100) as Score).collect())
            .collect();
        Self::new(values)
    }

    /// The maximum achievable score (sum of row maxima).
    pub fn optimum(&self) -> Score {
        self.values
            .iter()
            .map(|row| *row.iter().max().expect("non-empty row"))
            .sum()
    }

    /// Game depth.
    pub fn depth(&self) -> usize {
        self.values.len()
    }
}

impl CodedGame for SumGame {
    /// Codes are (depth, column): every decision point is distinct.
    fn move_code(&self, mv: &u8) -> u64 {
        ((self.taken.len() as u64) << 8) | *mv as u64
    }
}

impl Game for SumGame {
    type Move = u8;

    fn legal_moves(&self, out: &mut Vec<u8>) {
        if let Some(row) = self.values.get(self.taken.len()) {
            out.extend((0..row.len()).map(|c| c as u8));
        }
    }

    fn play(&mut self, mv: &u8) {
        let row = &self.values[self.taken.len()];
        self.accumulated += row[*mv as usize];
        self.taken.push(*mv);
    }

    fn score(&self) -> Score {
        self.accumulated
    }

    fn moves_played(&self) -> usize {
        self.taken.len()
    }

    fn is_terminal(&self) -> bool {
        self.taken.len() >= self.values.len()
    }

    /// The taken prefix *is* the position, so a sequential fold over it
    /// (plus the accumulated score) is an exact identity, allocation-free.
    fn state_hash(&self) -> u64 {
        let mut h = SUM_HASH_SALT;
        for &m in &self.taken {
            h = mix64(h ^ (m as u64 + 1));
        }
        mix64(h ^ self.accumulated as u64)
    }
}

/// The needle-ladder game: a prize of `2 × depth` sits at the unique
/// all-ones leaf, plus one point of partial credit per leading `1`.
///
/// Flat Monte-Carlo must *sample* the needle (probability `2^-depth` per
/// playout), whereas a level-1 NMCS climbs the partial-credit gradient one
/// step at a time and finds it deterministically for any depth. This is
/// the mechanism behind "nested search amplifies Monte-Carlo" (paper §I),
/// in miniature, and the basis of a workspace-wide validation test.
#[derive(Debug)]
pub struct NeedleLadder {
    depth: usize,
    taken: Vec<u8>,
}

impl Clone for NeedleLadder {
    fn clone(&self) -> Self {
        Self {
            depth: self.depth,
            taken: self.taken.clone(),
        }
    }

    /// Copies into `self`'s buffer: the searches restore positions by
    /// copy, once per candidate evaluation.
    fn clone_from(&mut self, source: &Self) {
        self.depth = source.depth;
        self.taken.clone_from(&source.taken);
    }
}

impl NeedleLadder {
    pub fn new(depth: usize) -> Self {
        assert!(depth >= 2);
        Self {
            depth,
            taken: Vec::new(),
        }
    }

    /// Score of the unique optimal (all-ones) game.
    pub fn optimum(&self) -> Score {
        3 * self.depth as Score
    }
}

impl CodedGame for NeedleLadder {
    fn move_code(&self, mv: &u8) -> u64 {
        ((self.taken.len() as u64) << 1) | *mv as u64
    }
}

impl Game for NeedleLadder {
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
        let leading_ones = self.taken.iter().take_while(|&&m| m == 1).count() as Score;
        let complete = self.taken.len() == self.depth && self.taken.iter().all(|&m| m == 1);
        leading_ones + if complete { 2 * self.depth as Score } else { 0 }
    }

    fn moves_played(&self) -> usize {
        self.taken.len()
    }

    fn is_terminal(&self) -> bool {
        self.taken.len() >= self.depth
    }

    /// The taken prefix is the whole position; fold it.
    fn state_hash(&self) -> u64 {
        let mut h = NEEDLE_HASH_SALT;
        for &m in &self.taken {
            h = mix64(h ^ (m as u64 + 1));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmcs_core::SearchSpec;

    #[test]
    fn sum_game_optimum_is_reachable_by_exhaustive_play() {
        let g = SumGame::new(vec![vec![3, 1], vec![0, 7], vec![5, 5]]);
        assert_eq!(g.optimum(), 15);
        let mut best = Score::MIN;
        for a in 0..2u8 {
            for b in 0..2u8 {
                for c in 0..2u8 {
                    let mut game = g.clone();
                    game.play(&a);
                    game.play(&b);
                    game.play(&c);
                    best = best.max(game.score());
                }
            }
        }
        assert_eq!(best, 15);
    }

    #[test]
    fn nmcs_level3_solves_random_sum_games() {
        for seed in 0..5 {
            let g = SumGame::random(5, 3, seed);
            let r = SearchSpec::nested(3).seed(seed + 100).run(&g);
            assert_eq!(r.score, g.optimum(), "seed {seed}");
        }
    }

    #[test]
    fn nmcs_level2_near_optimal_on_wider_games() {
        // Level 2 is not exhaustive; it should still land within a few
        // percent of the optimum on modest instances.
        for seed in 0..5 {
            let g = SumGame::random(6, 4, seed);
            let r = SearchSpec::nested(2).seed(seed + 100).run(&g);
            let opt = g.optimum();
            assert!(
                r.score as f64 >= 0.85 * opt as f64,
                "seed {seed}: {} vs optimum {opt}",
                r.score
            );
        }
    }

    #[test]
    fn sum_game_terminal_state_consistent() {
        let mut g = SumGame::random(3, 3, 9);
        assert!(!g.is_terminal());
        for _ in 0..3 {
            g.play(&0);
        }
        assert!(g.is_terminal());
        let mut buf = Vec::new();
        g.legal_moves(&mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn needle_ladder_fools_flat_mc_but_not_nested() {
        let depth = 10;
        let g = NeedleLadder::new(depth);
        let trials = 20;
        // Flat MC gets the same order of playout budget a level-1 NMCS
        // spends on this game (depth × 2 children ≈ 20, doubled for
        // generosity).
        let budget = 40;

        let mut flat_wins = 0;
        let mut nmcs_wins = 0;
        for seed in 0..trials {
            let flat = SearchSpec::flat_mc(budget).seed(seed).run(&g);
            if flat.score == g.optimum() {
                flat_wins += 1;
            }
            let nm = SearchSpec::nested(1).seed(seed).run(&g);
            if nm.score == g.optimum() {
                nmcs_wins += 1;
            }
        }
        assert_eq!(nmcs_wins, trials, "level 1 climbs the ladder every time");
        assert!(
            flat_wins < trials / 2,
            "flat MC should rarely sample the 2^-10 needle, got {flat_wins}/{trials}"
        );
    }

    #[test]
    fn needle_ladder_score_definition() {
        let mut g = NeedleLadder::new(4);
        for _ in 0..4 {
            g.play(&1);
        }
        assert_eq!(g.score(), 12);
        assert_eq!(g.score(), g.optimum());
        let mut g2 = NeedleLadder::new(4);
        g2.play(&1);
        g2.play(&0);
        g2.play(&1);
        g2.play(&1);
        assert_eq!(g2.score(), 1, "one leading 1, no bonus");
    }
}
