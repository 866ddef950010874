//! Property tests of the scratch-state protocol (apply/undo) across all
//! five game domains:
//!
//! * `apply` followed by `undo` — including chains of applies unwound in
//!   LIFO order — restores an *identical* observable state: score, move
//!   count, and the legal-move list **in order** (order feeds the search
//!   RNG, so it is part of the contract);
//! * every serial backend, plus the width-1 shared-tree paths, returns a
//!   bit-identical report — score, sequence, counters, interruption — on
//!   a game and on its [`SnapshotOnly`] twin, which hides the fast path.
//!   Both run the same search body; only the position walker differs
//!   (apply/undo in place against copy-at-mark), so this checks each
//!   domain's undo journal against its plain `play`. SameGame restores
//!   by copy, so its twin is the other way round: [`InPlace`] walks it
//!   in place on the trait's snapshot tokens, which checks the walker's
//!   copy slots against its undo path;
//! * the type-erased [`DynGame`] used by the engine preserves both
//!   properties.

use pnmcs::games::{NeedleLadder, SameGame, Sudoku, SumGame, TspGame, TspInstance};
use pnmcs::morpion::{cross_board, Variant};
use pnmcs::search::{
    AnnealingConfig, CodedGame, DynGame, Game, MemoryPolicy, NrpaConfig, Rng, Score, SearchSpec,
    SnapshotOnly, UctConfig,
};
use proptest::prelude::*;

/// Observable surface of a position: score, move count, and the ordered
/// legal-move list (printed, so one helper serves every move type).
fn observe<G: Game>(g: &G) -> (i64, usize, Vec<String>) {
    let mut moves = Vec::new();
    g.legal_moves(&mut moves);
    (
        g.score(),
        g.moves_played(),
        moves.iter().map(|m| format!("{m:?}")).collect(),
    )
}

/// Walks a random game, and at every step round-trips an apply/undo
/// chain of up to `chain` moves, asserting the observable state is
/// restored exactly. On a game that opts in this checks its journal; on
/// a clone-only game, the trait's snapshot fallback.
fn assert_round_trips<G: Game>(root: &G, seed: u64, chain: usize) {
    let mut g = root.clone();
    let mut rng = Rng::seeded(seed);
    let mut moves = Vec::new();
    let mut steps = 0;
    loop {
        g.legal_moves_into(&mut moves);
        if moves.is_empty() || steps > 60 {
            break;
        }
        let before = observe(&g);
        // Apply a random chain, then unwind it in LIFO order.
        let mut tokens = Vec::new();
        let mut chain_moves = Vec::new();
        for _ in 0..chain {
            g.legal_moves_into(&mut chain_moves);
            if chain_moves.is_empty() {
                break;
            }
            let mv = chain_moves[rng.below(chain_moves.len())].clone();
            tokens.push(g.apply(&mv));
        }
        while let Some(token) = tokens.pop() {
            g.undo(token);
        }
        let after = observe(&g);
        assert_eq!(before, after, "undo must restore the observable state");

        let mv = moves[rng.below(moves.len())].clone();
        g.play(&mv);
        steps += 1;
    }
}

/// Every backend whose result is a function of the seed alone: the
/// eight serial ones, UCT on the shared tree (reuse on, width 1), and
/// one case each of the greedy policy, a playout cap, and a playout
/// budget that trips mid-search.
fn differential_specs(seed: u64) -> Vec<SearchSpec> {
    let uct = UctConfig {
        iterations: 60,
        ..Default::default()
    };
    let nrpa = NrpaConfig {
        iterations: 5,
        alpha: 1.0,
    };
    let annealing = AnnealingConfig {
        iterations: 40,
        ..Default::default()
    };
    [
        SearchSpec::nested(1),
        SearchSpec::nested(1).memory(MemoryPolicy::Greedy),
        SearchSpec::nested(2).playout_cap(3),
        SearchSpec::nested(2).max_playouts(25),
        SearchSpec::nrpa_with(1, nrpa),
        SearchSpec::uct_with(uct.clone()),
        SearchSpec::uct_with(uct.clone()).tree_reuse(true),
        SearchSpec::tree_parallel_with(uct, 1),
        SearchSpec::flat_mc(8),
        SearchSpec::iterated_sampling(2),
        SearchSpec::beam(2, 2),
        SearchSpec::sample(),
        SearchSpec::simulated_annealing_with(annealing),
    ]
    .into_iter()
    .map(|builder| builder.seed(seed).build())
    .collect()
}

/// Asserts `fast` (walked with apply/undo) and `slow` (the same game
/// with the fast path hidden) get the same report from every spec.
fn assert_twins_agree<A, B>(fast: &A, slow: &B, seed: u64)
where
    A: CodedGame + Send + Sync,
    A::Move: Send + Sync,
    B: CodedGame<Move = A::Move> + Send + Sync,
{
    assert!(fast.supports_undo() && !slow.supports_undo());
    for spec in differential_specs(seed) {
        let a = spec.run(fast);
        let b = spec.run(slow);
        assert_eq!(a.score, b.score, "score of {spec:?}");
        assert_eq!(a.sequence, b.sequence, "sequence of {spec:?}");
        assert_eq!(a.stats, b.stats, "stats of {spec:?}");
        assert_eq!(a.interrupted, b.interrupted, "interruption of {spec:?}");
    }
}

/// Opts a clone-only game into the scratch-state protocol with the
/// trait's default snapshot `apply`/`undo`, so the walker takes its undo
/// path on it.
#[derive(Debug, Clone)]
struct InPlace<G>(G);

impl<G: Game> Game for InPlace<G> {
    type Move = G::Move;
    fn legal_moves(&self, out: &mut Vec<G::Move>) {
        self.0.legal_moves(out);
    }
    fn play(&mut self, mv: &G::Move) {
        self.0.play(mv);
    }
    fn score(&self) -> Score {
        self.0.score()
    }
    fn moves_played(&self) -> usize {
        self.0.moves_played()
    }
    fn state_hash(&self) -> u64 {
        self.0.state_hash()
    }
    fn supports_undo(&self) -> bool {
        true
    }
}

impl<G: CodedGame> CodedGame for InPlace<G> {
    fn move_code(&self, mv: &G::Move) -> u64 {
        self.0.move_code(mv)
    }
}

fn assert_paths_agree<G>(game: &G, seed: u64)
where
    G: CodedGame + Send + Sync,
    G::Move: Send + Sync,
{
    assert_twins_agree(game, &SnapshotOnly(game.clone()), seed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn samegame_round_trips(seed in 0u64..500, w in 5usize..10, h in 5usize..10) {
        let g = SameGame::random(w, h, 3, seed);
        prop_assert!(!g.supports_undo(), "samegame restores by copy");
        assert_round_trips(&g, seed, 3);
    }

    #[test]
    fn tsp_round_trips(seed in 0u64..500, n in 5usize..14) {
        let g = TspGame::new(TspInstance::random(n, seed), None);
        assert_round_trips(&g, seed, 3);
        let g = TspGame::new(TspInstance::random(n, seed), Some(3));
        assert_round_trips(&g, seed, 2);
    }

    #[test]
    fn sudoku_round_trips(seed in 0u64..500, holes in 10usize..50) {
        let g = Sudoku::puzzle(3, holes, seed);
        assert_round_trips(&g, seed, 3);
    }

    #[test]
    fn toy_round_trips(seed in 0u64..500, depth in 2usize..7) {
        assert_round_trips(&SumGame::random(depth, 4, seed), seed, 3);
        assert_round_trips(&NeedleLadder::new(depth.max(2)), seed, 2);
    }

    #[test]
    fn morpion_round_trips(seed in 0u64..200) {
        // Both rule variants: their constraint bits differ.
        assert_round_trips(&cross_board(Variant::Disjoint, 3), seed, 3);
        assert_round_trips(&cross_board(Variant::Touching, 3), seed, 3);
    }

    #[test]
    fn samegame_paths_bit_identical(seed in 0u64..300) {
        let g = SameGame::random(6, 6, 3, seed);
        assert_twins_agree(&InPlace(g.clone()), &g, seed);
    }

    #[test]
    fn tsp_paths_bit_identical(seed in 0u64..300) {
        assert_paths_agree(&TspGame::new(TspInstance::random(8, seed), None), seed);
    }

    #[test]
    fn sudoku_paths_bit_identical(seed in 0u64..300) {
        assert_paths_agree(&Sudoku::puzzle(3, 30, seed), seed);
    }

    #[test]
    fn toy_paths_bit_identical(seed in 0u64..300) {
        assert_paths_agree(&SumGame::random(5, 3, seed), seed);
        assert_paths_agree(&NeedleLadder::new(7), seed);
    }

    #[test]
    fn erased_games_round_trip_and_agree(seed in 0u64..200) {
        // The engine's view: a DynGame over a fast-path game keeps both
        // protocol properties through the erasure.
        let typed = SumGame::random(5, 3, seed);
        let erased = DynGame::new(typed.clone());
        prop_assert!(erased.supports_undo());
        assert_round_trips(&erased, seed, 3);

        assert_twins_agree(&erased, &DynGame::new(SnapshotOnly(typed)), seed);
    }

    #[test]
    fn morpion_paths_bit_identical(seed in 0u64..100) {
        assert_paths_agree(&cross_board(Variant::Disjoint, 2), seed);
    }
}
