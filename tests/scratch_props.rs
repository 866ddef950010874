//! Property tests of restoring by copy across all five game domains:
//!
//! * a copy made with `clone_from` into a slot another position left
//!   behind — the searches' position walker does exactly that at every
//!   mark — restores an *identical* observable state: score, move count,
//!   hash and the legal-move list **in order** (order feeds the search
//!   RNG, so it is part of the contract);
//! * the type-erased [`DynGame`] used by the engine, which copies its
//!   legal-move cache along with the game, gets a bit-identical report —
//!   score, sequence, counters, interruption — from every serial backend
//!   and the width-1 shared-tree paths, once its index sequence is
//!   decoded.

use pnmcs::games::{NeedleLadder, SameGame, Sudoku, SumGame, TspGame, TspInstance};
use pnmcs::morpion::{cross_board, Variant};
use pnmcs::search::{
    decode_report, AnnealingConfig, CodedGame, DynGame, Game, MemoryPolicy, NrpaConfig, Rng,
    SearchSpec, UctConfig,
};
use proptest::prelude::*;

/// Observable surface of a position: score, move count, hash and the
/// ordered legal-move list (printed, so one helper serves every move
/// type).
fn observe<G: Game>(g: &G) -> (i64, usize, u64, Vec<String>) {
    let mut moves = Vec::new();
    g.legal_moves(&mut moves);
    (
        g.score(),
        g.moves_played(),
        g.state_hash(),
        moves.iter().map(|m| format!("{m:?}")).collect(),
    )
}

/// Walks a random game and, at every step, restores it the way the
/// walker does: copies the position into a kept slot with `clone_from`,
/// plays a random chain of up to `chain` moves, and swaps the copy back.
/// The slot then holds the advanced position, so every copy lands in
/// buffers a different position left behind.
fn assert_round_trips<G: Game>(root: &G, seed: u64, chain: usize) {
    let mut g = root.clone();
    let mut slot = root.clone();
    let mut rng = Rng::seeded(seed);
    let (mut moves, mut chain_moves) = (Vec::new(), Vec::new());
    let mut steps = 0;
    loop {
        g.legal_moves_into(&mut moves);
        if moves.is_empty() || steps > 60 {
            break;
        }
        let before = observe(&g);
        slot.clone_from(&g);
        for _ in 0..chain {
            g.legal_moves_into(&mut chain_moves);
            if chain_moves.is_empty() {
                break;
            }
            let mv = chain_moves[rng.below(chain_moves.len())].clone();
            g.play(&mv);
        }
        std::mem::swap(&mut g, &mut slot);
        assert_eq!(observe(&g), before, "the copy must restore the position");

        let mv = moves[rng.below(moves.len())].clone();
        g.play(&mv);
        steps += 1;
    }
}

/// Every backend whose result is a function of the seed alone: the
/// seven serial ones, tree-parallel UCT at one lane and at two, and one
/// case each of the greedy policy, a playout cap, and a playout budget
/// that trips mid-search.
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
        SearchSpec::tree_parallel_with(uct.clone(), 1),
        SearchSpec::tree_parallel_with(uct, 2),
        SearchSpec::flat_mc(8),
        SearchSpec::iterated_sampling(2),
        SearchSpec::sample(),
        SearchSpec::simulated_annealing_with(annealing),
    ]
    .into_iter()
    .map(|builder| builder.seed(seed).build())
    .collect()
}

/// Asserts `game` and its [`DynGame`] erasure get the same report from
/// every spec.
fn assert_paths_agree<G>(game: &G, seed: u64)
where
    G: CodedGame + Send + Sync + 'static,
    G::Move: Send + Sync,
{
    let erased = DynGame::new(game.clone());
    for spec in differential_specs(seed) {
        let a = spec.run(game);
        let b = decode_report(game, &spec.run(&erased));
        assert_eq!(a.score, b.score, "score of {spec:?}");
        assert_eq!(a.sequence, b.sequence, "sequence of {spec:?}");
        assert_eq!(a.stats, b.stats, "stats of {spec:?}");
        assert_eq!(a.interrupted, b.interrupted, "interruption of {spec:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn samegame_round_trips(seed in 0u64..500, w in 5usize..10, h in 5usize..10) {
        assert_round_trips(&SameGame::random(w, h, 3, seed), seed, 3);
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
        assert_paths_agree(&SameGame::random(6, 6, 3, seed), seed);
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
        // The engine's view: an erased copy carries the legal-move cache,
        // and a slot that erased another game type is replaced whole.
        let typed = SumGame::random(5, 3, seed);
        assert_round_trips(&DynGame::new(typed.clone()), seed, 3);
        assert_round_trips(&DynGame::new(cross_board(Variant::Disjoint, 2)), seed, 3);
        let mut slot = DynGame::new(NeedleLadder::new(4));
        slot.clone_from(&DynGame::new(typed.clone()));
        prop_assert_eq!(observe(&slot), observe(&DynGame::new(typed)));
    }

    #[test]
    fn morpion_paths_bit_identical(seed in 0u64..100) {
        assert_paths_agree(&cross_board(Variant::Disjoint, 2), seed);
    }
}
