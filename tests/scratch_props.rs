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
//!   decoded;
//! * the random step is the default step draw for draw: a
//!   [`PlayoutScratch::run`] playout, which steps by
//!   [`Game::play_random`] (Morpion overrides it), plays the same moves
//!   to the same score and leaves the RNG where a written-out
//!   `legal_moves_into` + `swap_remove(rng.below(n))` + `play` loop does,
//!   for every domain and its [`DynGame`] erasure.

use pnmcs::games::{NeedleLadder, SameGame, Sudoku, SumGame, TspGame, TspInstance};
use pnmcs::morpion::{
    cross_board, cross_points, standard_5d, standard_5t, Board, Point, Variant, STANDARD_ARM,
};
use pnmcs::search::{
    decode_report, CodedGame, DynGame, Game, MemoryPolicy, NrpaConfig, PlayoutScratch, Rng,
    SearchCtx, SearchSpec, UctConfig,
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
/// four serial ones, tree-parallel UCT at one lane and at two, and one
/// case each of the greedy policy and a playout budget that trips
/// mid-search.
fn differential_specs(seed: u64) -> Vec<SearchSpec> {
    let uct = UctConfig {
        iterations: 60,
        ..Default::default()
    };
    let nrpa = NrpaConfig {
        iterations: 5,
        alpha: 1.0,
    };
    [
        SearchSpec::nested(1),
        SearchSpec::nested(1).memory(MemoryPolicy::Greedy),
        SearchSpec::nested(2).max_playouts(25),
        SearchSpec::nrpa_with(1, nrpa),
        SearchSpec::uct_with(uct.clone()),
        SearchSpec::uct_with(uct.clone()).tree_reuse(true),
        SearchSpec::tree_parallel_with(uct.clone(), 1),
        SearchSpec::tree_parallel_with(uct, 2),
        SearchSpec::flat_mc(8),
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

/// Plays `lead` random moves from `root`, then one playout through
/// [`PlayoutScratch::run`] and one by the default step written out, each
/// from that position with a generator seeded `seed`: the same moves, the
/// same score and position, and the same next draw of the generator.
fn assert_step_is_the_default<G: Game>(root: &G, seed: u64, lead: usize) {
    let mut start = root.clone();
    let mut lead_rng = Rng::seeded(!seed);
    let mut moves = Vec::new();
    for _ in 0..lead {
        start.legal_moves_into(&mut moves);
        if moves.is_empty() {
            break;
        }
        start.play(&moves[lead_rng.below(moves.len())]);
    }

    let (mut hooked, mut rng, mut seq) = (start.clone(), Rng::seeded(seed), Vec::new());
    let mut ctx = SearchCtx::unbounded();
    let score = PlayoutScratch::new().run(&mut hooked, &mut rng, None, &mut seq, &mut ctx);

    let (mut plain, mut plain_rng, mut plain_seq) = (start, Rng::seeded(seed), Vec::new());
    loop {
        plain.legal_moves_into(&mut moves);
        if moves.is_empty() {
            break;
        }
        let mv = moves.swap_remove(plain_rng.below(moves.len()));
        plain.play(&mv);
        plain_seq.push(mv);
    }
    assert_eq!(seq, plain_seq, "moves");
    assert_eq!(score, plain.score(), "score");
    assert_eq!(observe(&hooked), observe(&plain), "final position");
    assert_eq!(rng.next_u64(), plain_rng.next_u64(), "generator state");
}

/// [`assert_step_is_the_default`] on `game` and on its erasure.
fn assert_step_is_the_default_typed_and_erased<G>(game: &G, seed: u64, lead: usize)
where
    G: CodedGame + Send + Sync + 'static,
    G::Move: Send + Sync,
{
    assert_step_is_the_default(game, seed, lead);
    assert_step_is_the_default(&DynGame::new(game.clone()), seed, lead);
}

/// The standard cross moved into the grid's top-left corner: its points
/// touch the first row and column, so its playouts take the board's
/// clipped slide.
fn corner_cross(variant: Variant) -> Board {
    let pts = cross_points(STANDARD_ARM);
    let min_x = pts.iter().map(|p| p.x).min().unwrap_or(0);
    let min_y = pts.iter().map(|p| p.y).min().unwrap_or(0);
    let pts = pts.iter().map(|p| Point::new(p.x - min_x, p.y - min_y));
    Board::from_points(variant, pts.collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn random_step_is_the_default_step(seed in 0u64..1000, lead in 0usize..4) {
        assert_step_is_the_default_typed_and_erased(&SameGame::random(6, 6, 3, seed), seed, lead);
        let tsp = TspGame::new(TspInstance::random(8, seed), None);
        assert_step_is_the_default_typed_and_erased(&tsp, seed, lead);
        assert_step_is_the_default_typed_and_erased(&Sudoku::puzzle(3, 30, seed), seed, lead);
        assert_step_is_the_default_typed_and_erased(&SumGame::random(5, 3, seed), seed, lead);
        assert_step_is_the_default_typed_and_erased(&NeedleLadder::new(7), seed, lead);
        for board in [
            standard_5d(),
            standard_5t(),
            cross_board(Variant::Disjoint, 3),
            corner_cross(Variant::Disjoint),
            corner_cross(Variant::Touching),
        ] {
            assert_step_is_the_default_typed_and_erased(&board, seed, lead);
        }
    }

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
