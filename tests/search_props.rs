//! Property-based tests of the search algorithms: every search's
//! returned sequence must replay to its returned score, on every domain,
//! under every configuration.

use pnmcs::games::{NeedleLadder, SameGame, SumGame, TspGame, TspInstance};
use pnmcs::search::baselines::{iterated_sampling_with, simulated_annealing_with, AnnealingConfig};
use pnmcs::search::{sample, Game, MemoryPolicy, NestedConfig, Rng, SearchResult, SearchSpec};
use proptest::prelude::*;

fn replay_score<G: Game>(game: &G, seq: &[G::Move]) -> i64 {
    let mut g = game.clone();
    for mv in seq {
        g.play(mv);
    }
    g.score()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn nested_sequences_replay_to_their_score_on_sum_games(
        seed in 0u64..1000,
        depth in 2usize..6,
        width in 2usize..5,
        level in 0u32..3,
    ) {
        let g = SumGame::random(depth, width, seed);
        let r = SearchSpec::nested(level).seed(seed).run(&g);
        prop_assert_eq!(replay_score(&g, &r.sequence), r.score);
        prop_assert_eq!(r.sequence.len(), depth);
    }

    #[test]
    fn greedy_policy_sequences_also_replay(seed in 0u64..1000) {
        let g = SumGame::random(5, 3, seed);
        let cfg = NestedConfig { memory: MemoryPolicy::Greedy };
        let r = SearchSpec::nested_with(1, cfg).seed(seed).run(&g);
        prop_assert_eq!(replay_score(&g, &r.sequence), r.score);
    }

    #[test]
    fn samegame_search_results_replay(seed in 0u64..200) {
        let g = SameGame::random(6, 6, 3, seed);
        let r = SearchSpec::nested(1).seed(seed).run(&g);
        prop_assert_eq!(replay_score(&g, &r.sequence), r.score);
    }

    #[test]
    fn tsp_search_results_replay(seed in 0u64..200) {
        let g = TspGame::new(TspInstance::random(10, seed), None);
        let r = SearchSpec::nested(1).seed(seed).run(&g);
        prop_assert_eq!(replay_score(&g, &r.sequence), r.score);
        prop_assert_eq!(r.sequence.len(), 9);
    }

    #[test]
    fn baseline_sequences_replay(seed in 0u64..200) {
        let g = SumGame::random(5, 3, seed);
        let flat = SearchSpec::flat_mc(8).seed(seed).run(&g);
        prop_assert_eq!(replay_score(&g, &flat.sequence), flat.score);
        let iter = SearchResult::unbounded(|ctx| iterated_sampling_with(&g, 2, &mut Rng::seeded(seed), ctx));
        prop_assert_eq!(replay_score(&g, &iter.sequence), iter.score);
        let cfg = AnnealingConfig { iterations: 50, ..Default::default() };
        let sa = SearchResult::unbounded(|ctx| simulated_annealing_with(&g, &cfg, &mut Rng::seeded(seed), ctx));
        prop_assert_eq!(replay_score(&g, &sa.sequence), sa.score);
    }

    #[test]
    fn nested_never_scores_below_the_worst_leaf(seed in 0u64..300) {
        // On SumGame all leaves are reachable; NMCS must at least match a
        // single random playout from the same seed family in expectation,
        // but pointwise it must stay within the game's score range.
        let g = SumGame::random(4, 3, seed);
        let r = SearchSpec::nested(1).seed(seed).run(&g);
        prop_assert!(r.score >= 0);
        prop_assert!(r.score <= g.optimum());
    }

    #[test]
    fn needle_ladder_solved_at_any_depth(depth in 3usize..12, seed in 0u64..100) {
        let g = NeedleLadder::new(depth);
        let r = SearchSpec::nested(1).seed(seed).run(&g);
        prop_assert_eq!(r.score, g.optimum());
    }

    #[test]
    fn sample_is_always_a_complete_game(seed in 0u64..500) {
        let g = SumGame::random(7, 4, seed);
        let r = sample(&g, &mut Rng::seeded(seed));
        prop_assert_eq!(r.sequence.len(), 7);
        prop_assert_eq!(r.stats.playouts, 1);
        prop_assert_eq!(replay_score(&g, &r.sequence), r.score);
    }
}

#[test]
fn level_improvement_is_statistical_not_pointwise() {
    // Averaged over seeds, each level dominates the previous one on
    // SumGame; this is the core NMCS claim (paper §I) in testable form.
    let g = SumGame::random(8, 4, 99);
    let avg = |level: u32| -> f64 {
        (0..30)
            .map(|s| SearchSpec::nested(level).seed(s).run(&g).score as f64)
            .sum::<f64>()
            / 30.0
    };
    let l0 = avg(0);
    let l1 = avg(1);
    let l2 = avg(2);
    assert!(
        l1 > l0 + 10.0,
        "level 1 ({l1}) must clearly beat level 0 ({l0})"
    );
    assert!(l2 > l1, "level 2 ({l2}) must beat level 1 ({l1})");
}
