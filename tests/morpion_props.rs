//! Property-based tests of the Morpion Solitaire rules.
//!
//! These check the invariants that define the game, independently of the
//! incremental machinery that maintains them:
//!
//! * 5D: no grid point is ever covered by two same-direction lines;
//! * 5T: no unit segment is ever covered by two same-direction lines;
//! * the cached candidate list always equals a from-scratch recompute;
//! * records round-trip through serialisation and replay.

use pnmcs::morpion::{cross_board, Dir, GameRecord, Move, Point, Variant, DIRS};
use pnmcs::search::{Game, Rng};
use proptest::prelude::*;
use std::collections::HashMap;

/// Plays a random game with the given seed, returning the final board and
/// the moves played.
fn random_game(
    variant: Variant,
    arm: i16,
    seed: u64,
    max_moves: usize,
) -> (pnmcs::morpion::Board, Vec<Move>) {
    let mut board = cross_board(variant, arm);
    let mut rng = Rng::seeded(seed);
    let mut played = Vec::new();
    while played.len() < max_moves {
        let Some(mv) = board.play_random(&mut rng, &mut Vec::new()) else {
            break;
        };
        played.push(mv);
    }
    (board, played)
}

/// Independently verifies the variant's overlap constraints over a whole
/// move history.
fn assert_no_illegal_overlap(variant: Variant, history: &[Move]) {
    match variant {
        Variant::Disjoint => {
            // No (point, direction) pair may repeat.
            let mut used: HashMap<(Point, Dir), usize> = HashMap::new();
            for (i, mv) in history.iter().enumerate() {
                for p in mv.line_points() {
                    if let Some(prev) = used.insert((p, mv.dir), i) {
                        panic!(
                            "5D violation: point {p} direction {:?} used by moves {prev} and {i}",
                            mv.dir
                        );
                    }
                }
            }
        }
        Variant::Touching => {
            // No (segment, direction) pair may repeat; a segment is the
            // pair (p, p+dir).
            let mut used: HashMap<(Point, Dir), usize> = HashMap::new();
            for (i, mv) in history.iter().enumerate() {
                for k in 0..4 {
                    let p = mv.start.step(mv.dir, k);
                    if let Some(prev) = used.insert((p, mv.dir), i) {
                        panic!(
                            "5T violation: segment at {p} direction {:?} used by moves {prev} and {i}",
                            mv.dir
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_games_respect_overlap_rules(seed in 0u64..5000) {
        for variant in [Variant::Disjoint, Variant::Touching] {
            let (_, history) = random_game(variant, 3, seed, 200);
            prop_assert!(history.len() > 5, "{variant}: game too short");
            assert_no_illegal_overlap(variant, &history);
        }
    }

    #[test]
    fn every_move_adds_exactly_one_point(seed in 0u64..5000) {
        let (board, history) = random_game(Variant::Disjoint, 3, seed, 100);
        // Occupied = initial + one per move; the new point was empty.
        let mut count = 0;
        for y in 0..pnmcs::morpion::GRID {
            for x in 0..pnmcs::morpion::GRID {
                if board.occupied(Point::new(x, y)) {
                    count += 1;
                }
            }
        }
        prop_assert_eq!(count, board.initial_points().len() + history.len());
    }

    #[test]
    fn cached_candidates_match_recompute_at_random_positions(
        seed in 0u64..2000,
        stop in 1usize..40,
    ) {
        for variant in [Variant::Disjoint, Variant::Touching] {
            let mut board = cross_board(variant, 3);
            let mut rng = Rng::seeded(seed);
            let mut cached = Vec::new();
            for _ in 0..stop {
                board.legal_moves_into(&mut cached);
                if cached.is_empty() {
                    break;
                }
                board.play_move(&cached[rng.below(cached.len())]);
            }
            board.legal_moves_into(&mut cached);
            let mut full = board.recompute_candidates();
            let key = |m: &Move| (m.start.y, m.start.x, m.dir.index(), m.pos);
            cached.sort_by_key(key);
            full.sort_by_key(key);
            prop_assert_eq!(cached, full);
        }
    }

    #[test]
    fn records_round_trip_through_json(seed in 0u64..2000) {
        let (board, _) = random_game(Variant::Disjoint, 4, seed, 120);
        let rec = GameRecord::from_board(&board, "prop");
        let json = serde_json::to_string(&rec).unwrap();
        let back: GameRecord = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &rec);
        prop_assert_eq!(back.verify().unwrap(), board.move_count());
    }

    #[test]
    fn prefix_of_a_legal_game_is_legal(seed in 0u64..2000, cut in 0usize..30) {
        let (board, history) = random_game(Variant::Disjoint, 3, seed, 60);
        let cut = cut.min(history.len());
        let mut replay = cross_board(Variant::Disjoint, 3);
        for mv in &history[..cut] {
            prop_assert!(replay.is_legal(mv));
            replay.play_move(mv);
        }
        prop_assert_eq!(replay.move_count(), cut);
        let _ = board;
    }

    #[test]
    fn games_never_touch_the_grid_boundary(seed in 0u64..1000) {
        // The 64x64 window must be comfortably larger than any reachable
        // game; a point on the outer ring would mean rule distortion.
        let (board, _) = random_game(Variant::Touching, 4, seed, 300);
        let (min, max) = board.extent();
        prop_assert!(min.x > 1 && min.y > 1);
        prop_assert!(max.x < pnmcs::morpion::GRID - 2 && max.y < pnmcs::morpion::GRID - 2);
    }

    #[test]
    fn scores_are_monotone_along_games(seed in 0u64..1000) {
        let mut board = cross_board(Variant::Disjoint, 3);
        let mut rng = Rng::seeded(seed);
        let mut prev = board.score();
        while board.play_random(&mut rng, &mut Vec::new()).is_some() {
            prop_assert_eq!(board.score(), prev + 1);
            prev = board.score();
        }
    }
}

#[test]
fn all_four_directions_appear_in_long_games() {
    // Sanity: a long 5T game on the standard cross uses all directions.
    let (board, history) = random_game(Variant::Touching, 4, 11, 500);
    assert!(board.move_count() > 30);
    for dir in DIRS {
        assert!(
            history.iter().any(|m| m.dir == dir),
            "direction {dir} never played in {} moves",
            history.len()
        );
    }
}
