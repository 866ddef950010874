//! Extension X1: NRPA (Rosin 2011) — the algorithm that took the Morpion
//! record back from the paper — integrated with the rest of the library.

use pnmcs::morpion::{cross_board, standard_5d, GameRecord, Variant};
use pnmcs::search::{Game, NrpaConfig, SearchSpec};

#[test]
fn nrpa_plays_legal_verified_morpion_games() {
    let board = cross_board(Variant::Disjoint, 3);
    let cfg = NrpaConfig {
        iterations: 15,
        alpha: 1.0,
    };
    let r = SearchSpec::nrpa_with(2, cfg).seed(1).run(&board);
    let mut replay = board;
    for mv in &r.sequence {
        replay.play(mv);
    }
    assert_eq!(replay.score(), r.score);
    let record = GameRecord::from_board(&replay, "nrpa test");
    assert_eq!(record.verify().unwrap() as i64, r.score);
}

#[test]
fn nrpa_level2_beats_single_level1_nmcs_on_average() {
    // At comparable playout budgets NRPA's learned policy should at least
    // match plain NMCS on the reduced cross; compare averages over seeds.
    let board = cross_board(Variant::Disjoint, 3);
    let trials = 5;
    let mut nrpa_sum = 0i64;
    let mut nmcs_sum = 0i64;
    for seed in 0..trials {
        let l1 = SearchSpec::nested(1).seed(seed).run(&board);
        let iters = (l1.stats.playouts as f64).sqrt().ceil() as usize;
        let cfg = NrpaConfig {
            iterations: iters,
            alpha: 1.0,
        };
        let r = SearchSpec::nrpa_with(2, cfg).seed(seed).run(&board);
        nrpa_sum += r.score;
        nmcs_sum += l1.score;
    }
    assert!(
        nrpa_sum + 2 * trials as i64 >= nmcs_sum,
        "NRPA ({nrpa_sum}) should be competitive with NMCS level 1 ({nmcs_sum})"
    );
}

#[test]
fn nrpa_improves_with_iterations_on_morpion() {
    let board = standard_5d();
    let score_at = |iters: usize| {
        let cfg = NrpaConfig {
            iterations: iters,
            alpha: 1.0,
        };
        (0..3)
            .map(|s| {
                SearchSpec::nrpa_with(1, cfg.clone())
                    .seed(s)
                    .run(&board)
                    .score
            })
            .sum::<i64>()
    };
    let few = score_at(3);
    let many = score_at(30);
    assert!(
        many > few,
        "30 iterations ({many}) should beat 3 iterations ({few}) summed over seeds"
    );
}
