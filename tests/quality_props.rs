//! Search quality as a checked property. The other suites pin that a
//! search is the *same* as it was; these claims say it is *good*.
//!
//! Every result is a pure function of (game, spec, seed), so a claim
//! over fixed seeds is an exact, replayable test: it cannot flake across
//! machines, only across code changes. The seeds and the margins were
//! fixed before the changes they judge. A change that fails a claim
//! reports the failure; it does not edit the seeds or the margins.

use pnmcs::games::SameGame;
use pnmcs::morpion::{cross_board, Variant};
use pnmcs::search::{SearchSpec, StatsMode, UctConfig};

/// The seeds of every claim: board `s` is searched with spec seed `s`.
const SEEDS: std::ops::Range<u64> = 0..64;

/// The mean score of `spec` over a 10×10, four-colour SameGame board
/// per seed.
fn mean_score(spec: impl Fn(UctConfig) -> pnmcs::search::SearchBuilder) -> f64 {
    let config = UctConfig {
        iterations: 2000,
        ..UctConfig::default()
    };
    let total: i64 = SEEDS
        .map(|s| {
            let board = SameGame::random(10, 10, 4, s);
            spec(config.clone()).seed(s).run(&board).score
        })
        .sum();
    total as f64 / SEEDS.count() as f64
}

/// Liu et al.'s claim for WU-UCT: with `w` descents in flight the search
/// stays near sequential quality at an equal total number of
/// iterations. Here: tree-parallel UCT with WU-UCT statistics at two and
/// four lanes keeps a mean score of at least 0.97 × `uct`'s.
#[test]
fn wu_uct_tree_parallel_stays_within_three_percent_of_uct() {
    let uct = mean_score(SearchSpec::uct_with);
    for lanes in [2, 4] {
        let wide = mean_score(|config| {
            SearchSpec::tree_parallel_with(config, lanes).stats_mode(StatsMode::WuUct)
        });
        assert!(
            wide >= 0.97 * uct,
            "tree_parallel({lanes}) mean {wide:.1} fell below 0.97 × uct's {uct:.1}"
        );
    }
}

/// The tree search against its flat baseline at an equal number of
/// playouts: `uct` at 2 000 iterations keeps a mean score at least
/// `flat_mc`'s at 2 000 playouts on the 10×10 boards (1434.1 against
/// 1379.1 when the claim was set).
///
/// The claim is not set on 6×6, three-colour boards
/// (`SameGame::random(6, 6, 3, s)`): there `uct` loses, 1025.1 against
/// `flat_mc`'s 1114.0 on the same seeds. Most of its iterations end on
/// a terminal node the tree already holds, so the budget re-scores
/// finished lines instead of sampling new ones.
#[test]
fn uct_at_least_matches_flat_monte_carlo_at_equal_playouts() {
    let uct = mean_score(SearchSpec::uct_with);
    let flat = mean_score(|config| SearchSpec::flat_mc(config.iterations));
    assert!(
        uct >= flat,
        "uct mean {uct:.1} fell below flat_mc's {flat:.1} at 2 000 playouts"
    );
}

/// One-sided sign test: the probability of at least `wins` successes in
/// `wins + losses` fair coin flips (ties are dropped before the test).
fn sign_test_p(wins: usize, losses: usize) -> f64 {
    let n = wins + losses;
    // C(n, k) / 2^n, summed for k = wins..=n, built up in f64.
    let mut term = 0.5f64.powi(n as i32); // C(n, n) / 2^n
    let mut tail = 0.0;
    for k in (wins..=n).rev() {
        tail += term;
        term *= k as f64 / (n - k + 1) as f64; // C(n, k-1) from C(n, k)
    }
    tail
}

/// The paper's §III on Morpion: a level-1 nested search beats its own
/// level 0 (one random playout) seed by seed. On the reduced 5D cross
/// (arm 3), spec seed `s` for s ∈ 0..64, level 1 must win more seeds
/// than it loses with a one-sided sign-test p ≤ 0.001. When the claim
/// was set it won 63 seeds and tied one, means 19.4 against 15.9.
#[test]
fn nested_level_one_beats_level_zero_on_the_reduced_cross() {
    let board = cross_board(Variant::Disjoint, 3);
    let (mut wins, mut losses) = (0, 0);
    for s in SEEDS {
        let one = SearchSpec::nested(1).seed(s).run(&board).score;
        let zero = SearchSpec::nested(0).seed(s).run(&board).score;
        match one.cmp(&zero) {
            std::cmp::Ordering::Greater => wins += 1,
            std::cmp::Ordering::Less => losses += 1,
            std::cmp::Ordering::Equal => {}
        }
    }
    let p = sign_test_p(wins, losses);
    assert!(
        p <= 1e-3,
        "nested(1) won {wins} seeds and lost {losses} against nested(0): sign-test p = {p:.2e}"
    );
}
