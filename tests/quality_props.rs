//! Search quality as a checked property. The other suites pin that a
//! search is the *same* as it was; these claims say it is *good*.
//!
//! Every result is a pure function of (game, spec, seed), so a claim
//! over fixed seeds is an exact, replayable test: it cannot flake across
//! machines, only across code changes. The seeds and the margins were
//! fixed before the changes they judge. A change that fails a claim
//! reports the failure; it does not edit the seeds or the margins.

use pnmcs::games::SameGame;
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
