//! `tables --spec '<json>'` — replay any sweep row from one pasted
//! string.
//!
//! Every persisted sweep row records the exact [`SearchSpec`] JSON that
//! produced it; this module runs such a spec against a named stock game
//! and renders a one-row table, so a measurement is reproducible from
//! the command line without touching code:
//!
//! ```text
//! tables --spec '{"algorithm":{"kind":"nested","level":2},"budget":{"deadline_ms":200},"seed":42}' \
//!        --game samegame
//! ```

use crate::report::Table;
use nmcs_core::{SearchReport, SearchSpec, Searcher};
use nmcs_serve::wire;

/// Runs `spec` on the stock game named `game` (one of [`wire::GAMES`];
/// seeded games derive from the spec's seed, so (spec, game name) is a
/// complete experiment description). Returns the rendered table; errors
/// on an unknown game name.
pub fn run_spec_on(spec: &SearchSpec, game: &str) -> Result<Table, String> {
    let position = wire::stock_game(game, spec.seed)?;
    Ok(spec_table(spec, game, &spec.search(&position, None)))
}

fn spec_table(spec: &SearchSpec, game: &str, report: &SearchReport<usize>) -> Table {
    let mut table = Table::new(
        "Spec replay",
        &[
            "game",
            "algorithm",
            "seed",
            "score",
            "moves",
            "playouts",
            "work units",
            "client jobs",
            "elapsed (ms)",
            "interrupted",
        ],
    );
    table.row(&[
        game.to_string(),
        spec.algorithm.label().to_string(),
        spec.seed.to_string(),
        report.score.to_string(),
        report.sequence.len().to_string(),
        report.stats.playouts.to_string(),
        report.total_work().to_string(),
        report.client_jobs.to_string(),
        format!("{:.1}", report.elapsed.as_secs_f64() * 1e3),
        report
            .interrupted
            .map_or_else(|| "-".to_string(), |i| format!("{i:?}")),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_a_pasted_json_spec() {
        let json = r#"{"algorithm":{"kind":"nested","level":1},"budget":{},"seed":7}"#;
        let spec: SearchSpec = serde_json::from_str(json).expect("spec parses");
        let table = run_spec_on(&spec, "sum").expect("stock game");
        let rendered = table.render();
        assert!(rendered.contains("nested"));
        assert!(rendered.contains("sum"));
    }

    #[test]
    fn budgeted_spec_reports_its_interruption() {
        let spec = SearchSpec::nested(2).seed(1).max_playouts(5).build();
        let table = run_spec_on(&spec, "samegame-small").expect("stock game");
        assert!(table.render().contains("PlayoutBudget"));
    }

    #[test]
    fn unknown_game_is_a_clear_error() {
        let spec = SearchSpec::sample().build();
        let err = run_spec_on(&spec, "chess").unwrap_err();
        assert!(err.contains("unknown game"));
    }
}
