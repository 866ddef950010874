//! Leaf-parallel batched backend experiment (`tables --leaf`).
//!
//! Sweeps worker count × batch size for the unified
//! `SearchSpec::leaf(level, batch, threads)` strategy on SameGame boards
//! (one small, one paper-sized) and a reduced Morpion cross, reporting
//! score, wall-clock time, leaf-evaluation throughput and what the
//! persistent executor pool did meanwhile (steals, parks, wakeups). The
//! pool's fixed cost per batch slot is priced by the perf ledger
//! (`core.exec.run_batch_ns_per_slot_*`).
//!
//! Because the leaf backend derives every evaluation's seed from its
//! logical coordinates, the score column is constant down each batch
//! column — the table doubles as a visible determinism check (a score
//! that moved with the thread count would be a seeding bug).
//!
//! Every row records the exact [`SearchSpec`] JSON that produced it, so
//! any cell is reproducible from the command line with one pasted
//! string: `tables --spec '<json>' --game <domain>`.

use crate::pooldelta::PoolProbe;
use crate::report::Table;
use morpion::{cross_board, Variant};
use nmcs_core::{CodedGame, SearchSpec, Searcher};
use nmcs_games::SameGame;
use serde::Serialize;

/// One measured (domain × workers × batch) cell.
#[derive(Debug, Clone, Serialize)]
pub struct LeafRow {
    pub domain: String,
    pub threads: usize,
    pub batch: usize,
    pub score: i64,
    pub elapsed_ms: f64,
    pub leaf_evals: u64,
    pub evals_per_sec: f64,
    /// Executor-pool deque steals per second during the run (delta of
    /// the shared metrics registry around it).
    pub steals_per_sec: f64,
    /// Executor-pool worker parks per second during the run.
    pub parks_per_sec: f64,
    /// Executor-pool wakeup-generation bumps per second during the run.
    pub wakeups_per_sec: f64,
    /// The exact spec JSON reproducing this row from the CLI.
    pub spec: String,
}

fn measure<G>(domain: &str, game: &G, threads: usize, batch: usize, seed: u64) -> LeafRow
where
    G: CodedGame + Send + Sync,
    G::Move: Send + Sync,
{
    let spec = SearchSpec::leaf(1, batch, threads).seed(seed).build();
    let probe = PoolProbe::start();
    let report = spec.search(game, None);
    let delta = probe.finish();
    let secs = report.elapsed.as_secs_f64().max(1e-9);
    LeafRow {
        domain: domain.to_string(),
        threads,
        batch,
        score: report.score,
        elapsed_ms: secs * 1e3,
        leaf_evals: report.client_jobs,
        evals_per_sec: report.client_jobs as f64 / secs,
        steals_per_sec: delta.steals_per_sec(secs),
        parks_per_sec: delta.parks_per_sec(secs),
        wakeups_per_sec: delta.wakeups_per_sec(secs),
        spec: serde_json::to_string(&spec).expect("specs serialise"),
    }
}

fn sweep_domain<G>(
    rows: &mut Vec<LeafRow>,
    domain: &str,
    game: &G,
    threads: &[usize],
    batches: &[usize],
    seed: u64,
) where
    G: CodedGame + Send + Sync,
    G::Move: Send + Sync,
{
    for &batch in batches {
        for &t in threads {
            rows.push(measure(domain, game, t, batch, seed));
        }
    }
}

/// Sweeps the leaf backend over worker counts and batch sizes by
/// enumerating specs (one [`SearchSpec`] per cell).
pub fn leaf_sweep(threads: &[usize], batches: &[usize], seed: u64) -> Vec<LeafRow> {
    // The small board is the pool's motivating case: whole games take
    // milliseconds, so the fixed cost of a step's fan-out shows.
    let small = SameGame::random(6, 6, 3, seed);
    let samegame = SameGame::random(10, 10, 4, seed);
    let cross = cross_board(Variant::Disjoint, 3);
    let mut rows = Vec::new();
    sweep_domain(&mut rows, "samegame-6x6", &small, threads, batches, seed);
    sweep_domain(
        &mut rows,
        "samegame-10x10",
        &samegame,
        threads,
        batches,
        seed,
    );
    sweep_domain(&mut rows, "morpion-5d-c3", &cross, threads, batches, seed);
    rows
}

/// Renders a sweep as a table in the style of the paper harness.
pub fn leaf_table(rows: &[LeafRow]) -> Table {
    let mut table = Table::new(
        "Leaf-parallel batched NMCS on the persistent pool",
        &[
            "domain",
            "batch",
            "workers",
            "score",
            "elapsed (ms)",
            "leaf evals",
            "evals/sec",
            "steals/s",
            "parks/s",
            "wakeups/s",
        ],
    );
    for r in rows {
        table.row(&[
            r.domain.clone(),
            r.batch.to_string(),
            r.threads.to_string(),
            r.score.to_string(),
            format!("{:.1}", r.elapsed_ms),
            r.leaf_evals.to_string(),
            format!("{:.0}", r.evals_per_sec),
            format!("{:.0}", r.steals_per_sec),
            format!("{:.0}", r.parks_per_sec),
            format!("{:.0}", r.wakeups_per_sec),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_are_invariant_across_worker_counts() {
        let rows = leaf_sweep(&[1, 2], &[2], 7);
        for pair in rows.chunks(2) {
            assert_eq!(pair[0].domain, pair[1].domain);
            assert_eq!(pair[0].batch, pair[1].batch);
            assert_eq!(
                pair[0].score, pair[1].score,
                "{}: leaf scores must not depend on the worker count",
                pair[0].domain
            );
            assert_eq!(pair[0].leaf_evals, pair[1].leaf_evals);
        }
    }

    #[test]
    fn table_renders_every_row() {
        let rows = leaf_sweep(&[1], &[1, 2], 3);
        let table = leaf_table(&rows);
        assert_eq!(table.rows.len(), rows.len());
        assert!(table.render().contains("samegame-10x10"));
        assert!(table.render().contains("samegame-6x6"));
    }

    #[test]
    fn rows_carry_replayable_specs() {
        let rows = leaf_sweep(&[1], &[2], 5);
        for row in &rows {
            let spec: SearchSpec = serde_json::from_str(&row.spec).expect("row spec parses");
            assert!(matches!(
                spec.algorithm,
                nmcs_core::AlgorithmSpec::LeafParallel { batch: 2, .. }
            ));
            assert_eq!(spec.seed, 5);
            assert!(row.evals_per_sec > 0.0);
        }
    }
}
