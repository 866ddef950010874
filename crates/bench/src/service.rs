//! The service report behind `tables --service`: latency percentiles
//! against an SLO and the dead-letter record, read back through
//! [`Engine::inspector`].
//!
//! The workload is a fixed batch of small mixed-game jobs (SameGame,
//! rollout-TSP, SumGame — the same mix as `examples/engine_service.rs`)
//! plus one guaranteed budget trip and one injected panic. It is a
//! functional report; engine throughput is priced by the ledger's
//! `engine.*` rows.

use crate::report::Table;
use nmcs_core::metrics::{HistogramSnapshot, MetricsSnapshot};
use nmcs_core::seeds::median_seed;
use nmcs_core::SearchSpec;
use nmcs_engine::{Algorithm, Engine, EngineConfig, JobSpec};
use nmcs_games::{SameGame, SumGame, TspGame, TspInstance};
use serde::Serialize;

/// Builds the `i`-th job of the mixed workload by enumerating unified
/// specs — the job is (name, game, SearchSpec), nothing hand-wired.
fn mixed_job(i: usize, seed: u64) -> JobSpec {
    let job_seed = median_seed(seed, 0, i);
    let spec = SearchSpec::nested(1).seed(job_seed).build();
    match i % 3 {
        0 => JobSpec::from_spec(
            format!("samegame-{i}"),
            SameGame::random(5, 5, 3, job_seed),
            spec,
        ),
        1 => JobSpec::from_spec(
            format!("tsp-{i}"),
            TspGame::new(TspInstance::random(8, job_seed), None),
            spec,
        ),
        _ => JobSpec::from_spec(format!("sum-{i}"), SumGame::random(6, 4, job_seed), spec),
    }
}

/// A game whose playouts panic — the service report's fault injector,
/// proving the dead-letter queue end to end (the engine fences every
/// replica with `catch_unwind`, so the worker and the report survive).
/// The fault fires a few moves into a playout. Submitting a job runs no
/// game code, so the panic happens where a buggy game would really
/// throw: on a worker, inside the search.
#[derive(Clone, Default)]
struct FaultyGame {
    moves: usize,
}

impl nmcs_core::Game for FaultyGame {
    type Move = u8;
    fn legal_moves(&self, out: &mut Vec<u8>) {
        out.push(0);
    }
    fn play(&mut self, _mv: &u8) {
        self.moves += 1;
        if self.moves > 24 {
            panic!("injected fault: buggy game implementation");
        }
    }
    fn score(&self) -> nmcs_core::Score {
        0
    }
    fn moves_played(&self) -> usize {
        self.moves
    }
}

/// Runs the latency-SLO workload — the mixed-game job set plus one
/// deadline-budgeted job (a guaranteed budget trip) and one panicking
/// job (a guaranteed dead letter) — through a small engine, and
/// returns the [`Engine::inspector`] snapshot it produced.
pub fn slo_snapshot(n_jobs: usize, seed: u64) -> MetricsSnapshot {
    let engine = Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 64,
    })
    .expect("valid engine config");
    let mut handles = Vec::new();
    for i in 0..n_jobs {
        handles.push(engine.submit(mixed_job(i, seed)).expect("engine accepting"));
    }
    // A deep nested search under a 1ms deadline: trips the budget and
    // lands in the dead-letter record with reason "deadline" while
    // still returning its best-so-far result.
    let tripped = SearchSpec::nested(3).seed(seed).deadline_ms(1).build();
    handles.push(
        engine
            .submit(JobSpec::from_spec(
                "slo-deadline",
                SameGame::random(10, 10, 4, seed),
                tripped,
            ))
            .expect("engine accepting"),
    );
    // The injected fault: replica panics, job fails, DLQ records it.
    handles.push(
        engine
            .submit(JobSpec::uncoded(
                "slo-panic",
                FaultyGame::default(),
                Algorithm::nested(0),
                seed,
            ))
            .expect("engine accepting"),
    );
    for h in handles {
        h.join();
    }
    let snapshot = engine.inspector();
    engine.shutdown();
    snapshot
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One scope of the SLO report (overall queue wait / run time, one
/// game domain, or one search backend).
#[derive(Debug, Clone, Serialize)]
pub struct SloRow {
    /// What this row measures (e.g. `run-time`, `domain:SameGame`).
    pub scope: String,
    /// Samples behind the percentiles.
    pub count: u64,
    /// Estimated median, milliseconds.
    pub p50_ms: f64,
    /// Estimated 95th percentile, milliseconds.
    pub p95_ms: f64,
    /// Estimated 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Largest observed sample, milliseconds.
    pub max_ms: f64,
    /// The latency objective this row is judged against, milliseconds.
    pub slo_ms: f64,
    /// Whether `p99_ms <= slo_ms`.
    pub within_slo: bool,
}

impl SloRow {
    fn from_hist(scope: impl Into<String>, h: &HistogramSnapshot, slo_ms: f64) -> Self {
        let p99_ms = ms(h.p99_ns);
        SloRow {
            scope: scope.into(),
            count: h.count,
            p50_ms: ms(h.p50_ns),
            p95_ms: ms(h.p95_ns),
            p99_ms,
            max_ms: ms(h.max_ns),
            slo_ms,
            within_slo: p99_ms <= slo_ms,
        }
    }
}

/// Flattens an inspector snapshot into SLO rows: overall queue wait and
/// run time first, then per-domain run time, then per-backend search
/// wall time. `slo_ms` is the p99 objective every row is judged
/// against.
pub fn slo_rows(snapshot: &MetricsSnapshot, slo_ms: f64) -> Vec<SloRow> {
    let mut rows = Vec::new();
    if let Some(engine) = &snapshot.engine {
        rows.push(SloRow::from_hist("queue-wait", &engine.queue_wait, slo_ms));
        rows.push(SloRow::from_hist("run-time", &engine.run_time, slo_ms));
        for d in &engine.domains {
            rows.push(SloRow::from_hist(
                format!("domain:{}", d.label),
                &d.hist,
                slo_ms,
            ));
        }
    }
    for b in &snapshot.search.backends {
        rows.push(SloRow::from_hist(
            format!("backend:{}", b.label),
            &b.hist,
            slo_ms,
        ));
    }
    rows
}

/// Renders the SLO rows as a table in the style of the paper harness.
pub fn slo_table(rows: &[SloRow]) -> Table {
    let mut table = Table::new(
        "Service latency SLO: queue wait, run time, per-domain and per-backend percentiles",
        &[
            "scope", "count", "p50 (ms)", "p95 (ms)", "p99 (ms)", "max (ms)", "SLO (ms)", "within",
        ],
    );
    for r in rows {
        table.row(&[
            r.scope.clone(),
            r.count.to_string(),
            format!("{:.2}", r.p50_ms),
            format!("{:.2}", r.p95_ms),
            format!("{:.2}", r.p99_ms),
            format!("{:.2}", r.max_ms),
            format!("{:.0}", r.slo_ms),
            if r.within_slo { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table
}

/// Renders the dead-letter record of an inspector snapshot (the
/// companion table of the SLO report; empty engines render no rows).
pub fn dead_letter_table(snapshot: &MetricsSnapshot) -> Table {
    let mut table = Table::new(
        "Dead letters: panicked / cancelled / budget-tripped replicas (oldest first)",
        &["job", "replica", "tenant", "reason", "age (ms)"],
    );
    if let Some(engine) = &snapshot.engine {
        for d in &engine.dead_letters {
            table.row(&[
                d.job.to_string(),
                d.replica.to_string(),
                d.name.clone(),
                d.reason.clone(),
                d.age_ms.to_string(),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_report_covers_faults_budget_trips_and_percentiles() {
        let snapshot = slo_snapshot(4, 11);
        let engine = snapshot.engine.as_ref().expect("engine section present");
        // The injected fault and the 1ms-deadline job are both in the
        // dead-letter record, with the panic marked as such.
        assert!(engine.dead_letters.iter().any(|d| d.reason == "panicked"));
        assert!(engine.dead_letters.iter().any(|d| d.reason == "deadline"));
        assert_eq!(engine.failed_jobs, 1);
        // Every executed replica fed the run-time histogram.
        assert!(engine.run_time.count >= 5);
        assert!(engine.queue_wait.count >= 1);
        let rows = slo_rows(&snapshot, 10_000.0);
        assert!(rows.iter().any(|r| r.scope == "queue-wait"));
        assert!(rows.iter().any(|r| r.scope == "run-time"));
        assert!(rows.iter().any(|r| r.scope.starts_with("domain:")));
        let table = slo_table(&rows);
        assert_eq!(table.rows.len(), rows.len());
        assert!(dead_letter_table(&snapshot).rows.len() >= 2);
    }
}
