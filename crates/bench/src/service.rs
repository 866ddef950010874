//! Engine throughput experiment: jobs/sec as a function of worker count
//! and queue depth.
//!
//! The workload is a fixed batch of small mixed-game jobs (SameGame,
//! rollout-TSP, SumGame — the same mix as `examples/engine_service.rs`),
//! submitted as fast as backpressure admits them. For each (workers,
//! queue capacity) cell the experiment reports wall-clock throughput
//! and queue behaviour (peak depth, rejected fast-path submissions).

use crate::report::Table;
use nmcs_core::metrics::{HistogramSnapshot, MetricsSnapshot};
use nmcs_core::seeds::median_seed;
use nmcs_core::SearchSpec;
use nmcs_engine::{Algorithm, Engine, EngineConfig, JobSpec, SubmitError};
use nmcs_games::{SameGame, SumGame, TspGame, TspInstance};
use serde::Serialize;
use std::time::Instant;

/// One measured (workers × queue capacity) cell.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputRow {
    pub workers: usize,
    pub queue_capacity: usize,
    pub jobs: usize,
    pub elapsed_ms: f64,
    pub jobs_per_sec: f64,
    pub total_work_units: u64,
    pub peak_queue_depth: usize,
    pub rejected_submissions: u64,
}

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

/// Runs `n_jobs` mixed jobs through an engine with the given shape and
/// measures completion throughput.
pub fn measure_cell(
    workers: usize,
    queue_capacity: usize,
    n_jobs: usize,
    seed: u64,
) -> ThroughputRow {
    let engine = Engine::start(EngineConfig {
        workers,
        queue_capacity,
    })
    .expect("valid engine config");
    let started = Instant::now();
    let mut handles = Vec::with_capacity(n_jobs);
    for i in 0..n_jobs {
        // Exercise both admission paths: fast-path try_submit, falling
        // back to the blocking (backpressure) path when full.
        let handle = match engine.try_submit(mixed_job(i, seed)) {
            Ok(h) => h,
            Err((SubmitError::QueueFull { .. }, spec)) => {
                engine.submit(spec).expect("engine accepting")
            }
            Err((e, _)) => panic!("submission failed: {e}"),
        };
        handles.push(handle);
    }
    for h in handles {
        let out = h.join();
        assert!(out.best.is_some(), "job {} produced no result", out.name);
    }
    let elapsed = started.elapsed();
    let stats = engine.stats();
    engine.shutdown();

    ThroughputRow {
        workers,
        queue_capacity,
        jobs: n_jobs,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        jobs_per_sec: n_jobs as f64 / elapsed.as_secs_f64(),
        total_work_units: stats.total_work_units,
        peak_queue_depth: stats.peak_queue_depth,
        rejected_submissions: stats.rejected_submissions,
    }
}

/// The full sweep: every worker count × queue capacity combination.
pub fn throughput_sweep(
    workers: &[usize],
    queue_capacities: &[usize],
    n_jobs: usize,
    seed: u64,
) -> Vec<ThroughputRow> {
    let mut rows = Vec::new();
    for &w in workers {
        for &cap in queue_capacities {
            rows.push(measure_cell(w, cap, n_jobs, seed));
        }
    }
    rows
}

/// Renders a sweep as a table in the style of the paper harness.
pub fn throughput_table(rows: &[ThroughputRow]) -> Table {
    let mut table = Table::new(
        "Engine throughput: mixed jobs vs workers vs queue depth",
        &[
            "workers",
            "queue cap",
            "jobs",
            "elapsed (ms)",
            "jobs/sec",
            "peak queue",
            "rejected",
        ],
    );
    for r in rows {
        table.row(&[
            r.workers.to_string(),
            r.queue_capacity.to_string(),
            r.jobs.to_string(),
            format!("{:.1}", r.elapsed_ms),
            format!("{:.0}", r.jobs_per_sec),
            r.peak_queue_depth.to_string(),
            r.rejected_submissions.to_string(),
        ]);
    }
    table
}

/// A game whose playouts panic — the service report's fault injector,
/// proving the dead-letter queue end to end (the engine fences every
/// replica with `catch_unwind`, so the worker and the report survive).
/// The fault fires a few moves into a playout, past the scheduler's
/// short state-digest probe, so submission succeeds and the panic
/// happens where a buggy game would really throw: on a worker, inside
/// the search.
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
                Algorithm::Sample,
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
    fn single_cell_completes_all_jobs() {
        let row = measure_cell(2, 8, 6, 42);
        assert_eq!(row.jobs, 6);
        assert!(row.jobs_per_sec > 0.0);
        assert!(row.peak_queue_depth <= 8);
    }

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

    #[test]
    fn sweep_covers_the_grid() {
        let rows = throughput_sweep(&[1, 2], &[4], 3, 7);
        assert_eq!(rows.len(), 2);
        let table = throughput_table(&rows);
        assert_eq!(table.rows.len(), 2);
        // Rendering sanity: every row has the full width.
        assert!(table.render().contains("jobs/sec"));
    }
}
