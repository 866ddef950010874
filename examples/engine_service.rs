//! Tour of the `nmcs-engine` search service: a few dozen mixed jobs
//! (Morpion Solitaire, SameGame, rollout-TSP) submitted concurrently,
//! with streamed progress, a mid-flight cancellation, a diversified
//! ensemble, and a throughput summary.
//!
//! ```text
//! cargo run --release --example engine_service
//! ```

use pnmcs::engine::{Algorithm, Engine, EngineConfig, JobSpec, JobState, SubmitError};
use pnmcs::games::{SameGame, TspGame, TspInstance};
use pnmcs::morpion::{cross_board, standard_5d, Variant};
use pnmcs::search::metrics::monotonic_now;
use std::time::Duration;

fn main() {
    let workers = 4;
    let engine = Engine::start(EngineConfig {
        workers,
        queue_capacity: 64,
    })
    .expect("valid engine config");
    println!("engine up: {workers} workers, queue capacity 64\n");
    let started = monotonic_now();

    // --- a few dozen mixed jobs, three domains × two algorithms -------
    let mut handles = Vec::new();
    for i in 0..36u64 {
        let spec = match i % 4 {
            0 => JobSpec::new(
                format!("morpion-{i}"),
                cross_board(Variant::Disjoint, 2),
                Algorithm::nested(1),
                2009 + i,
            ),
            1 => JobSpec::new(
                format!("samegame-{i}"),
                SameGame::random(6, 6, 3, i),
                Algorithm::nested(1),
                2009 + i,
            ),
            2 => JobSpec::new(
                format!("tsp-{i}"),
                TspGame::new(TspInstance::random(9, i), None),
                Algorithm::nested(1),
                2009 + i,
            ),
            _ => JobSpec::new(
                format!("samegame-nrpa-{i}"),
                SameGame::random(5, 5, 3, i),
                Algorithm::nrpa(1, 24),
                2009 + i,
            ),
        };
        // Fast path first; fall back to blocking (backpressure) if full.
        let handle = match engine.try_submit(spec) {
            Ok(h) => h,
            Err((SubmitError::QueueFull { .. }, spec)) => engine.submit(spec).expect("engine up"),
            Err((e, _)) => panic!("submit failed: {e}"),
        };
        handles.push(handle);
    }
    println!("submitted {} mixed jobs", handles.len());

    // --- one deliberately heavy job we will cancel mid-flight ---------
    let victim = engine
        .submit(JobSpec::new(
            "morpion-heavy (to be cancelled)",
            standard_5d(),
            Algorithm::nested(2),
            7,
        ))
        .expect("engine up");

    // --- one diversified ensemble -------------------------------------
    let ensemble = engine
        .submit(
            JobSpec::new(
                "samegame-ensemble",
                SameGame::random(6, 6, 3, 99),
                Algorithm::nested(1),
                424242,
            )
            .with_replicas(4)
            .with_policy_diversification(),
        )
        .expect("engine up");

    // --- stream progress while the fleet drains ------------------------
    std::thread::sleep(Duration::from_millis(30));
    victim.cancel();
    println!("cancelled '{}' mid-flight", victim.name());

    loop {
        let done = handles
            .iter()
            .filter(|h| h.poll_progress().state.is_terminal())
            .count();
        let ens = ensemble.poll_progress();
        println!(
            "  [{:>6.1?}] {done}/{} jobs done | ensemble {}/{} replicas, best {:?} | queue depth {}",
            started.elapsed(),
            handles.len(),
            ens.replicas_done,
            ens.replicas_total,
            ens.best_score,
            engine.stats().queue_depth,
        );
        if done == handles.len() && ens.state.is_terminal() {
            break;
        }
        std::thread::sleep(Duration::from_millis(150));
    }

    // --- results --------------------------------------------------------
    let cancelled = victim.join();
    assert_eq!(cancelled.state, JobState::Cancelled);
    println!(
        "\ncancelled job finished as {:?} after {:?} (no result reported: {})",
        cancelled.state,
        cancelled.elapsed,
        cancelled.best.is_none(),
    );

    let ens_out = ensemble.join();
    println!(
        "ensemble best score {:?} from replica {:?}; per replica:",
        ens_out.score(),
        ens_out.best.as_ref().map(|b| b.replica)
    );
    for r in ens_out.replicas.iter().flatten() {
        println!(
            "    replica {} seed {:#018x} policy {:?} -> score {}",
            r.replica, r.seed_used, r.memory_policy, r.result.score
        );
    }

    let mut best_lines: Vec<String> = Vec::new();
    for h in handles {
        let out = h.join();
        best_lines.push(format!("{:<18} {:>6}", out.name, out.score().unwrap()));
    }
    println!("\nsample of per-job best scores:");
    for line in best_lines.iter().take(8) {
        println!("    {line}");
    }

    // --- throughput summary ---------------------------------------------
    let elapsed = started.elapsed();
    let stats = engine.stats();
    println!("\nthroughput summary");
    println!("    wall clock          {elapsed:?}");
    println!(
        "    jobs completed      {} ({:.1} jobs/sec)",
        stats.completed_jobs,
        stats.completed_jobs as f64 / elapsed.as_secs_f64()
    );
    println!("    jobs cancelled      {}", stats.cancelled_jobs);
    println!("    replica tasks run   {}", stats.executed_tasks);
    println!("    work units          {}", stats.total_work_units);
    println!(
        "    peak queue depth    {}/{}",
        stats.peak_queue_depth, stats.queue_capacity
    );
    engine.shutdown();
}
