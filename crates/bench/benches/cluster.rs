//! Cluster-level benchmarks: discrete-event replay throughput for the
//! paper's table configurations, dispatcher state-machine costs, and the
//! threaded backend.

use criterion::{criterion_group, criterion_main, Criterion};
use des_sim::ClusterSpec;
use morpion::{cross_board, Variant};
use nmcs_games::SumGame;
use parallel_nmcs::{
    run_threads_traced, simulate_trace, trace::run_reference, DispatchPolicy, DispatcherCore,
    RunMode, ThreadConfig, TraceModel,
};
use std::hint::black_box;

fn bench_sim_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_replay");
    group.sample_size(10);
    // A level-3-like first-move workload (the Table II/IV row generator).
    let trace = TraceModel::level3_like().synthesize(RunMode::FirstMove, 2009);
    for policy in [DispatchPolicy::RoundRobin, DispatchPolicy::LastMinute] {
        let c64 = ClusterSpec::paper_64();
        group.bench_function(format!("64_clients_{policy}"), |b| {
            b.iter(|| black_box(simulate_trace(&trace, &c64, policy).makespan))
        });
    }
    let hetero = ClusterSpec::hetero_16x4_16x2();
    group.bench_function("hetero_96_clients_LM", |b| {
        b.iter(|| black_box(simulate_trace(&trace, &hetero, DispatchPolicy::LastMinute).makespan))
    });
    group.finish();
}

fn bench_dispatcher_core(c: &mut Criterion) {
    c.bench_function("dispatcher_lm_request_free_cycle", |b| {
        let clients: Vec<usize> = (0..64).collect();
        let mut core = DispatcherCore::new(DispatchPolicy::LastMinute, clients);
        let mut i = 0usize;
        b.iter(|| {
            // Saturate then drain a little, exercising both paths.
            let granted = core.on_request(1000 + (i % 40), i % 70);
            if granted.is_none() {
                black_box(core.on_client_free(i % 64));
            }
            i += 1;
        })
    });
}

fn bench_thread_backend(c: &mut Criterion) {
    let mut group = c.benchmark_group("threads");
    group.sample_size(10);
    // Small real workload: level-2 first move on a reduced cross.
    let board = cross_board(Variant::Disjoint, 2);
    for policy in [DispatchPolicy::RoundRobin, DispatchPolicy::LastMinute] {
        group.bench_function(format!("morpion_arm2_level2_first_move_{policy}"), |b| {
            b.iter(|| {
                let mut cfg = ThreadConfig::new(2, policy, 2);
                cfg.n_medians = 8;
                cfg.mode = RunMode::FirstMove;
                cfg.seed = 5;
                black_box(run_threads_traced(&board, &cfg).0.score)
            })
        });
    }
    group.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_generation");
    group.sample_size(10);
    let g = SumGame::random(6, 4, 1);
    group.bench_function("reference_level2_sum_game", |b| {
        b.iter(|| {
            black_box(
                run_reference(&g, 2, 7, RunMode::FullGame, None)
                    .1
                    .client_jobs,
            )
        })
    });
    group.bench_function("synthetic_level3_first_move", |b| {
        b.iter(|| {
            black_box(
                TraceModel::level3_like()
                    .synthesize(RunMode::FirstMove, 3)
                    .client_jobs,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sim_replay,
    bench_dispatcher_core,
    bench_thread_backend,
    bench_trace_generation
);
criterion_main!(benches);
