//! Per-layer probes: each layer of the repo priced on its own, from
//! outside, by timing calls into its public functions.
//!
//! Every timed interval is a batch of at least [`MIN_BATCH`], and a
//! micro-probe reports its fastest batch (the box's speed flips between
//! two levels every few seconds; the fast one is the code's own). Counts
//! come from the program's
//! public counters (`SearchStats`, `ExecutorPool::metrics()`,
//! `SearchSession::table_counters()`, `Engine::queue_wait_snapshot()`,
//! `cluster_rt` trace entries).

use crate::http::Client;
use crate::pin::OneCpu;
use crate::stats::median;
use crate::trace::{self_times, Span, Tracer, NO_PARENT};
use crate::workloads::{
    mix64, round_trip, serve_config, serve_game, serve_spec, submit_body, WireResult,
};
use cluster_rt::{Tagged, World};
use des_sim::{ClusterSpec, EventQueue};
use morpion::{cross_board, standard_5d, Variant};
use nmcs_core::{
    set_metrics_enabled, DynGame, ExecutorPool, Game, LockStrategy, NrpaConfig, PlayoutScratch,
    Rng, SearchCtx, SearchSession, SearchSpec, SnapshotOnly, StatsMode, UctConfig,
};
use nmcs_engine::{Engine, EngineConfig, JobSpec};
use nmcs_games::{SameGame, Sudoku, SumGame, TspGame, TspInstance};
use nmcs_serve::{wire, Server};
use parallel_nmcs::{
    run_threads_traced, simulate_trace, single_client_reference, DispatchPolicy, RunMode,
    ThreadConfig, TraceModel,
};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// No timed interval is shorter than this.
const MIN_BATCH: Duration = Duration::from_micros(200);
/// Time spent on one micro-probe.
const PROBE: Duration = Duration::from_millis(60);
/// Jobs the ladder runs each way.
const LADDER_OPS: u64 = 1000;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Nanoseconds of one call of `unit` in the fastest of the batches (of
/// at least [`MIN_BATCH`] each) that fit in about [`PROBE`].
fn ns_per_unit(mut unit: impl FnMut()) -> f64 {
    let t = Instant::now();
    unit();
    let once = t.elapsed().as_nanos().max(1);
    let reps = MIN_BATCH.as_nanos().div_ceil(once).max(1) as u64;
    let mut per_unit = Vec::new();
    let started = Instant::now();
    while started.elapsed() < PROBE || per_unit.len() < 5 {
        let t = Instant::now();
        for _ in 0..reps {
            unit();
        }
        per_unit.push(t.elapsed().as_nanos() as f64 / reps as f64);
    }
    per_unit.into_iter().fold(f64::INFINITY, f64::min)
}

/// Median of `f`'s own timings (seconds) over `runs` calls.
fn median_secs(runs: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let secs: Vec<f64> = (0..runs).map(|_| f().as_secs_f64()).collect();
    median(&secs).expect("runs > 0")
}

fn median_ns(durations: &[u64]) -> f64 {
    let v: Vec<f64> = durations.iter().map(|&d| d as f64).collect();
    median(&v).unwrap_or(0.0)
}

// ---------------------------------------------------------------------
// Domain layers
// ---------------------------------------------------------------------

struct DomainCost {
    apply_undo_ns: f64,
    legal_moves_ns: f64,
    state_hash_ns: f64,
    clone_ns: f64,
    playout: PlayoutCost,
}

#[derive(Clone, Copy)]
struct PlayoutCost {
    us: f64,
    ns_per_move: f64,
}

/// The positions and moves of one seeded random game from `root`: the
/// position mix a playout actually visits.
fn random_line<G: Game>(root: &G, seed: u64) -> (Vec<G>, Vec<G::Move>) {
    let mut rng = Rng::seeded(seed);
    let mut pos = root.clone();
    let (mut positions, mut moves, mut legal) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        pos.legal_moves_into(&mut legal);
        if legal.is_empty() {
            return (positions, moves);
        }
        positions.push(pos.clone());
        let mv = legal.swap_remove(rng.below(legal.len()));
        pos.play(&mv);
        moves.push(mv);
    }
}

/// One random playout per unit, the way the searches run it: in place
/// with apply/undo where the game journals its moves, otherwise on a
/// clone.
fn playout_cost<G: Game>(root: &G, seed: u64) -> PlayoutCost {
    let mut scratch = PlayoutScratch::new();
    let mut rng = Rng::seeded(seed);
    let mut ctx = SearchCtx::unbounded();
    let mut seq = Vec::new();
    let mut pos = root.clone();
    let in_place = root.supports_undo();
    let ns = ns_per_unit(|| {
        seq.clear();
        let score = if in_place {
            scratch.run_undo(&mut pos, &mut rng, None, &mut seq, &mut ctx)
        } else {
            let mut disposable = root.clone();
            scratch.run(&mut disposable, &mut rng, None, &mut seq, &mut ctx)
        };
        black_box(score);
    });
    let stats = ctx.stats();
    let moves_per_playout = stats.playout_moves as f64 / stats.playouts.max(1) as f64;
    PlayoutCost {
        us: ns / 1e3,
        ns_per_move: ns / moves_per_playout.max(1.0),
    }
}

fn domain_cost<G: Game>(root: &G, seed: u64) -> DomainCost {
    let (positions, moves) = random_line(root, seed);
    let n = positions.len().max(1) as f64;
    let mut pos = root.clone();
    let mut undos = Vec::new();
    let apply_undo_ns = ns_per_unit(|| {
        for mv in &moves {
            undos.push(pos.apply(mv));
        }
        pos.undo_all(&mut undos);
    }) / n;
    let mut legal = Vec::new();
    let legal_moves_ns = ns_per_unit(|| {
        for p in &positions {
            p.legal_moves_into(&mut legal);
            black_box(legal.len());
        }
    }) / n;
    let state_hash_ns = ns_per_unit(|| {
        for p in &positions {
            black_box(black_box(p).state_hash());
        }
    }) / n;
    let clone_ns = ns_per_unit(|| {
        for p in &positions {
            black_box(p.clone());
        }
    }) / n;
    DomainCost {
        apply_undo_ns,
        legal_moves_ns,
        state_hash_ns,
        clone_ns,
        playout: playout_cost(root, seed),
    }
}

fn domains(seed: u64, out: &mut Metrics) -> (PlayoutCost, PlayoutCost) {
    let board = standard_5d();
    let m = domain_cost(&board, seed);
    out.insert("morpion.apply_undo_ns", m.apply_undo_ns);
    out.insert("morpion.legal_moves_ns", m.legal_moves_ns);
    out.insert("morpion.state_hash_ns", m.state_hash_ns);
    out.insert("morpion.clone_ns", m.clone_ns);
    out.insert("morpion.playout_us", m.playout.us);
    out.insert("morpion.playout_moves_per_s", 1e9 / m.playout.ns_per_move);
    out.insert("core.search.playout_scratch_per_s", 1e6 / m.playout.us);
    let snapshot = playout_cost(&SnapshotOnly(board), seed);
    out.insert("core.search.playout_snapshot_per_s", 1e6 / snapshot.us);

    let s = domain_cost(&SameGame::random(15, 15, 5, seed), seed);
    out.insert("games.samegame.apply_undo_ns", s.apply_undo_ns);
    out.insert("games.samegame.legal_moves_ns", s.legal_moves_ns);
    out.insert("games.samegame.state_hash_ns", s.state_hash_ns);
    out.insert("games.samegame.clone_ns", s.clone_ns);
    out.insert("games.samegame.playout_us", s.playout.us);
    let samegame6 = playout_cost(&SameGame::random(6, 6, 3, seed), seed);
    out.insert("games.samegame6.playout_us", samegame6.us);
    let tsp = TspGame::new(TspInstance::random(12, seed), None);
    out.insert("games.tsp.playout_us", playout_cost(&tsp, seed).us);
    out.insert(
        "games.sudoku.playout_us",
        playout_cost(&Sudoku::puzzle(3, 40, seed), seed).us,
    );
    out.insert(
        "games.sum.playout_us",
        playout_cost(&SumGame::random(6, 4, seed), seed).us,
    );
    (m.playout, samegame6)
}

// ---------------------------------------------------------------------
// core.search, core.exec, core.uct, core.session
// ---------------------------------------------------------------------

/// Totals over `runs` front-door runs with seeds `seed, seed + 1, …`.
struct Totals {
    secs: f64,
    playouts: u64,
    playout_moves: u64,
    expansions: u64,
}

fn run_spec<G>(runs: u64, seed: u64, game: &G, spec: impl Fn(u64) -> SearchSpec) -> Totals
where
    G: nmcs_core::CodedGame + Send + Sync,
    G::Move: Send + Sync,
{
    let mut t = Totals {
        secs: 0.0,
        playouts: 0,
        playout_moves: 0,
        expansions: 0,
    };
    for i in 0..runs {
        let spec = spec(seed.wrapping_add(i));
        let started = Instant::now();
        let report = spec.run(game);
        t.secs += started.elapsed().as_secs_f64();
        t.playouts += report.stats.playouts;
        t.playout_moves += report.stats.playout_moves;
        t.expansions += report.stats.expansions;
        black_box(report);
    }
    t
}

fn core_search(seed: u64, morpion: PlayoutCost, out: &mut Metrics) {
    let board = standard_5d();
    let small = cross_board(Variant::Disjoint, 3);
    let nested1 = |s| SearchSpec::nested(1).seed(s).build();

    let n1 = run_spec(20, seed, &board, nested1);
    out.insert(
        "core.search.nested1_evals_per_s",
        n1.expansions as f64 / n1.secs,
    );
    out.insert(
        "core.search.nested1_overhead_share",
        1.0 - n1.playout_moves as f64 * morpion.ns_per_move / (n1.secs * 1e9),
    );
    let n2 = run_spec(4, seed, &small, |s| SearchSpec::nested(2).seed(s).build());
    out.insert(
        "core.search.nested2_evals_per_s",
        n2.expansions as f64 / n2.secs,
    );

    let nrpa = run_spec(20, seed, &board, |s| {
        SearchSpec::nrpa_with(1, NrpaConfig::with_iterations(100))
            .seed(s)
            .build()
    });
    out.insert(
        "core.nrpa.iterations_per_s",
        nrpa.playouts as f64 / nrpa.secs,
    );

    // Same spec, same seed, side by side: typed board against its
    // erasure, then metrics off against on. Each pair runs back to back
    // so a speed flip of the box hits both sides; the median pair
    // decides.
    let erased = DynGame::new(board.clone());
    let share = |pairs: Vec<(f64, f64)>| {
        let shares: Vec<f64> = pairs.iter().map(|(base, with)| 1.0 - base / with).collect();
        median(&shares).expect("pairs were run")
    };
    let pairs = (0..15).map(|i| {
        (
            run_spec(1, seed + i, &board, nested1).secs,
            run_spec(1, seed + i, &erased, nested1).secs,
        )
    });
    out.insert("core.erased.dyn_overhead_share", share(pairs.collect()));
    let pairs = (0..15).map(|i| {
        set_metrics_enabled(false);
        let off = run_spec(1, seed + i, &board, nested1).secs;
        set_metrics_enabled(true);
        (off, run_spec(1, seed + i, &board, nested1).secs)
    });
    out.insert(
        "core.metrics.enabled_overhead_share",
        share(pairs.collect()),
    );
}

fn core_exec(seed: u64, out: &mut Metrics) {
    let pool = ExecutorPool::shared();
    let before = (
        pool.metrics().batches.get(),
        pool.metrics().parks.get(),
        pool.metrics().steals.get(),
    );
    for (name, slots) in [
        ("core.exec.run_batch_ns_per_slot_1", 1usize),
        ("core.exec.run_batch_ns_per_slot_8", 8),
        ("core.exec.run_batch_ns_per_slot_64", 64),
    ] {
        let ns = ns_per_unit(|| {
            pool.run_batch(slots, &|slot| {
                black_box(slot);
            })
        });
        out.insert(name, ns / slots as f64);
    }
    let batches = (pool.metrics().batches.get() - before.0).max(1) as f64;
    out.insert(
        "core.exec.parks_per_batch",
        (pool.metrics().parks.get() - before.1) as f64 / batches,
    );
    out.insert(
        "core.exec.steals_per_batch",
        (pool.metrics().steals.get() - before.2) as f64 / batches,
    );

    let small = cross_board(Variant::Disjoint, 3);
    let rate = |t: &Totals| t.playouts as f64 / t.secs;
    let w1 = rate(&run_spec(4, seed, &small, |s| {
        SearchSpec::root_parallel(2, 1).seed(s).build()
    }));
    let w2 = rate(&run_spec(6, seed, &small, |s| {
        SearchSpec::root_parallel(2, 2).seed(s).build()
    }));
    let seq = rate(&run_spec(4, seed, &small, |s| {
        SearchSpec::nested(2).seed(s).build()
    }));
    out.insert("core.exec.root_w1_playouts_per_s", w1);
    out.insert("core.exec.root_w2_playouts_per_s", w2);
    out.insert("core.exec.root_w2_efficiency", w2 / (2.0 * w1));
    out.insert("core.exec.root_w1_overhead_share", 1.0 - w1 / seq);
    let leaf = run_spec(20, seed, &small, |s| {
        SearchSpec::leaf(1, 8, 2).seed(s).build()
    });
    out.insert("core.exec.leaf_w2_playouts_per_s", rate(&leaf));
}

fn core_uct(seed: u64, samegame6: PlayoutCost, out: &mut Metrics) {
    const ITERATIONS: usize = 20_000;
    const RUNS: u64 = 4;
    let config = || UctConfig {
        iterations: ITERATIONS,
        ..UctConfig::default()
    };
    let board = SameGame::random(6, 6, 3, seed);
    let iter_per_s = |t: &Totals| (RUNS as usize * ITERATIONS) as f64 / t.secs;

    let arena = run_spec(RUNS, seed, &board, |s| {
        SearchSpec::uct_with(config()).seed(s).build()
    });
    out.insert("core.uct.arena_iter_per_s", iter_per_s(&arena));
    out.insert(
        "core.uct.expansions_per_search",
        arena.expansions as f64 / RUNS as f64,
    );
    out.insert(
        "core.uct.tree_share",
        1.0 - arena.playout_moves as f64 * samegame6.ns_per_move / (arena.secs * 1e9),
    );
    let tp = |lock: LockStrategy, stats: StatsMode| {
        run_spec(RUNS, seed, &board, |s| {
            SearchSpec::tree_parallel_with(config(), 1)
                .lock_strategy(lock)
                .stats_mode(stats)
                .seed(s)
                .build()
        })
    };
    out.insert(
        "core.uct.tptree_w1_iter_per_s",
        iter_per_s(&tp(LockStrategy::Sharded, StatsMode::WuUct)),
    );
    out.insert(
        "core.uct.tptree_w1_global_iter_per_s",
        iter_per_s(&tp(LockStrategy::Global, StatsMode::WuUct)),
    );
    out.insert(
        "core.uct.tptree_w1_vloss_iter_per_s",
        iter_per_s(&tp(LockStrategy::Sharded, StatsMode::VirtualLoss)),
    );
    let reuse = run_spec(RUNS, seed, &board, |s| {
        SearchSpec::uct_with(config())
            .tree_reuse(true)
            .seed(s)
            .build()
    });
    out.insert("core.uct.reuse_on_iter_per_s", iter_per_s(&reuse));
}

fn core_session(seed: u64, out: &mut Metrics) {
    let board = SameGame::random(10, 10, 4, seed);
    let spec = |reuse: bool| {
        SearchSpec::uct_with(UctConfig {
            iterations: 2_000,
            ..UctConfig::default()
        })
        .tree_reuse(reuse)
        .seed(seed)
        .build()
    };
    let step_ns = |reuse: bool| {
        let mut s = SearchSession::new(board.clone(), spec(reuse), None);
        let mut ns = Vec::new();
        let mut bytes = 0usize;
        while !s.is_done() {
            let t = Instant::now();
            black_box(s.step(None));
            ns.push(t.elapsed().as_nanos() as u64);
            bytes = bytes.max(s.approx_bytes());
        }
        let (hits, evictions) = s.table_counters();
        (
            median_ns(&ns) / 1e6,
            ns.len() as f64,
            hits,
            evictions,
            bytes,
        )
    };
    let (warm_ms, steps, hits, evictions, bytes) = step_ns(true);
    out.insert("core.session.step_warm_ms", warm_ms);
    out.insert("core.session.tt_hits_per_step", hits as f64 / steps);
    out.insert(
        "core.session.tt_evictions_per_step",
        evictions as f64 / steps,
    );
    out.insert("core.session.approx_bytes", bytes as f64);
    out.insert("core.session.step_cold_ms", step_ns(false).0);
}

// ---------------------------------------------------------------------
// The ladder: the same jobs run directly, through the engine, and
// through the socket, by one closed-loop client
// ---------------------------------------------------------------------

fn engine_config() -> EngineConfig {
    serve_config().engine
}

/// Per way (direct, engine, socket untraced, socket traced), the
/// latency of every job timed that way.
#[derive(Default)]
struct Rungs {
    latency_ns: [Vec<u64>; 4],
    socket_failures: u64,
    mismatches: u64,
}

/// Runs job `i` every way back to back, so a speed flip of the box
/// lands on every way alike and the differences between ways stay
/// clean.
fn ladder_job(
    i: u64,
    base: u64,
    engine: &Engine,
    client: &mut Client,
    tracer: &mut Tracer,
    rungs: &mut Rungs,
) -> Result<(), String> {
    let spec = serve_spec(base, i);
    let game_name = serve_game(i);
    let stock = || wire::stock_game(game_name, spec.seed).expect("stock game");

    // Direct: build the stock game and run the spec — the work a job
    // costs the server once it reaches a worker.
    let span = tracer.open("ladder.direct", NO_PARENT, i);
    let t = Instant::now();
    let game = tracer.span("games.build", span.id(), i, stock);
    let report = tracer.span("core.spec.run", span.id(), i, || spec.run(&game));
    rungs.latency_ns[0].push(t.elapsed().as_nanos() as u64);
    tracer.close(span);
    let want = WireResult {
        score: report.score,
        sequence: report.sequence,
        playouts: report.stats.playouts,
    };

    // Engine: the same job through submit → join.
    let span = tracer.open("ladder.engine", NO_PARENT, i);
    let t = Instant::now();
    let job = tracer.span("games.build", span.id(), i, || JobSpec {
        name: "ladder".to_string(),
        game: stock(),
        algorithm: spec.algorithm.clone(),
        seed: spec.seed,
        budget: spec.budget.clone(),
        replicas: 1,
        diversify_policies: false,
    });
    let handle = tracer.span("engine.submit", span.id(), i, || engine.submit(job));
    let handle = handle.map_err(|e| e.to_string())?;
    let output = tracer.span("engine.join", span.id(), i, || handle.join());
    rungs.latency_ns[1].push(t.elapsed().as_nanos() as u64);
    tracer.close(span);
    let best = output.best.ok_or("job finished without a result")?.result;
    rungs.mismatches += u64::from(
        (best.score, &best.sequence, best.stats.playouts)
            != (want.score, &want.sequence, want.playouts),
    );

    // Socket: POST then wait, twice back to back. The first wakes the
    // server's threads after the pause the other ways left and is only
    // checked; the second is timed, as an op of `serve-jobs` that
    // follows another. Traced and untraced take turns being second.
    let body = submit_body("ladder", game_name, &spec);
    let mut off = Tracer::disabled();
    let traced_second = i.is_multiple_of(2);
    for (timed, traced) in [(false, !traced_second), (true, traced_second)] {
        let tracer = if traced { &mut *tracer } else { &mut off };
        let span = tracer.open(
            if timed { "ladder.serve" } else { "ladder.wake" },
            NO_PARENT,
            i,
        );
        let result = round_trip(client, &body, tracer, span, i);
        tracer.close(span);
        match result {
            Ok((latency, got)) => {
                if timed {
                    rungs.latency_ns[if traced { 3 } else { 2 }].push(latency.as_nanos() as u64);
                }
                rungs.mismatches += u64::from(got != want);
            }
            Err(why) => {
                eprintln!("ladder job {i} (socket): {why}");
                rungs.socket_failures += 1;
            }
        }
    }
    Ok(())
}

fn ladder(seed: u64, tracer: &mut Tracer, out: &mut Metrics) {
    let base = mix64(seed ^ 0x001a_dde2);
    // On one CPU, as `serve-jobs` runs, whose op the ladder takes apart.
    let pin = OneCpu::pin();
    let engine = Engine::start(engine_config()).expect("engine starts");
    let server = Server::start(serve_config()).expect("bind 127.0.0.1:0");
    let mut client = Client::connect(server.addr()).expect("connect to own server");
    let first_span = tracer.len();
    let mut rungs = Rungs::default();
    for i in 0..LADDER_OPS {
        if let Err(why) = ladder_job(i, base, &engine, &mut client, tracer, &mut rungs) {
            eprintln!("ladder job {i}: {why}");
            rungs.mismatches += 1;
        }
    }
    let queue_wait = engine.queue_wait_snapshot();
    engine.shutdown();

    // The routes that never reach a worker.
    let mut timed_get = |target: &str, n: usize| {
        let ns: Vec<u64> = (0..n)
            .map(|_| {
                let t = Instant::now();
                let reply = client.get(target).expect("GET on own server");
                assert!(reply.is_success(), "{target}: {}", reply.status);
                t.elapsed().as_nanos() as u64
            })
            .collect();
        median_ns(&ns) / 1e3
    };
    out.insert("serve.healthz_us", timed_get("/healthz", 1000));
    out.insert("serve.metrics_text_us", timed_get("/metrics", 50));
    drop(client);
    server.shutdown();
    drop(pin);

    let us = |way: usize| median_ns(&rungs.latency_ns[way]) / 1e3;
    let (direct_us, engine_us, plain_us, serve_us) = (us(0), us(1), us(2), us(3));
    let engine_self = engine_us - direct_us;
    let serve_self = serve_us - engine_us;
    out.insert("ladder.direct_us", direct_us);
    out.insert("engine.submit_join_us", engine_us);
    out.insert("engine.self_us", engine_self);
    out.insert("engine.queue_wait_p50_us", queue_wait.p50_ns as f64 / 1e3);
    out.insert("serve.roundtrip_us", serve_us);
    out.insert("serve.self_us", serve_self);
    out.insert("ladder.untraced_roundtrip_us", plain_us);
    out.insert(
        "ladder.reconstruction_error_share",
        ((direct_us + engine_self + serve_self) - plain_us).abs() / plain_us,
    );
    out.insert(
        "serve.shed_share",
        rungs.socket_failures as f64 / (2 * LADDER_OPS) as f64,
    );
    out.insert(
        "ladder.mismatches",
        (rungs.mismatches + rungs.socket_failures) as f64,
    );

    let spans = &tracer.spans()[first_span..];
    let timed: BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == "ladder.serve")
        .map(|s| s.id)
        .collect();
    let by_name = |name: &str| {
        let ns: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == name && timed.contains(&s.parent))
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        median_ns(&ns) / 1e3
    };
    out.insert("serve.post_us", by_name("serve.post"));
    out.insert("serve.wait_us", by_name("serve.wait"));
}

// ---------------------------------------------------------------------
// engine, serde_json
// ---------------------------------------------------------------------

fn engine_layer(seed: u64, out: &mut Metrics) {
    let algorithm = nmcs_core::AlgorithmSpec::nested(1);

    // Throughput of one worker draining a pre-filled queue.
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 256,
    })
    .expect("engine starts");
    let secs = median_secs(5, || {
        let t = Instant::now();
        let handles: Vec<_> = (0..200u64)
            .map(|i| {
                let game = SumGame::random(6, 4, seed + i);
                engine
                    .submit(JobSpec::new("probe", game, algorithm.clone(), seed + i))
                    .expect("queue has room")
            })
            .collect();
        for h in handles {
            black_box(h.join());
        }
        t.elapsed()
    });
    out.insert("engine.jobs_per_s_w1", 200.0 / secs);
    engine.shutdown();

    let engine = Engine::start(engine_config()).expect("engine starts");
    // A session step through the engine against the same step taken
    // directly on the same erased game.
    let board = || DynGame::new(SameGame::random(6, 6, 3, seed));
    let spec = SearchSpec::uct_with(UctConfig {
        iterations: 300,
        ..UctConfig::default()
    })
    .tree_reuse(true)
    .seed(seed)
    .build();
    // Both sessions are deterministic, so step k does the same work on
    // each side; the median of the per-step differences is the engine's
    // own cost.
    let mut direct = SearchSession::new(board(), spec.clone(), None);
    let id = engine
        .open_session_dyn("probe", board(), spec, None)
        .expect("session opens");
    let mut extra_ns = Vec::new();
    let mut direct_first = true;
    while !direct.is_done() {
        let mut timed = |through_engine: bool| {
            let t = Instant::now();
            if through_engine {
                black_box(engine.submit_session(id).expect("step admitted").join());
            } else {
                black_box(direct.step(None));
            }
            t.elapsed().as_nanos() as f64
        };
        // Whichever side goes second finds warmer caches; take turns.
        let (a, b) = (timed(!direct_first), timed(direct_first));
        extra_ns.push(if direct_first { b - a } else { a - b });
        direct_first = !direct_first;
    }
    engine.close_session(id);
    out.insert(
        "engine.session_step_self_us",
        median(&extra_ns).expect("a session has steps") / 1e3,
    );

    // Four replicas of one job on two workers, against one replica.
    let wall = |replicas: usize| {
        median_secs(5, || {
            let job = JobSpec::new("probe", standard_5d(), algorithm.clone(), seed)
                .with_replicas(replicas);
            let t = Instant::now();
            black_box(engine.submit(job).expect("queue has room").join());
            t.elapsed()
        })
    };
    out.insert("engine.replicas4_wall_ratio", wall(4) / wall(1));
    engine.shutdown();
}

fn serde_layer(seed: u64, out: &mut Metrics) {
    let spec = serve_spec(seed, 0);
    let json = serde_json::to_string(&spec).expect("a spec serialises");
    out.insert(
        "serde_json.spec_decode_ns",
        ns_per_unit(|| {
            black_box(serde_json::from_str::<SearchSpec>(black_box(&json)).expect("round trip"));
        }),
    );
    out.insert(
        "serde_json.spec_encode_ns",
        ns_per_unit(|| {
            black_box(serde_json::to_string(black_box(&spec)).expect("a spec serialises"));
        }),
    );
    let game = wire::stock_game("samegame-small", seed).expect("stock game");
    let report = spec.run(&game);
    out.insert(
        "serde_json.report_encode_ns",
        ns_per_unit(|| {
            black_box(serde_json::to_string(black_box(&report)).expect("a report serialises"));
        }),
    );
}

// ---------------------------------------------------------------------
// parallel, cluster, des — the paper's own table (reference only)
// ---------------------------------------------------------------------

struct Ping(u64);
impl Tagged for Ping {
    fn tag(&self) -> &'static str {
        "Ping"
    }
}

fn paper_layers(seed: u64, out: &mut Metrics) {
    // Virtual-time speedups on a synthetic level-3-like first-move
    // trace: exact per seed, independent of this machine.
    let trace = TraceModel::level3_like().synthesize(RunMode::FirstMove, seed);
    let mut jobs = 0u64;
    let started = Instant::now();
    for (policy, names) in [
        (
            DispatchPolicy::RoundRobin,
            [
                "parallel.sim.rr_speedup_8",
                "parallel.sim.rr_speedup_16",
                "parallel.sim.rr_speedup_32",
                "parallel.sim.rr_speedup_64",
            ],
        ),
        (
            DispatchPolicy::LastMinute,
            [
                "parallel.sim.lm_speedup_8",
                "parallel.sim.lm_speedup_16",
                "parallel.sim.lm_speedup_32",
                "parallel.sim.lm_speedup_64",
            ],
        ),
    ] {
        for (clients, name) in [8usize, 16, 32, 64].into_iter().zip(names) {
            let cluster = ClusterSpec::homogeneous(clients);
            let outcome = simulate_trace(&trace, &cluster, policy);
            jobs += outcome.stats.jobs;
            out.insert(
                name,
                outcome.speedup(single_client_reference(&trace, &cluster)),
            );
        }
    }
    out.insert(
        "parallel.sim.jobs_per_s",
        jobs as f64 / started.elapsed().as_secs_f64(),
    );

    // The message-passing runtime itself, two clients.
    let game = SumGame::random(6, 4, seed);
    let mut msgs_per_job = 0.0;
    for (policy, name) in [
        (DispatchPolicy::LastMinute, "parallel.runner.lm_wall_ms"),
        (DispatchPolicy::RoundRobin, "parallel.runner.rr_wall_ms"),
    ] {
        let mut config = ThreadConfig::new(2, policy, 2);
        config.seed = seed;
        let ms = median_secs(3, || {
            let (outcome, report, trace) = run_threads_traced(&game, &config);
            msgs_per_job = trace.len() as f64 / outcome.client_jobs.max(1) as f64;
            report.wall
        }) * 1e3;
        out.insert(name, ms);
    }
    out.insert("parallel.runner.msgs_per_job", msgs_per_job);

    let mut world = World::<Ping>::new(2);
    let a = world.take_endpoint(0);
    let mut b = world.take_endpoint(1);
    out.insert(
        "cluster.send_recv_ns",
        ns_per_unit(|| {
            a.send(1, Ping(7));
            black_box(b.recv().msg.0);
        }),
    );

    const EVENTS: u64 = 4096;
    let mut rng = Rng::seeded(seed);
    let times: Vec<u64> = (0..EVENTS).map(|_| rng.below(1 << 20) as u64).collect();
    let ns = ns_per_unit(|| {
        let mut queue = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            queue.push(t, i);
        }
        while let Some(event) = queue.pop() {
            black_box(event);
        }
    });
    out.insert("des.events_per_s", EVENTS as f64 * 1e9 / ns);
}

/// Runs every probe; each layer is one span, so the trace file shows
/// where the traced pass itself spent its time.
pub fn run_all(seed: u64, tracer: &mut Tracer) -> Metrics {
    let mut out = Metrics::new();
    let seed = mix64(seed ^ 0x001a_7e25);
    let (morpion, samegame6) =
        tracer.span("probe.domains", NO_PARENT, 0, || domains(seed, &mut out));
    tracer.span("probe.core.search", NO_PARENT, 0, || {
        core_search(seed, morpion, &mut out)
    });
    tracer.span("probe.core.exec", NO_PARENT, 0, || {
        core_exec(seed, &mut out)
    });
    tracer.span("probe.core.uct", NO_PARENT, 0, || {
        core_uct(seed, samegame6, &mut out)
    });
    tracer.span("probe.core.session", NO_PARENT, 0, || {
        core_session(seed, &mut out)
    });
    tracer.span("probe.engine", NO_PARENT, 0, || {
        engine_layer(seed, &mut out)
    });
    tracer.span("probe.serde_json", NO_PARENT, 0, || {
        serde_layer(seed, &mut out)
    });
    tracer.span("probe.paper", NO_PARENT, 0, || paper_layers(seed, &mut out));
    let span = tracer.open("probe.ladder", NO_PARENT, 0);
    ladder(seed, tracer, &mut out);
    tracer.close(span);
    out
}

/// Share of the workload's op time spent in the benchmark's own code
/// (an op span's self time): what the harness adds to each op.
pub fn harness_self_share(spans: &[Span]) -> f64 {
    match self_times(spans).get("op") {
        Some(t) if t.total_ns > 0 => t.self_ns as f64 / t.total_ns as f64,
        _ => 0.0,
    }
}
