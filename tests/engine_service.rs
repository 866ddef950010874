//! Integration tests of the `nmcs-engine` service layer: determinism
//! (engine results are bit-identical to direct library calls),
//! backpressure, prompt cancellation, ensemble merging, identical jobs
//! that each run the seed they were given, and game panics fenced on
//! the worker.

#![allow(
    clippy::disallowed_methods,
    reason = "the test times and races the engine from threads of its own"
)]

use pnmcs::engine::{Algorithm, Engine, EngineConfig, JobHandle, JobSpec, JobState, SubmitError};
use pnmcs::games::{SameGame, SumGame, TspGame, TspInstance};
use pnmcs::morpion::{cross_board, standard_5d, Variant};
use pnmcs::search::nrpa::CodedGame;
use pnmcs::search::seeds::median_seed;
use pnmcs::search::{
    decode_result, Budget, Interruption, NestedConfig, NrpaConfig, SearchResult, SearchSpec,
};
use std::time::{Duration, Instant};

/// The acceptance-criterion workload: ≥ 32 mixed-game jobs on 4 workers,
/// every result bit-identical (score, decoded sequence, stats) to the
/// equivalent direct single-threaded library call with the same seed.
#[test]
fn thirty_two_mixed_jobs_are_bit_identical_to_direct_calls() {
    let engine = Engine::start(EngineConfig {
        workers: 4,
        queue_capacity: 64,
    })
    .expect("valid engine config");

    // Typed games are kept on the side so each engine result can be
    // decoded and compared against the direct call on the same type.
    let mut morpion_jobs: Vec<(pnmcs::morpion::Board, u64, JobHandle)> = Vec::new();
    let mut samegame_jobs: Vec<(SameGame, u64, JobHandle)> = Vec::new();
    let mut tsp_jobs: Vec<(TspGame, u64, JobHandle)> = Vec::new();
    let mut sum_jobs: Vec<(SumGame, u64, JobHandle)> = Vec::new();

    for i in 0..36u64 {
        let seed = 10_000 + i;
        match i % 4 {
            0 => {
                let g = cross_board(Variant::Disjoint, 2);
                let h = engine
                    .submit(JobSpec::new(
                        format!("m-{i}"),
                        g.clone(),
                        Algorithm::nested(1),
                        seed,
                    ))
                    .unwrap();
                morpion_jobs.push((g, seed, h));
            }
            1 => {
                let g = SameGame::random(6, 6, 3, i);
                let h = engine
                    .submit(JobSpec::new(
                        format!("s-{i}"),
                        g.clone(),
                        Algorithm::nested(1),
                        seed,
                    ))
                    .unwrap();
                samegame_jobs.push((g, seed, h));
            }
            2 => {
                let g = TspGame::new(TspInstance::random(9, i), None);
                let h = engine
                    .submit(JobSpec::new(
                        format!("t-{i}"),
                        g.clone(),
                        Algorithm::nested(1),
                        seed,
                    ))
                    .unwrap();
                tsp_jobs.push((g, seed, h));
            }
            _ => {
                let g = SumGame::random(6, 4, i);
                let h = engine
                    .submit(JobSpec::new(
                        format!("u-{i}"),
                        g.clone(),
                        Algorithm::nested(2),
                        seed,
                    ))
                    .unwrap();
                sum_jobs.push((g, seed, h));
            }
        }
    }

    fn check<G>(game: &G, seed: u64, level: u32, handle: JobHandle)
    where
        G: CodedGame + Send + Sync,
        G::Move: Send + Sync,
    {
        let out = handle.join();
        assert_eq!(out.state, JobState::Completed);
        let replica = out.best.expect("completed job has a result");
        assert_eq!(replica.seed_used, seed, "single-replica job keeps its seed");
        let direct: SearchResult<G::Move> =
            SearchSpec::nested(level).seed(seed).run(game).into_result();
        let decoded = decode_result(game, &replica.result);
        assert_eq!(decoded, direct, "engine result must be bit-identical");
    }

    let total = morpion_jobs.len() + samegame_jobs.len() + tsp_jobs.len() + sum_jobs.len();
    assert!(
        total >= 32,
        "acceptance criterion needs at least 32 jobs, got {total}"
    );

    for (g, seed, h) in morpion_jobs {
        check(&g, seed, 1, h);
    }
    for (g, seed, h) in samegame_jobs {
        check(&g, seed, 1, h);
    }
    for (g, seed, h) in tsp_jobs {
        check(&g, seed, 1, h);
    }
    for (g, seed, h) in sum_jobs {
        check(&g, seed, 2, h);
    }

    let stats = engine.stats();
    assert_eq!(stats.completed_jobs, 36);
    assert_eq!(stats.cancelled_jobs, 0);
    engine.shutdown();
}

#[test]
fn nrpa_jobs_match_direct_nrpa_calls() {
    let engine = Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 16,
    })
    .expect("valid engine config");
    let mut jobs = Vec::new();
    for i in 0..4u64 {
        let g = SameGame::random(5, 5, 3, i);
        let cfg = NrpaConfig {
            iterations: 10,
            alpha: 1.0,
        };
        let h = engine
            .submit(JobSpec::new(
                format!("nrpa-{i}"),
                g.clone(),
                Algorithm::Nrpa {
                    level: 2,
                    config: cfg.clone(),
                },
                777 + i,
            ))
            .unwrap();
        jobs.push((g, cfg, 777 + i, h));
    }
    for (g, cfg, seed, h) in jobs {
        let out = h.join();
        let replica = out.best.expect("completed");
        let direct = SearchSpec::nrpa_with(2, cfg.clone())
            .seed(seed)
            .run(&g)
            .into_result();
        let decoded = decode_result(&g, &replica.result);
        assert_eq!(
            decoded, direct,
            "NRPA through the erasure must match (true move codes)"
        );
    }
    engine.shutdown();
}

#[test]
fn ensemble_replicas_use_parallel_seed_derivation_and_merge_best() {
    let engine = Engine::start(EngineConfig {
        workers: 4,
        queue_capacity: 16,
    })
    .expect("valid engine config");
    let g = SameGame::random(6, 6, 3, 5);
    let seed = 31_337;
    let h = engine
        .submit(JobSpec::new("ensemble", g.clone(), Algorithm::nested(1), seed).with_replicas(4))
        .unwrap();
    let out = h.join();
    assert_eq!(out.state, JobState::Completed);

    let mut best_direct: Option<i64> = None;
    for (r, replica) in out.replicas.iter().enumerate() {
        let replica = replica.as_ref().expect("all replicas finished");
        let expect_seed = median_seed(seed, 0, r);
        assert_eq!(
            replica.seed_used, expect_seed,
            "replica {r} seed derivation"
        );
        let direct = SearchSpec::nested(1)
            .seed(expect_seed)
            .run(&g)
            .into_result();
        assert_eq!(
            decode_result(&g, &replica.result),
            direct,
            "replica {r} must match its direct call"
        );
        best_direct = Some(best_direct.map_or(direct.score, |b| b.max(direct.score)));
    }
    assert_eq!(
        out.score(),
        best_direct,
        "merge must pick the max replica score"
    );
    engine.shutdown();
}

#[test]
fn cancellation_is_prompt_even_mid_search() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 4,
    })
    .expect("valid engine config");
    // A level-2 search on the full cross takes minutes uncancelled.
    let h = engine
        .submit(JobSpec::new(
            "heavy",
            standard_5d(),
            Algorithm::nested(2),
            1,
        ))
        .unwrap();
    // Deadline-poll rather than a fixed sleep: sibling tests saturate
    // the cores, so the lone worker may take a while to dequeue.
    let deadline = Instant::now() + Duration::from_secs(10);
    while h.poll_progress().state != JobState::Running {
        assert!(Instant::now() < deadline, "heavy job never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Let the search get properly underway before interrupting it.
    std::thread::sleep(Duration::from_millis(50));

    let cancelled_at = Instant::now();
    h.cancel();
    let out = h.join();
    let latency = cancelled_at.elapsed();
    assert_eq!(out.state, JobState::Cancelled);
    assert!(
        out.best.is_none(),
        "truncated search result must be discarded"
    );
    assert!(
        latency < Duration::from_secs(2),
        "cancellation took {latency:?}, expected milliseconds"
    );
    engine.shutdown();
}

#[test]
fn backpressure_bounds_queued_memory_and_try_submit_fails_fast() {
    let capacity = 3;
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: capacity,
    })
    .expect("valid engine config");

    // Occupy the only worker with a search we control.
    let blocker = engine
        .submit(JobSpec::new(
            "blocker",
            standard_5d(),
            Algorithm::nested(2),
            2,
        ))
        .unwrap();
    // Give the worker time to take the blocker off the queue.
    let deadline = Instant::now() + Duration::from_secs(5);
    while blocker.poll_progress().state == JobState::Queued {
        assert!(Instant::now() < deadline, "blocker never started");
        std::thread::sleep(Duration::from_millis(1));
    }

    // Fill the queue to capacity with cheap jobs…
    let mut queued = Vec::new();
    for i in 0..capacity {
        queued.push(
            engine
                .try_submit(JobSpec::new(
                    format!("q-{i}"),
                    SumGame::random(4, 3, i as u64),
                    Algorithm::nested(1),
                    50 + i as u64,
                ))
                .expect("queue has room"),
        );
    }
    // …then the next fast-path submission must be refused.
    let (err, returned_spec) = engine
        .try_submit(JobSpec::new(
            "overflow",
            SumGame::random(4, 3, 9),
            Algorithm::nested(1),
            99,
        ))
        .unwrap_err();
    assert_eq!(
        err,
        SubmitError::QueueFull {
            capacity,
            requested: 1
        }
    );
    assert_eq!(
        returned_spec.name, "overflow",
        "rejected spec is handed back"
    );
    assert!(engine.stats().rejected_submissions >= 1);

    // A multi-replica job that cannot fully fit is refused all-or-nothing.
    let (err, _) = engine
        .try_submit(
            JobSpec::new("wide", SumGame::random(4, 3, 10), Algorithm::nested(1), 100)
                .with_replicas(capacity + 1),
        )
        .unwrap_err();
    assert!(matches!(err, SubmitError::QueueFull { .. }));

    // Unblock the worker; everything queued must drain, and the queue
    // depth must never have exceeded its capacity (bounded memory).
    blocker.cancel();
    assert_eq!(blocker.join().state, JobState::Cancelled);
    for h in queued {
        assert_eq!(h.join().state, JobState::Completed);
    }
    let stats = engine.stats();
    assert!(
        stats.peak_queue_depth <= capacity,
        "peak queue depth {} exceeded capacity {capacity}",
        stats.peak_queue_depth
    );
    engine.shutdown();
}

#[test]
fn blocking_submit_applies_backpressure_then_succeeds() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 1,
    })
    .expect("valid engine config");
    let blocker = engine
        .submit(JobSpec::new(
            "blocker",
            standard_5d(),
            Algorithm::nested(2),
            3,
        ))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while blocker.poll_progress().state == JobState::Queued {
        assert!(Instant::now() < deadline, "blocker never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Fill the single queue slot.
    let queued = engine
        .submit(JobSpec::new(
            "q",
            SumGame::random(4, 3, 1),
            Algorithm::nested(1),
            4,
        ))
        .unwrap();

    // A blocking submit from another thread must stall until the blocker
    // is cancelled, then complete. Assert the *ordering* (submit cannot
    // return before the cancel that frees the queue slot) rather than
    // wall-clock timing, which is flaky under parallel test load.
    let engine_ref = &engine;
    let cancel_issued = std::sync::atomic::AtomicBool::new(false);
    let (saw_cancel_first, handle_result) = std::thread::scope(|scope| {
        let cancel_issued = &cancel_issued;
        let submitter = scope.spawn(move || {
            let h = engine_ref.submit(JobSpec::new(
                "late",
                SumGame::random(4, 3, 2),
                Algorithm::nested(1),
                5,
            ));
            (cancel_issued.load(std::sync::atomic::Ordering::SeqCst), h)
        });
        std::thread::sleep(Duration::from_millis(60));
        cancel_issued.store(true, std::sync::atomic::Ordering::SeqCst);
        blocker.cancel();
        submitter.join().expect("submitter thread")
    });
    assert!(
        saw_cancel_first,
        "blocking submit returned before the cancel freed a queue slot"
    );
    let late = handle_result.expect("late submission admitted after space freed");
    assert_eq!(queued.join().state, JobState::Completed);
    assert_eq!(late.join().state, JobState::Completed);
    engine.shutdown();
}

#[test]
fn identical_jobs_in_flight_both_run_the_seed_they_were_given() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 8,
    })
    .expect("valid engine config");
    // Hold the worker so both copies are queued at the same time.
    let blocker = engine
        .submit(JobSpec::new(
            "blocker",
            standard_5d(),
            Algorithm::nested(2),
            6,
        ))
        .unwrap();

    let g = SumGame::random(5, 3, 8);
    let spec = JobSpec::new("dup", g.clone(), Algorithm::nested(1), 12345);
    let first = engine.submit(spec.clone()).unwrap();
    let second = engine.submit(spec).unwrap();

    blocker.cancel();
    let _ = blocker.join();
    let direct = SearchSpec::nested(1).seed(12345).run(&g).into_result();
    for h in [first, second] {
        let r = h.join().best.expect("completed job has a result");
        assert_eq!(r.seed_used, 12345, "a job runs the seed it was given");
        assert_eq!(decode_result(&g, &r.result), direct);
    }
    engine.shutdown();
}

/// Panics on the second move of any line: the first move it sees on
/// any position is fine, the one after it is not.
#[derive(Clone, Debug)]
struct PanicsOnSecondMove {
    played: usize,
}

impl pnmcs::search::Game for PanicsOnSecondMove {
    type Move = u8;
    fn legal_moves(&self, out: &mut Vec<u8>) {
        if self.played < 8 {
            out.extend_from_slice(&[0, 1]);
        }
    }
    fn play(&mut self, _mv: &u8) {
        assert!(self.played < 1, "injected fault on the second move");
        self.played += 1;
    }
    fn score(&self) -> i64 {
        self.played as i64
    }
    fn moves_played(&self) -> usize {
        self.played
    }
}

impl CodedGame for PanicsOnSecondMove {
    fn move_code(&self, mv: &u8) -> u64 {
        u64::from(*mv)
    }
}

#[test]
fn a_game_that_panics_early_fails_its_job_on_the_worker() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 4,
    })
    .expect("valid engine config");
    // Submitting runs no game code, so the panic cannot reach the
    // caller's thread: it happens inside the worker's fence.
    let handle = engine
        .submit(JobSpec::new(
            "early-panic",
            PanicsOnSecondMove { played: 0 },
            Algorithm::nested(1),
            3,
        ))
        .expect("submit returns a handle");
    assert_eq!(handle.join().state, JobState::Failed);
    let letters = engine
        .inspector()
        .engine
        .expect("engine section")
        .dead_letters;
    assert_eq!(letters.len(), 1, "{letters:?}");
    assert_eq!(
        (letters[0].name.as_str(), letters[0].reason.as_str()),
        ("early-panic", "panicked")
    );
    assert_eq!(engine.stats().failed_jobs, 1);
    engine.shutdown();
}

#[test]
fn policy_diversified_ensembles_match_their_recorded_policies() {
    let engine = Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 8,
    })
    .expect("valid engine config");
    let g = SameGame::random(5, 5, 3, 2);
    let seed = 2_024;
    let h = engine
        .submit(
            JobSpec::new("pdiv", g.clone(), Algorithm::nested(1), seed)
                .with_replicas(2)
                .with_policy_diversification(),
        )
        .unwrap();
    let out = h.join();
    for replica in out.replicas.iter().flatten() {
        let config = NestedConfig {
            memory: replica.memory_policy.expect("NMCS job records its policy"),
        };
        let direct = SearchSpec::nested_with(1, config)
            .seed(replica.seed_used)
            .run(&g)
            .into_result();
        assert_eq!(
            decode_result(&g, &replica.result),
            direct,
            "replica {} with {:?}",
            replica.replica,
            replica.memory_policy
        );
    }
    engine.shutdown();
}

#[test]
fn erased_games_expose_true_move_codes_to_the_engine() {
    // Sanity that the erasure used by the engine preserves move codes —
    // the property the NRPA bit-identity test relies on.
    let g = SameGame::random(4, 4, 3, 1);
    let erased = pnmcs::search::DynGame::new(g.clone());
    let mut typed_moves = Vec::new();
    g.legal_moves(&mut typed_moves);
    for (i, mv) in typed_moves.iter().enumerate() {
        assert_eq!(erased.move_code(&i), g.move_code(mv));
    }
}

#[test]
fn spec_jobs_are_bit_identical_to_direct_spec_runs() {
    // The acceptance shape: engine jobs accept a full SearchSpec and
    // stay bit-identical to `spec.run(&game)` with the same seed.
    let engine = Engine::start(EngineConfig {
        workers: 2,
        queue_capacity: 8,
    })
    .expect("valid engine config");
    let g = SameGame::random(6, 6, 3, 9);
    let specs = [
        SearchSpec::nested(1).seed(501).build(),
        SearchSpec::uct().seed(502).build(),
        SearchSpec::flat_mc(64).seed(503).build(),
    ];
    let handles: Vec<_> = specs
        .iter()
        .map(|spec| {
            engine
                .submit(JobSpec::from_spec(
                    format!("spec-{}", spec.algorithm.label()),
                    g.clone(),
                    spec.clone(),
                ))
                .unwrap()
        })
        .collect();
    for (spec, h) in specs.iter().zip(handles) {
        let out = h.join();
        assert_eq!(out.state, JobState::Completed, "{}", spec.algorithm.label());
        let replica = out.best.expect("completed job has a result");
        assert_eq!(replica.seed_used, spec.seed);
        let direct = spec.run(&g);
        assert_eq!(
            decode_result(&g, &replica.result),
            direct.result(),
            "{} through the engine must equal the direct spec run",
            spec.algorithm.label()
        );
        assert!(replica.interrupted.is_none());
    }
    engine.shutdown();
}

#[test]
fn budgeted_jobs_stop_early_and_keep_best_so_far() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 4,
    })
    .expect("valid engine config");
    // A level-3 search on the standard cross would take hours; a playout
    // budget turns it into a bounded job that still reports a result.
    let spec = SearchSpec::nested(3).seed(77).max_playouts(2_000).build();
    let h = engine
        .submit(JobSpec::from_spec("budgeted", standard_5d(), spec))
        .unwrap();
    let out = h.join();
    assert_eq!(out.state, JobState::Completed);
    let replica = out.best.expect("budget interruption keeps the result");
    assert_eq!(replica.interrupted, Some(Interruption::PlayoutBudget));
    assert_eq!(
        replica.seed_used, 77,
        "budgeted single-replica job keeps its seed"
    );
    // The best-so-far sequence replays to the reported score.
    let decoded = decode_result(&standard_5d(), &replica.result);
    let mut replay = standard_5d();
    for mv in &decoded.sequence {
        replay.play(mv);
    }
    assert_eq!(replay.score(), decoded.score);
    let _ = Budget::none();
    engine.shutdown();
}

use pnmcs::search::Game;
