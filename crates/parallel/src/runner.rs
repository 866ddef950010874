//! The threaded backend: real root/median/dispatcher/client processes
//! exchanging messages over the `cluster-rt` runtime (paper §IV with
//! Open MPI replaced by in-process message passing).
//!
//! Every role below is a direct transcription of the paper's pseudocode;
//! the comments quote the corresponding lines. Scores are derived from
//! per-job seeds, so the outcome is bit-identical to
//! [`crate::trace::run_reference`] regardless of thread scheduling — the
//! agreement test in this module asserts exactly that.

use crate::dispatcher::{DispatchPolicy, DispatcherCore};
use crate::protocol::{client_rank, median_rank, world_size, Msg, DISPATCHER, ROOT};
use crate::trace::{ParallelOutcome, RunMode};
use cluster_rt::{Endpoint, Rank, Trace, World};
use nmcs_core::metrics::monotonic_now;
use nmcs_core::seeds::{client_seed, median_seed};
use nmcs_core::{nested_with, Game, NestedConfig, Rng, Score, SearchCtx};
use std::time::Duration;

/// Configuration of a threaded parallel search.
#[derive(Debug, Clone)]
pub struct ThreadConfig {
    /// Root search level (≥ 2; clients run `level − 2`).
    pub level: u32,
    pub policy: DispatchPolicy,
    /// Number of client processes.
    pub n_clients: usize,
    /// Number of median processes. The paper provisions more medians than
    /// the maximum branching factor; if a position has more moves than
    /// medians, requests are multiplexed round-robin over medians (they
    /// queue in mailboxes), which preserves correctness.
    pub n_medians: usize,
    pub seed: u64,
    pub mode: RunMode,
    /// Optional per-client slowdown factors (`1.0` = full speed); used to
    /// emulate a heterogeneous cluster on homogeneous local cores by
    /// sleeping `(1/speed − 1) ×` compute time after each job.
    pub client_speeds: Option<Vec<f64>>,
}

impl ThreadConfig {
    /// A sensible default: level 2, Last-Minute, `n` clients, enough
    /// medians for small games.
    pub fn new(level: u32, policy: DispatchPolicy, n_clients: usize) -> Self {
        Self {
            level,
            policy,
            n_clients,
            n_medians: 40, // the paper runs 40 median processes
            seed: 0,
            mode: RunMode::FullGame,
            client_speeds: None,
        }
    }
}

/// Timing and throughput measurements of a threaded run.
#[derive(Debug, Clone)]
pub struct ThreadReport {
    pub wall: Duration,
    /// Total work units executed by clients.
    pub total_work: u64,
    pub client_jobs: u64,
}

/// Runs the parallel search on real threads and records the full message
/// trace. Returns the outcome (scores, moves), a wall-clock report, and
/// the trace (which the tests check against the paper's Figure 2–5
/// communication patterns).
///
/// This is the paper-faithful message-passing reproduction (root, median,
/// dispatcher, and client processes over the `cluster-rt` runtime). The
/// unified `SearchSpec::root_parallel(level, threads)` runs the same
/// strategy with identical results plus budget/cancellation support; use
/// this function when the point is the communication structure itself.
#[expect(
    clippy::disallowed_methods,
    reason = "the dispatcher, client and median ranks are cluster processes of the paper's threaded reference runtime, not pool work"
)]
pub fn run_threads_traced<G>(
    game: &G,
    config: &ThreadConfig,
) -> (
    ParallelOutcome<G::Move>,
    ThreadReport,
    Vec<cluster_rt::TraceEntry>,
)
where
    G: Game + Send + 'static,
    G::Move: Send + 'static,
{
    assert!(config.level >= 2, "parallel NMCS needs level >= 2");
    assert!(config.n_clients > 0 && config.n_medians > 0);
    if let Some(speeds) = &config.client_speeds {
        assert_eq!(speeds.len(), config.n_clients, "one speed per client");
    }

    let n = world_size(config.n_medians, config.n_clients);
    let (mut world, trace): (World<Msg<G, G::Move>>, Trace) = World::new_traced(n);

    let start = monotonic_now();
    let mut handles = Vec::new();

    // ---- dispatcher ----
    let mut disp_ep = world.take_endpoint(DISPATCHER);
    let client_ranks: Vec<Rank> = (0..config.n_clients)
        .map(|i| client_rank(config.n_medians, i))
        .collect();
    let mut core = DispatcherCore::new(config.policy, client_ranks);
    handles.push(std::thread::spawn(move || {
        loop {
            let env = disp_ep.recv();
            match env.msg {
                // "Receive median node from any median node; send client
                // to median node."
                Msg::WhichClient { moves_played } => {
                    if let Some(client) = core.on_request(env.from, moves_played) {
                        disp_ep.send(env.from, Msg::UseClient { client });
                    }
                }
                // Last-Minute (c'): a freed client either serves the
                // longest pending job or parks on the free list.
                Msg::ClientFree => {
                    if let Some((median, client)) = core.on_client_free(env.from) {
                        disp_ep.send(median, Msg::UseClient { client });
                    }
                }
                Msg::Shutdown => break,
                other => unreachable!("dispatcher got {}", cluster_rt::Tagged::tag(&other)),
            }
        }
    }));

    // ---- clients ----
    let notify_free = config.policy.uses_free_list();
    for i in 0..config.n_clients {
        let mut ep = world.take_endpoint(client_rank(config.n_medians, i));
        let speed = config.client_speeds.as_ref().map_or(1.0, |s| s[i]);
        handles.push(std::thread::spawn(move || {
            loop {
                let env = ep.recv();
                match env.msg {
                    // "Receive position from median node; score =
                    // nestedRollout(position, level)."
                    Msg::EvalRequest {
                        position,
                        level,
                        seed,
                        job,
                    } => {
                        let t0 = monotonic_now();
                        let mut ctx = SearchCtx::unbounded();
                        let (score, sequence) = nested_with(
                            &position,
                            level,
                            &NestedConfig::paper(),
                            &mut Rng::seeded(seed),
                            &mut ctx,
                        );
                        if speed < 1.0 {
                            // Emulate a slower core: stretch the service
                            // time by 1/speed.
                            let extra = t0.elapsed().mul_f64(1.0 / speed - 1.0);
                            std::thread::sleep(extra);
                        }
                        // "If LastMinute: send self node to dispatcher."
                        if notify_free {
                            ep.send(DISPATCHER, Msg::ClientFree);
                        }
                        // "Send score to median node."
                        ep.send(
                            env.from,
                            Msg::EvalResult {
                                job,
                                score,
                                sequence,
                                work: ctx.stats().work_units,
                                jobs: 1,
                            },
                        );
                    }
                    Msg::Shutdown => break,
                    other => unreachable!("client got {}", cluster_rt::Tagged::tag(&other)),
                }
            }
        }));
    }

    // ---- medians ----
    for m in 0..config.n_medians {
        let mut ep = world.take_endpoint(median_rank(m));
        handles.push(std::thread::spawn(move || median_loop::<G>(&mut ep)));
    }

    // ---- root (this thread) ----
    let mut root_ep = world.take_endpoint(ROOT);
    let outcome = root_loop(game, config, &mut root_ep);

    // Orderly shutdown: everyone is idle once the root has its results.
    for r in 1..n {
        root_ep.send(r, Msg::Shutdown);
    }
    for h in handles {
        h.join().expect("worker thread panicked");
    }
    let wall = start.elapsed();

    let report = ThreadReport {
        wall,
        total_work: outcome.total_work,
        client_jobs: outcome.client_jobs,
    };
    let log = trace.lock().clone();
    (outcome, report, log)
}

/// The root process (paper §IV-A root pseudocode): at each game step,
/// send one position per candidate move to a median, collect all scores,
/// play the best move.
fn root_loop<G>(
    game: &G,
    config: &ThreadConfig,
    ep: &mut Endpoint<Msg<G, G::Move>>,
) -> ParallelOutcome<G::Move>
where
    G: Game + Send,
    G::Move: Send,
{
    let mut pos = game.clone();
    let mut sequence = Vec::new();
    let mut total_work = 0u64;
    let mut client_jobs = 0u64;
    let mut first_step_best: Option<Score> = None;
    let mut moves: Vec<G::Move> = Vec::new();
    let mut root_step = 0usize;

    loop {
        moves.clear();
        pos.legal_moves(&mut moves);
        if moves.is_empty() {
            break;
        }
        // "Node = first median node; for m in all possible moves: p =
        // play(position, m); send p to node; node = next median node."
        for (i, mv) in moves.iter().enumerate() {
            let mut child = pos.clone();
            child.play(mv);
            ep.send(
                median_rank(i % config.n_medians),
                Msg::EvalRequest {
                    position: child,
                    level: config.level - 1,
                    seed: median_seed(config.seed, root_step, i),
                    job: i,
                },
            );
        }
        // "For m in all possible moves: receive score from node."
        let mut best: Option<(Score, usize)> = None;
        for _ in 0..moves.len() {
            let env = ep.recv();
            let Msg::EvalResult {
                job,
                score,
                work,
                jobs,
                ..
            } = env.msg
            else {
                unreachable!("root expects results")
            };
            total_work += work;
            client_jobs += jobs;
            if best.is_none_or(|(bs, bj)| score > bs || (score == bs && job < bj)) {
                best = Some((score, job));
            }
        }
        let (best_score, best_idx) = best.expect("non-empty move list");
        if root_step == 0 {
            first_step_best = Some(best_score);
        }
        // "Position = play(position, move with best score)."
        sequence.push(moves[best_idx].clone());
        pos.play(&moves[best_idx]);
        root_step += 1;
        if config.mode == RunMode::FirstMove {
            break;
        }
    }

    let score = match config.mode {
        RunMode::FirstMove => first_step_best.unwrap_or_else(|| pos.score()),
        RunMode::FullGame => pos.score(),
    };
    ParallelOutcome {
        score,
        sequence,
        total_work,
        client_jobs,
    }
}

/// The median process (paper §IV-A median pseudocode).
fn median_loop<G>(ep: &mut Endpoint<Msg<G, G::Move>>)
where
    G: Game + Send,
    G::Move: Send,
{
    let mut moves: Vec<G::Move> = Vec::new();
    loop {
        let env = ep.recv();
        let (root_job, mut pos, mlevel, mseed) = match env.msg {
            Msg::EvalRequest {
                position,
                level,
                seed,
                job,
            } => (job, position, level, seed),
            Msg::Shutdown => return,
            other => unreachable!("median got {}", cluster_rt::Tagged::tag(&other)),
        };
        let client_level = mlevel - 1;
        let mut work_total = 0u64;
        let mut jobs_total = 0u64;
        let mut mstep = 0usize;
        loop {
            moves.clear();
            pos.legal_moves(&mut moves);
            if moves.is_empty() {
                break;
            }
            // "For m in all possible moves: send self id and number of
            // moves played in p to dispatcher; receive client from
            // dispatcher; send p to client."
            for (j, mv) in moves.iter().enumerate() {
                let mut child = pos.clone();
                child.play(mv);
                ep.send(
                    DISPATCHER,
                    Msg::WhichClient {
                        moves_played: child.moves_played(),
                    },
                );
                let reply = ep.recv_matching(|e| matches!(e.msg, Msg::UseClient { .. }));
                let Msg::UseClient { client } = reply.msg else {
                    unreachable!()
                };
                ep.send(
                    client,
                    Msg::EvalRequest {
                        position: child,
                        level: client_level,
                        seed: client_seed(mseed, mstep, j),
                        job: j,
                    },
                );
            }
            // "For m in all possible moves: receive score from client."
            let mut best: Option<(Score, usize)> = None;
            for _ in 0..moves.len() {
                let env = ep.recv_matching(|e| matches!(e.msg, Msg::EvalResult { .. }));
                let Msg::EvalResult {
                    job,
                    score,
                    work,
                    jobs,
                    ..
                } = env.msg
                else {
                    unreachable!()
                };
                work_total += work;
                jobs_total += jobs;
                if best.is_none_or(|(bs, bj)| score > bs || (score == bs && job < bj)) {
                    best = Some((score, job));
                }
            }
            // "Position = play(position, move with best score)."
            let (_, best_idx) = best.expect("non-empty move list");
            pos.play(&moves[best_idx]);
            mstep += 1;
        }
        // "Send score to root" — plus the aggregated instrumentation.
        ep.send(
            ROOT,
            Msg::EvalResult {
                job: root_job,
                score: pos.score(),
                sequence: Vec::new(),
                work: work_total,
                jobs: jobs_total,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::run_reference;
    use nmcs_core::SearchSpec;
    use nmcs_games::{NeedleLadder, SumGame};

    /// The threaded run without its message log.
    fn run_threads<G>(game: &G, config: &ThreadConfig) -> (ParallelOutcome<G::Move>, ThreadReport)
    where
        G: Game + Send + 'static,
        G::Move: Send + 'static,
    {
        let (outcome, report, _) = run_threads_traced(game, config);
        (outcome, report)
    }

    fn config(level: u32, policy: DispatchPolicy, clients: usize) -> ThreadConfig {
        ThreadConfig {
            n_medians: 4,
            seed: 77,
            ..ThreadConfig::new(level, policy, clients)
        }
    }

    #[test]
    fn threads_play_full_games_near_optimum() {
        let g = SumGame::random(5, 3, 11);
        for policy in [DispatchPolicy::RoundRobin, DispatchPolicy::LastMinute] {
            let (out, report) = run_threads(&g, &config(2, policy, 3));
            assert!(
                out.score as f64 >= 0.9 * g.optimum() as f64,
                "{policy}: {} vs optimum {}",
                out.score,
                g.optimum()
            );
            assert_eq!(out.sequence.len(), 5);
            assert!(report.total_work > 0);
        }
    }

    #[test]
    fn threads_agree_with_unified_spec_seed_for_seed() {
        // The message-passing runtime and the unified SearchSpec front
        // door produce identical outcomes per seed.
        let g = SumGame::random(5, 3, 21);
        for mode in [RunMode::FirstMove, RunMode::FullGame] {
            let mut cfg = config(2, DispatchPolicy::LastMinute, 3);
            cfg.mode = mode;
            let (t_out, report) = run_threads(&g, &cfg);
            let mut spec = SearchSpec::root_parallel(cfg.level, cfg.n_clients).seed(cfg.seed);
            if mode == RunMode::FirstMove {
                spec = spec.first_move_only();
            }
            let spec_report = spec.run(&g);
            assert_eq!(t_out.score, spec_report.score, "{mode:?}");
            assert_eq!(t_out.sequence, spec_report.sequence, "{mode:?}");
            assert_eq!(t_out.total_work, spec_report.stats.work_units, "{mode:?}");
            assert_eq!(t_out.client_jobs, spec_report.client_jobs, "{mode:?}");
            assert_eq!(report.total_work, spec_report.total_work(), "{mode:?}");
        }
    }

    #[test]
    fn threads_agree_with_reference_implementation() {
        let g = SumGame::random(5, 3, 21);
        for policy in [DispatchPolicy::RoundRobin, DispatchPolicy::LastMinute] {
            for mode in [RunMode::FirstMove, RunMode::FullGame] {
                let mut cfg = config(2, policy, 3);
                cfg.mode = mode;
                let (t_out, _) = run_threads(&g, &cfg);
                let (r_out, _) = run_reference(&g, 2, cfg.seed, mode);
                assert_eq!(t_out.score, r_out.score, "{policy} {mode:?}");
                assert_eq!(t_out.sequence, r_out.sequence, "{policy} {mode:?}");
                assert_eq!(t_out.total_work, r_out.total_work, "{policy} {mode:?}");
            }
        }
    }

    #[test]
    fn threads_climb_needle_ladder_at_level_2() {
        let g = NeedleLadder::new(8);
        let (out, _) = run_threads(&g, &config(2, DispatchPolicy::LastMinute, 2));
        assert_eq!(out.score, g.optimum());
    }

    #[test]
    fn more_moves_than_medians_multiplexes_correctly() {
        let g = SumGame::random(4, 6, 2); // 6 moves, only 2 medians
        let mut cfg = config(2, DispatchPolicy::RoundRobin, 2);
        cfg.n_medians = 2;
        let (out, _) = run_threads(&g, &cfg);
        let (r_out, _) = run_reference(&g, 2, cfg.seed, RunMode::FullGame);
        assert_eq!(out.score, r_out.score);
        assert_eq!(out.sequence, r_out.sequence);
    }

    #[test]
    fn first_move_mode_returns_single_move() {
        let g = SumGame::random(5, 3, 31);
        let mut cfg = config(2, DispatchPolicy::LastMinute, 3);
        cfg.mode = RunMode::FirstMove;
        let (out, _) = run_threads(&g, &cfg);
        assert_eq!(out.sequence.len(), 1);
    }

    #[test]
    fn level_3_works_end_to_end_on_tiny_game() {
        let g = SumGame::random(3, 2, 5);
        let (out, _) = run_threads(&g, &config(3, DispatchPolicy::LastMinute, 2));
        assert_eq!(out.score, g.optimum(), "level 3 is exhaustive here");
        let (r_out, _) = run_reference(&g, 3, 77, RunMode::FullGame);
        assert_eq!(out.score, r_out.score);
        assert_eq!(out.total_work, r_out.total_work);
    }

    #[test]
    fn slow_clients_do_not_change_results() {
        let g = SumGame::random(4, 3, 13);
        let mut cfg = config(2, DispatchPolicy::LastMinute, 3);
        cfg.client_speeds = Some(vec![1.0, 0.5, 1.0]);
        let (out, _) = run_threads(&g, &cfg);
        let (r_out, _) = run_reference(&g, 2, cfg.seed, RunMode::FullGame);
        assert_eq!(out.score, r_out.score);
        assert_eq!(out.sequence, r_out.sequence);
    }

    #[test]
    fn message_flow_matches_figures_2_to_5() {
        let g = SumGame::random(3, 2, 9);
        let mut cfg = config(2, DispatchPolicy::LastMinute, 2);
        cfg.mode = RunMode::FirstMove;
        let (_, _, log) = run_threads_traced(&g, &cfg);

        // (a) root → median eval requests exist.
        assert!(log.iter().any(|e| e.from == ROOT && e.tag == "EvalRequest"));
        // (b) median → dispatcher → median → client chains exist.
        assert!(log
            .iter()
            .any(|e| e.to == DISPATCHER && e.tag == "WhichClient"));
        assert!(log
            .iter()
            .any(|e| e.from == DISPATCHER && e.tag == "UseClient"));
        // (c) client → median results and (c') client → dispatcher frees.
        assert!(log.iter().any(|e| e.tag == "EvalResult"));
        assert!(log
            .iter()
            .any(|e| e.to == DISPATCHER && e.tag == "ClientFree"));
        // (d) median → root result.
        assert!(log.iter().any(|e| e.to == ROOT && e.tag == "EvalResult"));
        // Every WhichClient precedes its UseClient (per median): check
        // globally that counts match.
        let asks = log.iter().filter(|e| e.tag == "WhichClient").count();
        let grants = log.iter().filter(|e| e.tag == "UseClient").count();
        assert_eq!(asks, grants);
    }

    #[test]
    fn job_counts_agree_with_reference() {
        let g = SumGame::random(4, 3, 17);
        let cfg = config(2, DispatchPolicy::RoundRobin, 2);
        let (out, _) = run_threads(&g, &cfg);
        let (r_out, _) = run_reference(&g, 2, cfg.seed, RunMode::FullGame);
        assert_eq!(out.client_jobs, r_out.client_jobs);
    }
}
