//! In-core parallel executors behind the [`crate::spec::SearchSpec`]
//! front door.
//!
//! Two strategies from the paper's §IV–V are execution shapes rather than
//! different searches, so the unified API runs them directly on the
//! persistent [`pool::ExecutorPool`]:
//!
//! * **Leaf-parallel** — the top-level game is played greedily and every
//!   candidate move is evaluated by a batch of independent seeded
//!   `level − 1` evaluations fanned out over the pool (one work item per
//!   `(move, slot)` pair).
//! * **Root-parallel** — the paper's root/median/client hierarchy: one
//!   median game per root candidate move runs on the pool, each median
//!   evaluating its own moves with `level − 2` client searches.
//!
//! Both used to spawn fresh `std::thread::scope` workers at every step
//! of the top-level game; they now share the process-wide
//! [`pool::ExecutorPool`], which keeps its workers warm across steps,
//! runs, and even concurrent engine replicas. The original
//! spawn-per-step implementations are frozen in [`baseline`] so the
//! bit-identity contract ("the pool changes *when* work runs, never
//! *what* it computes") stays mechanically checkable, and so the bench
//! can report an honest pool-vs-spawn speedup.
//!
//! Determinism contract: every evaluation's seed derives from its logical
//! coordinates through [`crate::seeds`], so results are bit-identical
//! across worker counts, bit-identical to the frozen spawn-per-step
//! baselines and to `parallel_nmcs::trace::run_reference` (and
//! therefore to the message-passing `run_threads_traced`) for the same
//! seed — the cross-crate agreement tests assert all of these. Work
//! accounting matches those backends: only evaluation work is counted,
//! so `stats.work_units` equals their `total_work` and each evaluation
//! counts one `client_job`.
//!
//! Budgets and cancellation flow through forked [`SearchCtx`]s sharing
//! one atomic meter, so a deadline or playout cap stops leaf and root
//! workers exactly like it stops a serial search.

pub mod pool;

use crate::ctx::SearchCtx;
use crate::game::{Game, Score};
use crate::rng::Rng;
use crate::search::{nested_with, NestedConfig, PlayoutScratch};
use crate::seeds::{client_seed, median_seed, slot_seed};
use parking_lot::Mutex;
use pool::ExecutorPool;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Outcome of a parallel executor: score, root sequence, and the number
/// of client/leaf evaluation jobs executed (work units live in the ctx).
pub(crate) struct ParallelRun<M> {
    pub score: Score,
    pub sequence: Vec<M>,
    pub client_jobs: u64,
}

/// What one fan-out slot returns: its forked context and its per-item
/// results.
struct WorkerOut {
    ctx: SearchCtx,
    results: Vec<(usize, Score)>,
}

/// Fans `items` work indices out over up to `threads` batch slots on the
/// shared executor pool and merges every slot's context back into `ctx`
/// (stats add commutatively, so the merge order cannot affect results).
///
/// `states` holds one reusable per-slot scratch value (allocated once
/// per *run* by the caller, so nothing is reallocated per step or per
/// item); slot `s` gets exclusive access to `states[s]` for the whole
/// batch.
fn fan_out<S, F>(
    exec: &ExecutorPool,
    items: usize,
    threads: usize,
    ctx: &mut SearchCtx,
    states: &[Mutex<S>],
    eval: F,
) -> Vec<Option<Score>>
where
    S: Send,
    F: Fn(usize, &mut SearchCtx, &mut S) -> Score + Sync,
{
    let slots = threads.min(items).max(1);
    debug_assert!(states.len() >= slots);
    let next = AtomicUsize::new(0);
    let outs: Mutex<Vec<WorkerOut>> = Mutex::new(Vec::with_capacity(slots));
    let parent: &SearchCtx = ctx;
    exec.run_batch(slots, &|slot| {
        let mut wctx = parent.fork();
        let mut state = states[slot].lock();
        let mut results = Vec::new();
        loop {
            // Stop claiming items once interrupted; items left
            // unevaluated surface as `None` in the reduce.
            if wctx.should_stop() {
                break;
            }
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= items {
                break;
            }
            let score = eval(idx, &mut wctx, &mut state);
            results.push((idx, score));
        }
        outs.lock().push(WorkerOut { ctx: wctx, results });
    });

    let outs = outs.into_inner();
    let mut scores: Vec<Option<Score>> = vec![None; items];
    for out in outs {
        ctx.absorb(out.ctx);
        for (idx, score) in out.results {
            scores[idx] = Some(score);
        }
    }
    scores
}

/// Reusable per-slot scratch of the leaf executor: the playout engine
/// and its sequence buffer live here for the whole run instead of being
/// allocated per evaluated item (the ROADMAP open item this fixes).
struct LeafSlot<G: Game> {
    scratch: PlayoutScratch<G>,
    seq: Vec<G::Move>,
}

impl<G: Game> Default for LeafSlot<G> {
    fn default() -> Self {
        LeafSlot {
            scratch: PlayoutScratch::new(),
            seq: Vec::new(),
        }
    }
}

/// Leaf-parallel batched NMCS (the strategy behind
/// `AlgorithmSpec::LeafParallel`); see the module docs.
///
/// The parameter list mirrors the spec variant's fields one-to-one —
/// bundling them into a struct here would just duplicate the variant.
#[allow(clippy::too_many_arguments)]
pub(crate) fn leaf_parallel<G>(
    game: &G,
    level: u32,
    batch: usize,
    threads: usize,
    playout_cap: Option<usize>,
    first_move: bool,
    seed: u64,
    ctx: &mut SearchCtx,
) -> ParallelRun<G::Move>
where
    G: Game + Send + Sync,
    G::Move: Send + Sync,
{
    assert!(level >= 1, "leaf-parallel search needs level >= 1");
    assert!(batch >= 1, "leaf-parallel search needs batch >= 1");
    assert!(threads >= 1);
    let eval_level = level - 1;
    let config = NestedConfig {
        playout_cap,
        ..NestedConfig::paper()
    };
    let exec = ExecutorPool::shared();
    // One scratch per slot for the whole run: reused across every step
    // and every item a slot claims.
    let states: Vec<Mutex<LeafSlot<G>>> = (0..threads)
        .map(|_| Mutex::new(LeafSlot::default()))
        .collect();

    let mut pos = game.clone();
    let mut sequence = Vec::new();
    let mut client_jobs = 0u64;
    let mut first_step_best: Option<Score> = None;
    let mut moves: Vec<G::Move> = Vec::new();
    let mut step = 0usize;

    loop {
        pos.legal_moves_into(&mut moves);
        if moves.is_empty() {
            break;
        }
        if ctx.should_stop() {
            break;
        }

        let items = moves.len() * batch;
        let pos_ref = &pos;
        let moves_ref = &moves;
        let config_ref = &config;
        let scores = fan_out(
            exec,
            items,
            threads,
            ctx,
            &states,
            move |idx, wctx, slot| {
                let (i, slot_idx) = (idx / batch, idx % batch);
                let mut child = pos_ref.clone();
                child.play(&moves_ref[i]);
                let mut rng = Rng::seeded(slot_seed(seed, step, i, slot_idx));
                if eval_level == 0 {
                    slot.seq.clear();
                    slot.scratch
                        .run(&mut child, &mut rng, playout_cap, &mut slot.seq, wctx)
                } else {
                    nested_with(&child, eval_level, config_ref, &mut rng, wctx).0
                }
            },
        );
        client_jobs += scores.iter().flatten().count() as u64;

        // Deterministic reduce: batch-max per move, argmax over moves
        // with ties to the lower index. Moves whose batch was cut off by
        // an interruption before any slot finished are not eligible.
        let mut best: Option<(Score, usize)> = None;
        for i in 0..moves.len() {
            let move_best = scores[i * batch..(i + 1) * batch]
                .iter()
                .flatten()
                .copied()
                .max();
            if let Some(s) = move_best {
                if best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, i));
                }
            }
        }
        let Some((best_score, best_idx)) = best else {
            break; // interrupted before any leaf of this step finished
        };
        if step == 0 {
            first_step_best = Some(best_score);
        }
        sequence.push(moves[best_idx].clone());
        pos.play(&moves[best_idx]);
        step += 1;
        if first_move {
            break;
        }
    }

    let score = if first_move {
        first_step_best.unwrap_or_else(|| pos.score())
    } else {
        pos.score()
    };
    ParallelRun {
        score,
        sequence,
        client_jobs,
    }
}

/// Root-parallel NMCS (the strategy behind
/// `AlgorithmSpec::RootParallel`): the paper's root/median/client
/// hierarchy with one pool task per median game. Results are
/// bit-identical to the sequential reference (and hence to the
/// message-passing `run_threads` backend) for the same seed.
pub(crate) fn root_parallel<G>(
    game: &G,
    level: u32,
    threads: usize,
    playout_cap: Option<usize>,
    first_move: bool,
    seed: u64,
    ctx: &mut SearchCtx,
) -> ParallelRun<G::Move>
where
    G: Game + Send + Sync,
    G::Move: Send + Sync,
{
    assert!(level >= 2, "root-parallel NMCS needs level >= 2");
    assert!(threads >= 1);
    let config = NestedConfig {
        playout_cap,
        ..NestedConfig::paper()
    };
    let client_level = level - 2;
    let exec = ExecutorPool::shared();
    let states: Vec<Mutex<()>> = (0..threads).map(|_| Mutex::new(())).collect();

    let mut pos = game.clone();
    let mut sequence = Vec::new();
    let mut client_jobs = 0u64;
    let mut first_step_best: Option<Score> = None;
    let mut moves: Vec<G::Move> = Vec::new();
    let mut root_step = 0usize;
    let jobs_counter = AtomicUsize::new(0);

    loop {
        moves.clear();
        pos.legal_moves(&mut moves);
        if moves.is_empty() {
            break;
        }
        if ctx.should_stop() {
            break;
        }

        let pos_ref = &pos;
        let moves_ref = &moves;
        let config_ref = &config;
        let jobs_ref = &jobs_counter;
        let scores = fan_out(
            exec,
            moves.len(),
            threads,
            ctx,
            &states,
            move |i, wctx, _slot| {
                let mut median_pos = pos_ref.clone();
                median_pos.play(&moves_ref[i]);
                let mseed = median_seed(seed, root_step, i);
                let mut jobs = 0u64;
                let score = median_game(
                    &mut median_pos,
                    client_level,
                    mseed,
                    config_ref,
                    wctx,
                    &mut jobs,
                );
                jobs_ref.fetch_add(jobs as usize, Ordering::Relaxed);
                score
            },
        );
        client_jobs = jobs_counter.load(Ordering::Relaxed) as u64;

        // "Receive score from node; play the move with best score" —
        // ties break toward the lower move index, exactly as the
        // reference and threaded backends do.
        let mut best: Option<(Score, usize)> = None;
        for (i, s) in scores.iter().enumerate() {
            if let Some(s) = *s {
                if best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, i));
                }
            }
        }
        let Some((best_score, best_idx)) = best else {
            break; // interrupted before any median of this step finished
        };
        if root_step == 0 {
            first_step_best = Some(best_score);
        }
        sequence.push(moves[best_idx].clone());
        pos.play(&moves[best_idx]);
        root_step += 1;
        if first_move {
            break;
        }
    }

    let score = if first_move {
        first_step_best.unwrap_or_else(|| pos.score())
    } else {
        pos.score()
    };
    ParallelRun {
        score,
        sequence,
        client_jobs,
    }
}

/// Plays one median game (greedy per-step argmax over client-job scores,
/// per the paper's median pseudocode) on the worker's context.
fn median_game<G: Game>(
    pos: &mut G,
    client_level: u32,
    mseed: u64,
    config: &NestedConfig,
    ctx: &mut SearchCtx,
    jobs: &mut u64,
) -> Score {
    let mut moves: Vec<G::Move> = Vec::new();
    let mut mstep = 0usize;
    loop {
        moves.clear();
        pos.legal_moves(&mut moves);
        if moves.is_empty() {
            break;
        }
        let mut best: Option<(Score, usize)> = None;
        for (j, mv) in moves.iter().enumerate() {
            if ctx.should_stop() {
                break;
            }
            let mut child = pos.clone();
            child.play(mv);
            let mut rng = Rng::seeded(client_seed(mseed, mstep, j));
            let (score, _) = nested_with(&child, client_level, config, &mut rng, ctx);
            *jobs += 1;
            if best.is_none_or(|(bs, _)| score > bs) {
                best = Some((score, j));
            }
        }
        let Some((_, best_idx)) = best else {
            break; // interrupted before any client of this step finished
        };
        pos.play(&moves[best_idx]);
        mstep += 1;
        if ctx.interruption().is_some() {
            break;
        }
    }
    pos.score()
}

/// The PR-3 spawn-per-step executors, frozen verbatim.
///
/// These are **reference implementations**, kept for two purposes only:
/// the cross-backend tests prove the pool-backed executors above are
/// per-seed bit-identical to them, and `tables --leaf` reports the
/// pool-vs-spawn throughput speedup against them. They are not part of
/// the public API surface and may disappear once the pool has a few
/// releases of soak time. Do not "fix" or optimise them — their value
/// is being exactly what shipped before the pool.
#[doc(hidden)]
pub mod baseline {
    use super::*;

    /// Outcome of a frozen spawn-per-step run (unbudgeted).
    pub struct SpawnRun<M> {
        pub score: Score,
        pub sequence: Vec<M>,
        pub client_jobs: u64,
        pub stats: crate::stats::SearchStats,
    }

    /// The PR-3 scoped-thread fan-out: spawns `threads` workers per
    /// call (i.e. per top-level step).
    fn fan_out_scoped<F>(
        items: usize,
        threads: usize,
        ctx: &mut SearchCtx,
        eval: F,
    ) -> Vec<Option<Score>>
    where
        F: Fn(usize, &mut SearchCtx) -> Score + Sync,
    {
        let workers = threads.min(items).max(1);
        let next = AtomicUsize::new(0);
        let outs: Vec<WorkerOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let mut wctx = ctx.fork();
                    let next = &next;
                    let eval = &eval;
                    scope.spawn(move || {
                        let mut results = Vec::new();
                        loop {
                            if wctx.should_stop() {
                                break;
                            }
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= items {
                                break;
                            }
                            let score = eval(idx, &mut wctx);
                            results.push((idx, score));
                        }
                        WorkerOut { ctx: wctx, results }
                    })
                })
                .collect();
            handles
                .into_iter()
                // nmcs-lint: allow(panic-discipline) reason="join fails only if a worker panicked; re-raising the panic on the caller is the contract"
                .map(|h| h.join().expect("parallel executor worker panicked"))
                .collect()
        });

        let mut scores: Vec<Option<Score>> = vec![None; items];
        for out in outs {
            ctx.absorb(out.ctx);
            for (idx, score) in out.results {
                scores[idx] = Some(score);
            }
        }
        scores
    }

    /// Frozen spawn-per-step leaf-parallel NMCS (per-item playout
    /// scratch and all), for A/B tests and the bench baseline.
    pub fn leaf_parallel_spawn<G>(
        game: &G,
        level: u32,
        batch: usize,
        threads: usize,
        playout_cap: Option<usize>,
        first_move: bool,
        seed: u64,
    ) -> SpawnRun<G::Move>
    where
        G: Game + Send + Sync,
        G::Move: Send + Sync,
    {
        assert!(level >= 1 && batch >= 1 && threads >= 1);
        let eval_level = level - 1;
        let config = NestedConfig {
            playout_cap,
            ..NestedConfig::paper()
        };
        let mut ctx = SearchCtx::unbounded();

        let mut pos = game.clone();
        let mut sequence = Vec::new();
        let mut client_jobs = 0u64;
        let mut first_step_best: Option<Score> = None;
        let mut moves: Vec<G::Move> = Vec::new();
        let mut step = 0usize;

        loop {
            pos.legal_moves_into(&mut moves);
            if moves.is_empty() {
                break;
            }

            let items = moves.len() * batch;
            let pos_ref = &pos;
            let moves_ref = &moves;
            let config_ref = &config;
            let scores = fan_out_scoped(items, threads, &mut ctx, move |idx, wctx| {
                let (i, slot) = (idx / batch, idx % batch);
                let mut child = pos_ref.clone();
                child.play(&moves_ref[i]);
                let mut rng = Rng::seeded(slot_seed(seed, step, i, slot));
                if eval_level == 0 {
                    let mut scratch = PlayoutScratch::new();
                    let mut seq = Vec::new();
                    scratch.run(&mut child, &mut rng, playout_cap, &mut seq, wctx)
                } else {
                    nested_with(&child, eval_level, config_ref, &mut rng, wctx).0
                }
            });
            client_jobs += scores.iter().flatten().count() as u64;

            let mut best: Option<(Score, usize)> = None;
            for i in 0..moves.len() {
                let move_best = scores[i * batch..(i + 1) * batch]
                    .iter()
                    .flatten()
                    .copied()
                    .max();
                if let Some(s) = move_best {
                    if best.is_none_or(|(bs, _)| s > bs) {
                        best = Some((s, i));
                    }
                }
            }
            let Some((best_score, best_idx)) = best else {
                break;
            };
            if step == 0 {
                first_step_best = Some(best_score);
            }
            sequence.push(moves[best_idx].clone());
            pos.play(&moves[best_idx]);
            step += 1;
            if first_move {
                break;
            }
        }

        let score = if first_move {
            first_step_best.unwrap_or_else(|| pos.score())
        } else {
            pos.score()
        };
        SpawnRun {
            score,
            sequence,
            client_jobs,
            stats: ctx.into_stats(),
        }
    }

    /// Frozen spawn-per-step root-parallel NMCS, for A/B tests and the
    /// bench baseline.
    pub fn root_parallel_spawn<G>(
        game: &G,
        level: u32,
        threads: usize,
        playout_cap: Option<usize>,
        first_move: bool,
        seed: u64,
    ) -> SpawnRun<G::Move>
    where
        G: Game + Send + Sync,
        G::Move: Send + Sync,
    {
        assert!(level >= 2 && threads >= 1);
        let config = NestedConfig {
            playout_cap,
            ..NestedConfig::paper()
        };
        let client_level = level - 2;
        let mut ctx = SearchCtx::unbounded();

        let mut pos = game.clone();
        let mut sequence = Vec::new();
        let mut client_jobs = 0u64;
        let mut first_step_best: Option<Score> = None;
        let mut moves: Vec<G::Move> = Vec::new();
        let mut root_step = 0usize;
        let jobs_counter = AtomicUsize::new(0);

        loop {
            moves.clear();
            pos.legal_moves(&mut moves);
            if moves.is_empty() {
                break;
            }

            let pos_ref = &pos;
            let moves_ref = &moves;
            let config_ref = &config;
            let jobs_ref = &jobs_counter;
            let scores = fan_out_scoped(moves.len(), threads, &mut ctx, move |i, wctx| {
                let mut median_pos = pos_ref.clone();
                median_pos.play(&moves_ref[i]);
                let mseed = median_seed(seed, root_step, i);
                let mut jobs = 0u64;
                let score = median_game(
                    &mut median_pos,
                    client_level,
                    mseed,
                    config_ref,
                    wctx,
                    &mut jobs,
                );
                jobs_ref.fetch_add(jobs as usize, Ordering::Relaxed);
                score
            });
            client_jobs = jobs_counter.load(Ordering::Relaxed) as u64;

            let mut best: Option<(Score, usize)> = None;
            for (i, s) in scores.iter().enumerate() {
                if let Some(s) = *s {
                    if best.is_none_or(|(bs, _)| s > bs) {
                        best = Some((s, i));
                    }
                }
            }
            let Some((best_score, best_idx)) = best else {
                break;
            };
            if root_step == 0 {
                first_step_best = Some(best_score);
            }
            sequence.push(moves[best_idx].clone());
            pos.play(&moves[best_idx]);
            root_step += 1;
            if first_move {
                break;
            }
        }

        let score = if first_move {
            first_step_best.unwrap_or_else(|| pos.score())
        } else {
            pos.score()
        };
        SpawnRun {
            score,
            sequence,
            client_jobs,
            stats: ctx.into_stats(),
        }
    }
}
