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
//! The paper's root and median processes are the same loop — send each
//! legal move's position out, receive the scores, play the best — so it
//! is written once here, as `greedy_game`; the leaf executor, the root
//! executor and the median game differ only in how one step's candidates
//! get their scores.
//!
//! Determinism contract: every evaluation's seed derives from its logical
//! coordinates through [`crate::seeds`], so results are bit-identical
//! across worker counts and, for the same seed, to
//! `parallel_nmcs::trace::run_reference` (and therefore to the
//! message-passing `run_threads_traced`) — the cross-crate agreement
//! tests and the golden vectors assert it. Work accounting matches those
//! backends: only evaluation work is counted, so `stats.work_units`
//! equals their `total_work` and each evaluation counts one `client_job`.
//!
//! Budgets and cancellation flow through forked [`SearchCtx`]s sharing
//! one atomic meter, so a deadline or playout cap stops leaf and root
//! workers exactly like it stops a serial search.

// A panic in the executors takes a pool worker or a joiner down.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod pool;

use crate::ctx::SearchCtx;
use crate::game::{Game, Score};
use crate::rng::Rng;
use crate::search::{Evaluator, NestedConfig};
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

/// One step's candidate scores, by move index — `None`, or missing off
/// the end, where an interruption got there first — and the client jobs
/// that produced them.
type StepScores = (Vec<Option<Score>>, u64);

/// The greedy game of the paper's root and median pseudocode: at every
/// step `score_step(step, position, moves, ctx)` scores the legal moves
/// and the best one is played, ties going to the lower move index as in
/// the reference and threaded backends. Stops at a terminal position, on
/// an interruption, or — in `first_move` mode, the paper's Tables I–II —
/// after one step, whose best evaluation is then the score.
fn greedy_game<G, F>(
    mut pos: G,
    first_move: bool,
    ctx: &mut SearchCtx,
    mut score_step: F,
) -> ParallelRun<G::Move>
where
    G: Game,
    F: FnMut(usize, &G, &[G::Move], &mut SearchCtx) -> StepScores,
{
    let mut sequence = Vec::new();
    let mut client_jobs = 0u64;
    let mut first_step_best: Option<Score> = None;
    let mut moves: Vec<G::Move> = Vec::new();
    let mut step = 0usize;

    loop {
        pos.legal_moves_into(&mut moves);
        if moves.is_empty() || ctx.should_stop() {
            break;
        }
        let (scores, jobs) = score_step(step, &pos, &moves, ctx);
        client_jobs += jobs;

        let mut best: Option<(Score, usize)> = None;
        for (i, s) in scores.iter().enumerate() {
            if let Some(s) = *s {
                if best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, i));
                }
            }
        }
        let Some((best_score, best_idx)) = best else {
            break; // interrupted before any candidate of this step finished
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

    let score = match first_step_best {
        Some(best) if first_move => best,
        _ => pos.score(),
    };
    ParallelRun {
        score,
        sequence,
        client_jobs,
    }
}

/// The width and root seed one parallel run fans out with.
pub(crate) struct Fan {
    threads: usize,
    seed: u64,
}

impl Fan {
    pub(crate) fn new(threads: usize, seed: u64) -> Self {
        assert!(threads >= 1, "a parallel search needs threads >= 1");
        Fan { threads, seed }
    }

    /// Fans `items` work indices out over up to `threads` batch slots on
    /// the shared executor pool and merges every slot's context back into
    /// `ctx` (stats add commutatively, so the merge order cannot affect
    /// results). `eval(item, slot, ctx)` returns the item's score and the
    /// client jobs it ran; no two concurrent calls share a `slot`.
    fn out<F>(&self, items: usize, ctx: &mut SearchCtx, eval: F) -> StepScores
    where
        F: Fn(usize, usize, &mut SearchCtx) -> (Score, u64) + Sync,
    {
        /// What one slot hands back: its forked context, its per-item
        /// scores and its job count.
        type SlotOut = (SearchCtx, Vec<(usize, Score)>, u64);

        let slots = self.threads.min(items).max(1);
        let next = AtomicUsize::new(0);
        let outs: Mutex<Vec<SlotOut>> = Mutex::new(Vec::with_capacity(slots));
        let parent: &SearchCtx = ctx;
        ExecutorPool::shared().run_batch(slots, &|slot| {
            let mut wctx = parent.fork();
            let mut results = Vec::new();
            let mut jobs = 0u64;
            // Stop claiming items once interrupted; items left
            // unevaluated surface as `None` in the reduce.
            while !wctx.should_stop() {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= items {
                    break;
                }
                let (score, item_jobs) = eval(idx, slot, &mut wctx);
                results.push((idx, score));
                jobs += item_jobs;
            }
            outs.lock().push((wctx, results, jobs));
        });

        let mut scores: Vec<Option<Score>> = vec![None; items];
        let mut jobs = 0u64;
        for (wctx, results, slot_jobs) in outs.into_inner() {
            ctx.absorb(wctx);
            jobs += slot_jobs;
            for (idx, score) in results {
                scores[idx] = Some(score);
            }
        }
        (scores, jobs)
    }
}

/// Leaf-parallel batched NMCS (the strategy behind
/// `AlgorithmSpec::LeafParallel`); see the module docs.
pub(crate) fn leaf_parallel<G>(
    game: &G,
    level: u32,
    batch: usize,
    first_move: bool,
    fan: &Fan,
    ctx: &mut SearchCtx,
) -> ParallelRun<G::Move>
where
    G: Game + Send + Sync,
    G::Move: Send + Sync,
{
    assert!(level >= 1, "leaf-parallel search needs level >= 1");
    assert!(batch >= 1, "leaf-parallel search needs batch >= 1");
    let eval_level = level - 1;
    // One evaluator per slot for the whole run: reused across every step
    // and every item a slot claims.
    let evals: Vec<Mutex<Evaluator<G>>> = (0..fan.threads)
        .map(|_| Mutex::new(Evaluator::new(game)))
        .collect();

    greedy_game(game.clone(), first_move, ctx, |step, pos, moves, ctx| {
        let (scores, jobs) = fan.out(moves.len() * batch, ctx, |idx, slot, wctx| {
            let (i, slot_idx) = (idx / batch, idx % batch);
            let mut rng = Rng::seeded(slot_seed(fan.seed, step, i, slot_idx));
            let mut eval = evals[slot].lock();
            let score = eval.eval(
                pos,
                &moves[i],
                eval_level,
                &NestedConfig::paper(),
                &mut rng,
                wctx,
            );
            (score, 1)
        });
        // A move scores the best of its batch; a move whose whole batch
        // was cut off by an interruption is not eligible.
        let per_move = scores
            .chunks(batch)
            .map(|batch_scores| batch_scores.iter().flatten().copied().max())
            .collect();
        (per_move, jobs)
    })
}

/// Root-parallel NMCS (the strategy behind
/// `AlgorithmSpec::RootParallel`): the paper's root/median/client
/// hierarchy with one pool task per median game. Results are
/// bit-identical to the sequential reference (and hence to the
/// message-passing `run_threads_traced` backend) for the same seed.
pub(crate) fn root_parallel<G>(
    game: &G,
    level: u32,
    first_move: bool,
    fan: &Fan,
    ctx: &mut SearchCtx,
) -> ParallelRun<G::Move>
where
    G: Game + Send + Sync,
    G::Move: Send + Sync,
{
    assert!(level >= 2, "root-parallel NMCS needs level >= 2");
    let client_level = level - 2;

    greedy_game(game.clone(), first_move, ctx, |step, pos, moves, ctx| {
        fan.out(moves.len(), ctx, |i, _slot, wctx| {
            let mut median_pos = pos.clone();
            median_pos.play(&moves[i]);
            let mseed = median_seed(fan.seed, step, i);
            median_game(median_pos, client_level, mseed, wctx)
        })
    })
}

/// Plays one median game on the worker's context — the same loop, its
/// candidates scored one after the other by seeded client searches on one
/// evaluator kept for the whole game — and returns its final score and
/// its client-job count.
fn median_game<G: Game>(
    pos: G,
    client_level: u32,
    mseed: u64,
    ctx: &mut SearchCtx,
) -> (Score, u64) {
    let mut eval = Evaluator::new(&pos);
    let game = greedy_game(pos, false, ctx, |mstep, pos, moves, ctx| {
        let mut scores = Vec::with_capacity(moves.len());
        for (j, mv) in moves.iter().enumerate() {
            if ctx.should_stop() {
                break;
            }
            let mut rng = Rng::seeded(client_seed(mseed, mstep, j));
            let score = eval.eval(pos, mv, client_level, &NestedConfig::paper(), &mut rng, ctx);
            scores.push(Some(score));
        }
        let jobs = scores.len() as u64;
        (scores, jobs)
    });
    (game.score, game.client_jobs)
}
