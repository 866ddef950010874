//! Micro-benchmarks of the sequential substrate: Morpion move generation
//! and playouts, NMCS levels, and baseline comparisons. These quantify
//! the cost model feeding Table I and the calibration.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use morpion::{cross_board, standard_5d, Variant};
use nmcs_core::baselines::flat_monte_carlo_with;
use nmcs_core::search::sample_into;
use nmcs_core::{
    nested_with, nrpa_with, sample, Game, NestedConfig, NrpaConfig, PlayoutScratch, Rng, Score,
    SearchCtx, SearchResult, SearchStats, SnapshotOnly,
};
use nmcs_games::{SameGame, Tap};
use std::hint::black_box;

fn bench_playout(c: &mut Criterion) {
    let board = standard_5d();
    let mut rng = Rng::seeded(1);
    c.bench_function("morpion_5d_playout", |b| {
        b.iter(|| black_box(sample(&board, &mut rng).score))
    });

    let board_t = morpion::standard_5t();
    let mut rng_t = Rng::seeded(1);
    c.bench_function("morpion_5t_playout", |b| {
        b.iter(|| black_box(sample(&board_t, &mut rng_t).score))
    });

    let sg = SameGame::random(15, 15, 5, 3);
    let mut rng_s = Rng::seeded(2);
    c.bench_function("samegame_playout", |b| {
        b.iter(|| black_box(sample(&sg, &mut rng_s).score))
    });
}

fn bench_movegen(c: &mut Criterion) {
    let board = standard_5d();
    c.bench_function("morpion_clone", |b| b.iter(|| black_box(board.clone())));

    c.bench_function("morpion_recompute_candidates", |b| {
        b.iter(|| black_box(board.recompute_candidates().len()))
    });

    // Incremental update: play one (fixed) move on a fresh clone.
    let mv = board.candidates()[0];
    c.bench_function("morpion_play_move_incremental", |b| {
        b.iter_batched(
            || board.clone(),
            |mut bd| {
                bd.play_move(&mv);
                black_box(bd.candidates().len())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_nested(c: &mut Criterion) {
    let mut group = c.benchmark_group("nested");
    group.sample_size(10);

    // The small cross keeps level-1 full searches affordable per sample.
    let small = cross_board(Variant::Disjoint, 3);
    let cfg = NestedConfig::paper();
    let mut rng = Rng::seeded(7);
    group.bench_function("level1_small_cross", |b| {
        b.iter(|| {
            black_box(
                SearchResult::unbounded(|ctx| nested_with(&small, 1, &cfg, &mut rng, ctx)).score,
            )
        })
    });

    let standard = standard_5d();
    let mut rng2 = Rng::seeded(7);
    group.bench_function("level1_standard_cross", |b| {
        b.iter(|| {
            black_box(
                SearchResult::unbounded(|ctx| nested_with(&standard, 1, &cfg, &mut rng2, ctx))
                    .score,
            )
        })
    });

    // Flat Monte-Carlo with the playout budget of a level-1 search
    // (quality comparison lives in the tables; here we time it).
    let mut rng3 = Rng::seeded(7);
    group.bench_function("flat_mc_700_playouts", |b| {
        b.iter(|| {
            black_box(
                SearchResult::unbounded(|ctx| {
                    flat_monte_carlo_with(&standard, 700, &mut rng3, ctx)
                })
                .score,
            )
        })
    });
    group.finish();
}

/// SameGame with the seed's allocating move generation and no undo fast
/// path — reproduces the cost profile of the pre-scratch-protocol
/// implementation so the `playout_paths` group measures this PR's actual
/// before/after on the hot path.
#[derive(Clone)]
struct SeedPatternSameGame(SameGame);

impl Game for SeedPatternSameGame {
    type Move = Tap;
    fn legal_moves(&self, out: &mut Vec<Tap>) {
        out.extend(self.0.groups_reference().into_iter().map(|(t, _)| t));
    }
    fn play(&mut self, mv: &Tap) {
        self.0.play(mv);
    }
    fn score(&self) -> Score {
        self.0.score()
    }
    fn moves_played(&self) -> usize {
        self.0.moves_played()
    }
    // No fast path: searches clone per evaluation, like the seed did.
}

/// The clone-path evaluation pattern of the in-tree fallback: clone the
/// position, play the candidate, roll out. `seq` is reused across calls,
/// exactly as the nested search reuses its per-level buffer — the comparison
/// against the undo path must not handicap this side with an allocation
/// the real fallback does not pay.
fn eval_clone_path<G: Game>(
    root: &G,
    mv: &G::Move,
    rng: &mut Rng,
    seq: &mut Vec<G::Move>,
) -> Score {
    let mut child = root.clone();
    child.play(mv);
    seq.clear();
    let mut stats = SearchStats::new();
    sample_into(&mut child, rng, None, seq, &mut stats)
}

/// The undo-path evaluation pattern of the scratch-state protocol:
/// apply, roll out in place with reused buffers, unwind.
fn eval_undo_path<G: Game>(
    pos: &mut G,
    mv: &G::Move,
    rng: &mut Rng,
    scratch: &mut PlayoutScratch<G>,
    seq: &mut Vec<G::Move>,
) -> Score {
    let token = pos.apply(mv);
    seq.clear();
    let mut ctx = SearchCtx::unbounded();
    let score = scratch.run_undo(pos, rng, None, seq, &mut ctx);
    pos.undo(token);
    score
}

/// The acceptance benchmark of the scratch-state refactor: playouts/sec
/// in the level-1 evaluation pattern, per path.
///
/// * `seed_pattern` (SameGame only) — clone-per-eval plus the seed's
///   allocating move generation: what every playout cost before this
///   refactor. The undo path beats it by the full playout-core margin
///   (≈6× measured on 15×15×5).
/// * `clone_path` — clone-per-eval over the *optimised* core
///   ([`SnapshotOnly`] pins the search to the fallback).
/// * `undo_path` — apply/undo over the optimised core. For Morpion the
///   clone and undo rows are deliberately close (its clone is a ~130 ns
///   flat memcpy by design — see the `morpion_clone` bench — so the
///   protocol's win there is allocation-freedom, not raw speed); for
///   SameGame the undo path's margin comes from the allocation-free
///   flood core both in-place paths share.
fn bench_playout_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("playout_paths");

    // --- SameGame, 15×15, 5 colours (the standard benchmark board) ---
    let sg = SameGame::random(15, 15, 5, 3);
    let mut moves = Vec::new();
    sg.legal_moves(&mut moves);
    let mv = moves[0];

    let seed_game = SeedPatternSameGame(sg.clone());
    let mut rng = Rng::seeded(9);
    let mut seq = Vec::new();
    group.bench_function("samegame_playout_seed_pattern", |b| {
        b.iter(|| black_box(eval_clone_path(&seed_game, &mv, &mut rng, &mut seq)))
    });

    let snap = SnapshotOnly(sg.clone());
    let mut rng = Rng::seeded(9);
    let mut seq = Vec::new();
    group.bench_function("samegame_playout_clone_path", |b| {
        b.iter(|| black_box(eval_clone_path(&snap, &mv, &mut rng, &mut seq)))
    });

    let mut pos = sg.clone();
    let mut scratch = PlayoutScratch::new();
    let mut seq = Vec::new();
    let mut rng = Rng::seeded(9);
    group.bench_function("samegame_playout_undo_path", |b| {
        b.iter(|| {
            black_box(eval_undo_path(
                &mut pos,
                &mv,
                &mut rng,
                &mut scratch,
                &mut seq,
            ))
        })
    });

    // --- Morpion 5D from the standard cross ---
    let board = standard_5d();
    let bmv = board.candidates()[0];

    let snap_board = SnapshotOnly(board.clone());
    let mut rng = Rng::seeded(9);
    let mut seq = Vec::new();
    group.bench_function("morpion_playout_clone_path", |b| {
        b.iter(|| black_box(eval_clone_path(&snap_board, &bmv, &mut rng, &mut seq)))
    });

    let mut pos = board;
    let mut scratch = PlayoutScratch::new();
    let mut seq = Vec::new();
    let mut rng = Rng::seeded(9);
    group.bench_function("morpion_playout_undo_path", |b| {
        b.iter(|| {
            black_box(eval_undo_path(
                &mut pos,
                &bmv,
                &mut rng,
                &mut scratch,
                &mut seq,
            ))
        })
    });
    group.finish();
}

/// Level-1 searches end to end: the seed pattern vs the scratch path.
fn bench_nested_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("nested_paths");
    group.sample_size(10);
    let cfg = NestedConfig::paper();

    let sg = SameGame::random(10, 10, 4, 1);
    let seed_game = SeedPatternSameGame(sg.clone());
    let mut rng = Rng::seeded(7);
    group.bench_function("samegame_nested1_seed_pattern", |b| {
        b.iter(|| {
            black_box(
                SearchResult::unbounded(|ctx| nested_with(&seed_game, 1, &cfg, &mut rng, ctx))
                    .score,
            )
        })
    });
    let mut rng = Rng::seeded(7);
    group.bench_function("samegame_nested1_undo_path", |b| {
        b.iter(|| {
            black_box(SearchResult::unbounded(|ctx| nested_with(&sg, 1, &cfg, &mut rng, ctx)).score)
        })
    });

    let small = cross_board(Variant::Disjoint, 3);
    let mut rng = Rng::seeded(7);
    group.bench_function("morpion_nested1_clone_path", |b| {
        b.iter(|| {
            black_box(
                SearchResult::unbounded(|ctx| {
                    nested_with(&SnapshotOnly(small.clone()), 1, &cfg, &mut rng, ctx)
                })
                .score,
            )
        })
    });
    let mut rng = Rng::seeded(7);
    group.bench_function("morpion_nested1_undo_path", |b| {
        b.iter(|| {
            black_box(
                SearchResult::unbounded(|ctx| nested_with(&small, 1, &cfg, &mut rng, ctx)).score,
            )
        })
    });
    group.finish();
}

fn bench_legal_moves_buffer(c: &mut Criterion) {
    // The workhorse-buffer pattern of the Game trait: enumerate legal
    // moves without allocating per step.
    let board = standard_5d();
    let mut buf = Vec::with_capacity(64);
    c.bench_function("morpion_legal_moves_into_buffer", |b| {
        b.iter(|| {
            buf.clear();
            board.legal_moves(&mut buf);
            black_box(buf.len())
        })
    });
}

fn bench_nrpa(c: &mut Criterion) {
    let mut group = c.benchmark_group("nrpa");
    group.sample_size(10);
    let small = cross_board(Variant::Disjoint, 3);
    let cfg = NrpaConfig {
        iterations: 20,
        alpha: 1.0,
    };
    let mut rng = Rng::seeded(3);
    group.bench_function("level2_n20_small_cross", |b| {
        b.iter(|| {
            black_box(
                SearchResult::unbounded(|ctx| nrpa_with(&small, 2, &cfg, &mut rng, ctx)).score,
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_playout,
    bench_movegen,
    bench_nested,
    bench_playout_paths,
    bench_nested_paths,
    bench_legal_moves_buffer,
    bench_nrpa
);
criterion_main!(benches);
