//! Zero-allocation playout sanitizer — the dynamic half of the hot-path
//! purity contract (the static half is the call-graph pass in
//! `crates/lint/src/hotpath.rs`).
//!
//! This binary installs the counting [`alloc_counter::CountingAllocator`]
//! as its global allocator; being a *separate test binary* is the cfg
//! gate — every other test binary and all production/bench builds keep
//! the system allocator untouched.
//!
//! The idiom (also documented in ROADMAP.md): warm a
//! [`PlayoutScratch`] by replaying the exact seeded playout that will be
//! measured (identical RNG stream ⇒ identical peak buffer sizes), then
//! wrap the replay in [`alloc_counter::assert_no_alloc`]. On the
//! scratch (apply/undo) path this must be **zero** for every domain; on
//! the clone path (via [`SnapshotOnly`]) we instead record the honest
//! non-zero count and pin its determinism.

use alloc_counter::{assert_no_alloc, count_allocs};
use pnmcs::games::{NeedleLadder, SameGame, Sudoku, SumGame, TspGame, TspInstance};
use pnmcs::morpion::{cross_board, Variant};
use pnmcs::search::{Game, PlayoutScratch, Rng, SearchCtx, SnapshotOnly};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// Replays the same seeded playout `rounds` times on the restoring
/// scratch path (so every round starts from the identical position and
/// consumes the identical RNG stream), asserting rounds after the first
/// allocate nothing.
fn assert_scratch_playout_alloc_free<G: Game>(label: &str, game: &mut G, seed: u64) {
    assert!(game.supports_undo(), "{label}: scratch path requires undo");
    let mut scratch = PlayoutScratch::new();
    let mut seq = Vec::new();
    let mut ctx = SearchCtx::unbounded();

    // Warm-up: grows the move/undo/seq buffers and any domain
    // thread-local scratch to this playout's peak size. Two rounds so
    // the second confirms the first left the position fully restored.
    for _ in 0..2 {
        seq.clear();
        let mut rng = Rng::seeded(seed);
        scratch.run_undo(game, &mut rng, None, &mut seq, &mut ctx);
    }
    let warm_len = seq.len();

    // The measured replay: byte-for-byte the same playout, now required
    // to stay off the allocator entirely.
    assert_no_alloc(label, || {
        seq.clear();
        let mut rng = Rng::seeded(seed);
        scratch.run_undo(game, &mut rng, None, &mut seq, &mut ctx);
    });
    assert_eq!(seq.len(), warm_len, "{label}: replay diverged from warm-up");
}

#[test]
fn morpion_scratch_playout_is_allocation_free() {
    assert_scratch_playout_alloc_free("morpion-5d", &mut cross_board(Variant::Disjoint, 3), 2009);
    assert_scratch_playout_alloc_free("morpion-5t", &mut cross_board(Variant::Touching, 3), 2009);
}

#[test]
fn samegame_scratch_playout_is_allocation_free() {
    assert_scratch_playout_alloc_free("samegame", &mut SameGame::random(8, 8, 3, 7), 2009);
}

#[test]
fn tsp_scratch_playout_is_allocation_free() {
    let instance = TspInstance::random(24, 11);
    // Both branchings: the full successor list and the k-nearest
    // neighbourhood pruning (which uses its own thread-local scratch).
    assert_scratch_playout_alloc_free("tsp-full", &mut TspGame::new(instance.clone(), None), 2009);
    assert_scratch_playout_alloc_free("tsp-k8", &mut TspGame::new(instance, Some(8)), 2009);
}

#[test]
fn sudoku_scratch_playout_is_allocation_free() {
    assert_scratch_playout_alloc_free("sudoku", &mut Sudoku::puzzle(3, 40, 5), 2009);
}

#[test]
fn toy_scratch_playouts_are_allocation_free() {
    assert_scratch_playout_alloc_free("sumgame", &mut SumGame::random(12, 4, 3), 2009);
    assert_scratch_playout_alloc_free("needle-ladder", &mut NeedleLadder::new(10), 2009);
}

/// The clone path allocates by design (one boxed snapshot per move via
/// the default `apply`). The sanitizer cannot demand zero there; it
/// instead records the honest count and pins that it is deterministic —
/// a regression doubling snapshot traffic fails this test.
#[test]
fn clone_path_allocation_count_is_honest_and_deterministic() {
    let run_once = || {
        let mut game = SnapshotOnly(SumGame::random(12, 4, 3));
        assert!(!game.supports_undo(), "the adapter must hide the fast path");
        let mut scratch = PlayoutScratch::new();
        let mut seq = Vec::new();
        let mut ctx = SearchCtx::unbounded();
        let mut rng = Rng::seeded(2009);
        let (events, score) =
            count_allocs(|| scratch.run_undo(&mut game, &mut rng, None, &mut seq, &mut ctx));
        (events, score, seq.len())
    };
    let (events_a, score_a, len_a) = run_once();
    let (events_b, score_b, len_b) = run_once();
    assert!(
        events_a > 0,
        "the snapshot fallback must be visible to the counter"
    );
    assert_eq!(
        events_a, events_b,
        "clone-path traffic must be deterministic"
    );
    assert_eq!((score_a, len_a), (score_b, len_b));
}

/// Sequential UCT allocates when it grows the tree — a node's move list
/// and child list, the arena's own growth — and not otherwise: the
/// descent's path and move sequence are buffers of the search, not of
/// the iteration. On a 6×6 board most of 2000 iterations end on a
/// terminal node and build nothing, so a per-iteration allocation shows
/// as a multiple of this bound.
#[test]
fn uct_allocates_per_expansion_not_per_iteration() {
    use pnmcs::search::{SearchSpec, UctConfig};
    for seed in 0..3 {
        let board = SameGame::random(6, 6, 3, seed);
        let spec = SearchSpec::uct_with(UctConfig {
            iterations: 2000,
            ..UctConfig::default()
        })
        .seed(seed);
        let (events, report) = count_allocs(|| spec.run(&board));
        let expansions = report.stats.expansions;
        assert!(
            expansions < 1000,
            "seed {seed}: {expansions} expansions — most iterations must build no node"
        );
        assert!(
            events <= 2 * expansions + 80,
            "seed {seed}: {events} allocations for {expansions} expansions"
        );
    }
}
