//! The hot-path contract, counted: a warmed playout on every domain
//! allocates nothing, takes no lock and reads no clock; a deadline costs
//! one clock read per `DEADLINE_STRIDE` polls; UCT's master takes no
//! lock at any width, and tree-parallel UCT's rollout farm takes a fixed
//! count per wave.
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
//! restore path every domain uses — `clone_from` into a kept copy — this
//! must be **zero**; on the snapshot fallback (`apply`/`undo`, which no
//! search calls) we instead record the honest non-zero count and pin its
//! determinism.
//!
//! Locks and clock reads are counted per thread by vendored
//! `parking_lot` ([`parking_lot::lock_acquisitions`]) and by the one
//! clock function ([`monotonic_now`](pnmcs::search::metrics::monotonic_now),
//! [`clock_reads`]). Both counters exist in debug builds only, so those
//! bounds are checked by the debug `cargo test` passes; the release run
//! of this binary checks allocations.

use alloc_counter::{assert_no_alloc, count_allocs};
use pnmcs::games::{NeedleLadder, SameGame, Sudoku, SumGame, TspGame, TspInstance};
use pnmcs::morpion::{cross_board, Variant};
#[cfg(debug_assertions)]
use pnmcs::search::{ctx::DEADLINE_STRIDE, metrics::clock_reads, Budget};
use pnmcs::search::{
    CodedGame, DynGame, Game, PlayoutScratch, Rng, SearchCtx, SearchSession, SearchSpec, UctConfig,
};

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

/// What one wave above one lane allocates on the searching thread: the
/// batch its rollouts are handed to the pool in, and the lane locks the
/// batch's slots take.
const FARM_ALLOCS_PER_WAVE: u64 = 2;

/// What each lane past the first may add to a search's fixed bound: its
/// position and buffers, which grow on whichever thread first rolls the
/// lane out, so the searching thread's share of them varies from run to
/// run.
const FARM_ALLOCS_PER_LANE: u64 = 16;

/// The locks this thread takes and the clock reads it makes while `f`
/// runs.
#[cfg(debug_assertions)]
fn locks_and_clock_reads(f: impl FnOnce()) -> (u64, u64) {
    // The first spec run in the process creates the metrics registry,
    // whose epoch is one clock read on the creating thread. Create it
    // before counting, so no count depends on which test of this binary
    // runs a spec first.
    pnmcs::search::metrics::search_metrics();
    let (locks, clocks) = (parking_lot::lock_acquisitions(), clock_reads());
    f();
    (
        parking_lot::lock_acquisitions() - locks,
        clock_reads() - clocks,
    )
}

/// One seeded playout from `root`, restored the way the searches' walker
/// restores every game: on a copy that `clone_from` refreshes from
/// `root` first.
struct Replay<'a, G: Game> {
    root: &'a mut G,
    copy: G,
    scratch: PlayoutScratch<G>,
    seq: Vec<G::Move>,
    seed: u64,
}

impl<G: Game> Replay<'_, G> {
    /// Plays the playout again and returns its length.
    fn run(&mut self, ctx: &mut SearchCtx) -> usize {
        self.seq.clear();
        let mut rng = Rng::seeded(self.seed);
        self.copy.clone_from(self.root);
        self.scratch
            .run(&mut self.copy, &mut rng, None, &mut self.seq, ctx);
        self.seq.len()
    }
}

/// Replays the same seeded playout on the game's restore path (so every
/// round starts from the identical position and consumes the identical
/// RNG stream), asserting that rounds after the warm-up allocate
/// nothing, take no lock and read no clock — and that the position's
/// `state_hash`, read once per tree expansion, allocates nothing either.
fn assert_playout_alloc_free<G: Game>(label: &str, game: &mut G, seed: u64) {
    let mut replay = Replay {
        copy: game.clone(),
        root: game,
        scratch: PlayoutScratch::new(),
        seq: Vec::new(),
        seed,
    };
    let mut ctx = SearchCtx::unbounded();

    // Warm-up: grows the move/seq buffers, the copy and any domain
    // thread-local scratch to this playout's peak size. Two rounds so
    // the second confirms the first left the root fully restored.
    replay.run(&mut ctx);
    let warm_len = replay.run(&mut ctx);

    // The measured replay: byte-for-byte the same playout, now required
    // to stay off the allocator entirely.
    let len = assert_no_alloc(label, || replay.run(&mut ctx));
    assert_eq!(len, warm_len, "{label}: replay diverged from warm-up");
    replay.root.state_hash();
    assert_no_alloc(label, || replay.root.state_hash());

    // The same replay takes no lock and reads no clock. Under a deadline
    // a playout polls once per move, and a fresh context reads the clock
    // on its first poll and then on every `DEADLINE_STRIDE`-th.
    #[cfg(debug_assertions)]
    {
        let unbounded = locks_and_clock_reads(|| {
            replay.run(&mut ctx);
        });
        assert_eq!(
            unbounded,
            (0, 0),
            "{label}: (locks, clock reads) of a playout"
        );
        let budget = Budget::none().with_deadline(std::time::Duration::from_secs(3600));
        let mut timed = SearchCtx::new(&budget, None);
        let (locks, clocks) = locks_and_clock_reads(|| {
            replay.run(&mut timed);
        });
        let bound = (warm_len as u64).div_ceil(u64::from(DEADLINE_STRIDE)) + 1;
        assert_eq!(locks, 0, "{label}: locks of a playout under a deadline");
        assert!(
            (1..=bound).contains(&clocks),
            "{label}: {clocks} clock reads over {warm_len} moves, bound {bound}"
        );
    }
}

#[test]
fn morpion_scratch_playout_is_allocation_free() {
    assert_playout_alloc_free("morpion-5d", &mut cross_board(Variant::Disjoint, 3), 2009);
    assert_playout_alloc_free("morpion-5t", &mut cross_board(Variant::Touching, 3), 2009);
}

#[test]
fn samegame_copy_restore_playout_is_allocation_free() {
    assert_playout_alloc_free("samegame", &mut SameGame::random(8, 8, 3, 7), 2009);
}

#[test]
fn tsp_scratch_playout_is_allocation_free() {
    let instance = TspInstance::random(24, 11);
    // Both branchings: the full successor list and the k-nearest
    // neighbourhood pruning (which uses its own thread-local scratch).
    assert_playout_alloc_free("tsp-full", &mut TspGame::new(instance.clone(), None), 2009);
    assert_playout_alloc_free("tsp-k8", &mut TspGame::new(instance, Some(8)), 2009);
}

#[test]
fn sudoku_scratch_playout_is_allocation_free() {
    assert_playout_alloc_free("sudoku", &mut Sudoku::puzzle(3, 40, 5), 2009);
}

#[test]
fn toy_scratch_playouts_are_allocation_free() {
    assert_playout_alloc_free("sumgame", &mut SumGame::random(12, 4, 3), 2009);
    assert_playout_alloc_free("needle-ladder", &mut NeedleLadder::new(10), 2009);
}

/// The snapshot fallback, which no search calls, allocates by design
/// (one boxed snapshot per move via the default `apply`). The sanitizer
/// cannot demand zero there; it instead records the honest count and
/// pins that it is deterministic — a regression doubling snapshot
/// traffic fails this test.
#[test]
fn clone_path_allocation_count_is_honest_and_deterministic() {
    let run_once = || {
        let mut game = SumGame::random(12, 4, 3);
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

/// UCT allocates when it grows the tree and not otherwise: the
/// descent's path and move sequence are buffers of the search, not of
/// the iteration. Sequential UCT allocates nothing per expansion either:
/// its arena, its move pool and its `ln` table are search-wide vectors,
/// so all it pays is their amortised (doubling) growth and the search's
/// fixed buffers; `tree_parallel(1)` is the same search. Above one lane
/// each wave hands its rollouts to the pool as one batch, which this
/// thread allocates: a term per wave, none per expansion. On a 6×6
/// board most of 2000 iterations end on a terminal node and build
/// nothing, so a per-iteration allocation shows as a multiple of these
/// bounds, and one allocation per expansion (a few hundred here) breaks
/// the fixed bound.
///
/// SameGame restores by copy, so an iteration that needs a position (to
/// expand a node or to roll out from a leaf not known to be terminal)
/// copies the root into the walker's kept slot; one ending on a known
/// terminal node copies nothing. That copy allocates nothing, typed or
/// erased: an erased position copies in place when both sides erase
/// the same game type.
#[test]
fn uct_allocates_per_expansion_not_per_iteration() {
    for seed in 0..3 {
        let board = SameGame::random(6, 6, 3, seed);
        assert_uct_allocations("typed", &board, seed, true);
        assert_uct_allocations("erased", &DynGame::new(board), seed, false);
    }
}

/// The allocation bounds of UCT on `board`, one-shot with and without
/// `tree_reuse` and as a warm session step, plus `tree_parallel` at one,
/// two and four lanes when `tree_parallel` is set.
fn assert_uct_allocations<G>(game: &str, board: &G, seed: u64, tree_parallel: bool)
where
    G: CodedGame + Send + Sync,
    G::Move: Send + Sync,
{
    let config = UctConfig {
        iterations: 2000,
        ..UctConfig::default()
    };
    let mut rows = vec![
        ("uct", SearchSpec::uct_with(config.clone()), 1),
        (
            "uct + tree_reuse",
            SearchSpec::uct_with(config.clone()).tree_reuse(true),
            1,
        ),
    ];
    if tree_parallel {
        for lanes in [1, 2, 4] {
            let spec = SearchSpec::tree_parallel_with(config.clone(), lanes);
            rows.push(("tree_parallel", spec, lanes));
        }
    }
    for (label, spec, lanes) in rows {
        let (events, report) = count_allocs(|| spec.seed(seed).run(board));
        let expansions = report.stats.expansions;
        assert!(
            expansions < 1000,
            "{game} {label}({lanes}) seed {seed}: {expansions} expansions — most iterations must build no node"
        );
        let waves = if lanes == 1 { 0 } else { 2000 / lanes as u64 };
        let lane_setup = FARM_ALLOCS_PER_LANE * (lanes as u64 - 1);
        assert!(
            events <= FARM_ALLOCS_PER_WAVE * waves + lane_setup + 80,
            "{game} {label}({lanes}) seed {seed}: {events} allocations for {expansions} expansions"
        );
    }
    // A warm step grows the kept arena and re-roots it into fresh
    // storage: still no term per expansion.
    let spec = SearchSpec::uct_with(config)
        .tree_reuse(true)
        .seed(seed)
        .build();
    let mut session = SearchSession::new(board.clone(), spec, None);
    session.step(None);
    let (events, report) = count_allocs(|| session.step(None));
    let expansions = report.stats.expansions;
    assert!(
        events <= 80,
        "{game} warm uct step, seed {seed}: {events} allocations for {expansions} expansions"
    );
}

/// Sequential UCT's tree belongs to its one search: however many
/// iterations run, it takes no lock and, unbounded, reads no clock.
/// With `tree_reuse` the same arena carries a transposition table, one
/// shot or kept warm across a session's steps, and still takes none:
/// such a search or step costs exactly what the spec wrapper around a
/// reuse-off search or cold step does (the wall-clock read its report
/// carries).
#[cfg(debug_assertions)]
#[test]
fn sequential_uct_takes_no_lock() {
    use pnmcs::search::{uct_with, SearchResult};
    let board = SameGame::random(6, 6, 3, 1);
    let config = UctConfig {
        iterations: 2000,
        ..UctConfig::default()
    };
    let counts = locks_and_clock_reads(|| {
        SearchResult::unbounded(|ctx| uct_with(&board, &config, &mut Rng::seeded(1), ctx));
    });
    assert_eq!(counts, (0, 0), "(locks, clock reads) of 2000 iterations");

    let spec = |reuse: bool| {
        SearchSpec::uct_with(config.clone())
            .tree_reuse(reuse)
            .seed(1)
            .build()
    };
    let one_shot = |reuse: bool| locks_and_clock_reads(|| drop(spec(reuse).run(&board)));
    let wrapper = one_shot(false);
    assert_eq!(wrapper, (0, 1), "the spec wrapper reads the clock once");
    assert_eq!(one_shot(true), wrapper, "one-shot uct + tree_reuse");

    // The second step of each session: the warm one searches and
    // re-roots a tree it kept.
    let second_step = |reuse: bool| {
        let mut session = SearchSession::new(board.clone(), spec(reuse), None);
        session.step(None);
        locks_and_clock_reads(|| drop(session.step(None)))
    };
    assert_eq!(second_step(false), wrapper, "cold session step");
    assert_eq!(second_step(true), wrapper, "warm uct session step");
}

/// Under a deadline, `uct` polls as often as `tree_parallel(1)`, so both
/// read the clock equally often. Most of these iterations end on a node
/// the arena already knows is terminal: it backs up the node's score
/// without a position, but still polls once, as a rollout from that
/// position would.
#[cfg(debug_assertions)]
#[test]
fn uct_polls_a_deadline_as_often_as_the_shared_tree() {
    let board = SameGame::random(6, 6, 3, 1);
    let config = UctConfig {
        iterations: 2000,
        ..UctConfig::default()
    };
    let clock_reads = |spec: pnmcs::search::SearchBuilder| {
        let spec = spec.seed(1).deadline_ms(3_600_000).build();
        locks_and_clock_reads(|| drop(spec.run(&board))).1
    };
    let arena = clock_reads(SearchSpec::uct_with(config.clone()));
    let shared = clock_reads(SearchSpec::tree_parallel_with(config, 1));
    // The spec wrapper's read and the polls of 2000 iterations.
    assert!(arena > 2000 / u64::from(DEADLINE_STRIDE), "{arena}");
    assert_eq!(arena, shared, "clock reads under a far deadline");
}

/// The master of a UCT search takes no lock at any width:
/// `tree_parallel(1)`, reuse off or on, costs exactly what the spec
/// wrapper around `uct` does. Above one lane each wave hands its
/// rollouts to the pool as one batch, and that hand-off is all the
/// locking there is: on the submitting thread `run_batch` takes the
/// pool's monitor to publish and to retire the batch and the batch's
/// own lock to wait and to check for a panic; slot 0 and each further
/// slot the submitter claims lock their own lane, and claiming any
/// takes the batch's lock once more. So a wave of `w` lanes takes
/// between 5 and 5 + w locks, whatever the table and the tree's shape.
#[cfg(debug_assertions)]
#[test]
fn tree_parallel_master_takes_no_lock_and_its_farm_a_bounded_count_per_wave() {
    let board = SameGame::random(6, 6, 3, 2);
    let iterations = 1500;
    let config = UctConfig {
        iterations,
        ..UctConfig::default()
    };
    let uct = SearchSpec::uct_with(config.clone()).seed(2).build();
    let wrapper = locks_and_clock_reads(|| drop(uct.run(&board)));
    assert_eq!(wrapper, (0, 1), "the spec wrapper reads the clock once");
    for reuse in [false, true] {
        for lanes in [1usize, 2, 4] {
            let spec = SearchSpec::tree_parallel_with(config.clone(), lanes)
                .tree_reuse(reuse)
                .seed(2)
                .build();
            let (locks, clocks) = locks_and_clock_reads(|| drop(spec.run(&board)));
            let label = format!("{lanes} lanes, reuse {reuse}");
            assert_eq!(clocks, wrapper.1, "{label}: clock reads");
            let waves = iterations.div_ceil(lanes) as u64;
            let per_wave = if lanes == 1 {
                0..=0
            } else {
                5..=5 + lanes as u64
            };
            assert!(
                (per_wave.start() * waves..=per_wave.end() * waves).contains(&locks),
                "{label}: {locks} locks over {waves} waves"
            );
        }
    }
}

/// A client job of the paper's root/median/client hierarchy is one
/// `clone_from` into its median game's kept evaluator and allocates
/// nothing, so a root-parallel search allocates per median game and per
/// step, not per client job. One thread: `run_batch` runs slot 0 on the
/// submitting thread, so this thread's counter sees the whole search.
/// Each job copying the position (four buffers of a Morpion board)
/// breaks the bound several times over.
#[test]
fn root_parallel_allocates_per_median_game_not_per_client_job() {
    let board = cross_board(Variant::Disjoint, 3);
    for seed in 1..=3 {
        let spec = SearchSpec::root_parallel(2, 1)
            .first_move_only()
            .seed(seed)
            .build();
        let (allocs, report) = count_allocs(|| spec.run(&board));
        let jobs = report.client_jobs;
        assert!(jobs > 1000, "seed {seed}: {jobs} client jobs");
        assert!(
            allocs < jobs / 2,
            "seed {seed}: {allocs} allocations for {jobs} client jobs"
        );
    }
}

/// The leaf executor keeps one evaluator per slot for the whole run, so
/// its allocations do not grow with the items it evaluates: a step pays
/// for its score table, not for its items. Four times the batch is four
/// times the items at every step, and both stay under one allocation per
/// two items.
#[test]
fn leaf_parallel_allocations_do_not_grow_with_items() {
    let board = cross_board(Variant::Disjoint, 3);
    for seed in 1..=3 {
        for batch in [4, 16] {
            let spec = SearchSpec::leaf(1, batch, 1).seed(seed).build();
            let (allocs, report) = count_allocs(|| spec.run(&board));
            let jobs = report.client_jobs;
            assert!(jobs > 100 * batch as u64, "seed {seed}: {jobs} items");
            assert!(
                allocs < jobs / 2,
                "leaf(1, {batch}, 1) seed {seed}: {allocs} allocations for {jobs} items"
            );
        }
    }
}
