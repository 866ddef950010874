//! The cost model of restoring by copy, pinned: a game pays one
//! position copy per candidate evaluation
//! (per tree iteration, per NRPA walk) — never one per playout move.
//! Sequential UCT pays neither a copy nor any other game call on an
//! iteration that ends on a node it already knows is terminal.
//!
//! The bounds are the clone counts of commit 70ef745 (PR 11), whose
//! dedicated clone-per-candidate bodies were then folded into the single
//! walker-driven body; the fold may make fewer copies, never more.
//!
//! The walker makes those copies with `clone_from` into a slot it keeps
//! per mark depth, so a copy must be a copy whatever the slot held
//! before: for every domain and for the erased `DynGame`, `clone_from`
//! is checked against `clone` from targets of other sizes and, erased,
//! of another game type.

use pnmcs::games::{NeedleLadder, SameGame, Sudoku, SumGame, TspGame, TspInstance};
use pnmcs::morpion::{cross_board, Variant};
use pnmcs::search::{CodedGame, DynGame, Game, NrpaConfig, Rng, Score, SearchSpec, UctConfig};
use std::cell::Cell;

thread_local! {
    /// Per-thread so concurrently running tests do not see each other;
    /// every search below is serial.
    static CLONES: Cell<u64> = const { Cell::new(0) };
    /// `play` and `legal_moves` calls, counted the same way.
    static PLAYS: Cell<u64> = const { Cell::new(0) };
    static LISTS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    counter.with(|c| c.set(c.get() + 1));
}

/// A view of `G` that counts its copies, moves played and move lists.
struct Counted<G>(G);

impl<G: Clone> Clone for Counted<G> {
    fn clone(&self) -> Self {
        bump(&CLONES);
        Counted(self.0.clone())
    }
}

impl<G: Game> Game for Counted<G> {
    type Move = G::Move;
    fn legal_moves(&self, out: &mut Vec<G::Move>) {
        bump(&LISTS);
        self.0.legal_moves(out);
    }
    fn play(&mut self, mv: &G::Move) {
        bump(&PLAYS);
        self.0.play(mv);
    }
    fn score(&self) -> Score {
        self.0.score()
    }
    fn moves_played(&self) -> usize {
        self.0.moves_played()
    }
}

impl<G: CodedGame> CodedGame for Counted<G> {
    fn move_code(&self, mv: &G::Move) -> u64 {
        self.0.move_code(mv)
    }
}

/// Clones made by `spec` on a depth-6, width-4 `SumGame` (every playout
/// is 6 moves long, so a copy per playout move would show at once).
fn clones_of(spec: &SearchSpec) -> u64 {
    let game = Counted(SumGame::random(6, 4, 3));
    CLONES.with(|c| c.set(0));
    let report = spec.run(&game);
    assert!(report.interrupted.is_none());
    CLONES.with(|c| c.get())
}

#[test]
fn clone_only_games_pay_no_more_copies_than_before_the_fold() {
    let nrpa = NrpaConfig {
        iterations: 10,
        alpha: 1.0,
    };
    let uct = UctConfig {
        iterations: 50,
        ..Default::default()
    };
    let cases = [
        ("nested(1)", SearchSpec::nested(1).seed(1).build(), 25),
        ("nested(2)", SearchSpec::nested(2).seed(1).build(), 289),
        ("uct(50)", SearchSpec::uct_with(uct).seed(1).build(), 51),
        (
            "nrpa(1)",
            SearchSpec::nrpa_with(1, nrpa).seed(1).build(),
            20,
        ),
    ];
    for (name, spec, parent) in cases {
        let now = clones_of(&spec);
        assert!(
            now <= parent,
            "{name}: {now} clones, the parent commit made {parent}"
        );
    }
}

/// Sequential UCT walks its tree without the board: it plays a
/// descent's moves only when it needs the position (to list a new
/// node's moves, hash a new child or roll out), and backs up a known
/// terminal node's kept score. A 4×4 board's whole tree is built within
/// 2 000 iterations, so 18 000 more run almost no game code; replaying
/// every descent, as the deleted shared tree did, would cost about four
/// `play` calls and one `legal_moves` call per iteration here.
#[test]
fn an_exhausted_uct_tree_runs_no_game_code() {
    let game = Counted(SameGame::random(4, 4, 3, 1));
    let calls = |iterations| {
        PLAYS.with(|c| c.set(0));
        LISTS.with(|c| c.set(0));
        let config = UctConfig {
            iterations,
            ..Default::default()
        };
        let report = SearchSpec::uct_with(config).seed(1).run(&game);
        assert!(report.interrupted.is_none());
        (
            PLAYS.with(|c| c.get()),
            LISTS.with(|c| c.get()),
            report.stats.expansions,
        )
    };
    let (plays, lists, expansions) = calls(2_000);
    let (more_plays, more_lists, more_expansions) = calls(20_000);
    assert!(
        more_expansions - expansions <= 2,
        "{expansions} expansions in 2 000 iterations, {more_expansions} in 20 000"
    );
    // At most one call per hundred extra iterations.
    assert!(
        more_plays - plays <= 180 && more_lists - lists <= 180,
        "18 000 more iterations made {} more `play` and {} more `legal_moves` calls",
        more_plays - plays,
        more_lists - lists
    );
}

/// What a search can observe of a position: its transposition key,
/// score, move count and ordered legal moves.
fn observe<G: Game>(g: &G) -> (u64, Score, usize, Vec<String>) {
    let mut moves = Vec::new();
    g.legal_moves(&mut moves);
    (
        g.state_hash(),
        g.score(),
        g.moves_played(),
        moves.iter().map(|m| format!("{m:?}")).collect(),
    )
}

/// Plays up to `plies` moves of the random line `seed` picks.
fn advanced<G: Game>(mut g: G, plies: usize, seed: u64) -> G {
    let mut rng = Rng::seeded(seed);
    let mut moves = Vec::new();
    for _ in 0..plies {
        g.legal_moves_into(&mut moves);
        if moves.is_empty() {
            break;
        }
        g.play(&moves[rng.below(moves.len())]);
    }
    g
}

/// `dst.clone_from(src)` is observably `src.clone()`, and stays so along
/// the rest of a random game played on both.
fn assert_clone_from_is_clone<G: Game>(label: &str, mut dst: G, src: &G) {
    let expected = src.clone();
    dst.clone_from(src);
    assert_eq!(observe(&dst), observe(&expected), "{label}");
    let (dst, expected) = (
        advanced(dst, usize::MAX, 7),
        advanced(expected, usize::MAX, 7),
    );
    assert_eq!(observe(&dst), observe(&expected), "{label}: played on");
}

#[test]
fn clone_from_equals_clone_in_every_domain() {
    for seed in 0..3 {
        // Targets of the same size and of a smaller and a larger board.
        let src = advanced(SameGame::random(8, 8, 3, seed), 4, seed);
        for dst in [(8, 8), (3, 5), (12, 10)].map(|(w, h)| SameGame::random(w, h, 4, seed + 9)) {
            let mut copy = dst.clone();
            copy.clone_from(&src);
            assert_eq!(copy, src, "samegame seed {seed}");
            assert_clone_from_is_clone("samegame", dst, &src);
        }
        let src = advanced(TspGame::new(TspInstance::random(10, seed), None), 3, seed);
        for (n, k) in [(10, None), (6, Some(3)), (14, None)] {
            let dst = advanced(TspGame::new(TspInstance::random(n, seed + 1), k), 2, seed);
            assert_clone_from_is_clone("tsp", dst, &src);
        }
        let src = advanced(Sudoku::puzzle(3, 30, seed), 5, seed);
        for (n, holes) in [(3, 40), (2, 6)] {
            let dst = Sudoku::puzzle(n, holes, seed + 1);
            let mut copy = dst.clone();
            copy.clone_from(&src);
            assert_eq!(copy, src, "sudoku seed {seed}");
            assert_clone_from_is_clone("sudoku", dst, &src);
        }
        let src = advanced(SumGame::random(6, 4, seed), 2, seed);
        assert_clone_from_is_clone("sumgame", SumGame::random(3, 2, seed + 1), &src);
        let src = advanced(NeedleLadder::new(8), 3, seed);
        assert_clone_from_is_clone("needle-ladder", NeedleLadder::new(3), &src);
        let src = advanced(cross_board(Variant::Disjoint, 3), 6, seed);
        for dst in [
            cross_board(Variant::Disjoint, 2),
            advanced(cross_board(Variant::Touching, 3), 3, seed),
        ] {
            assert_clone_from_is_clone("morpion", dst, &src);
        }
    }
}

#[test]
fn erased_clone_from_equals_clone_within_and_across_game_types() {
    for seed in 0..3 {
        let src = advanced(DynGame::new(SameGame::random(8, 8, 3, seed)), 4, seed);
        // The same erased type copies in place; another one is replaced.
        for dst in [
            DynGame::new(SameGame::random(8, 8, 3, seed + 1)),
            DynGame::new(SameGame::random(4, 11, 5, seed)),
            DynGame::new(SumGame::random(5, 3, seed)),
            DynGame::new(TspGame::new(TspInstance::random(7, seed), None)),
        ] {
            let label = format!("{} into {}", src.domain(), dst.domain());
            let mut copy = dst.clone();
            copy.clone_from(&src);
            assert_eq!(copy.domain(), src.domain(), "{label}");
            assert_clone_from_is_clone(&label, dst, &src);
        }
    }
}
