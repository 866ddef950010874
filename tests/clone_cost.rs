//! The cost model of clone-only games, pinned: a game without the
//! apply/undo fast path pays one position copy per candidate evaluation
//! (per tree iteration, per NRPA walk) — never one per playout move.
//!
//! The bounds are the clone counts of commit 70ef745 (PR 11), whose
//! dedicated clone-per-candidate bodies were then folded into the single
//! walker-driven body; the fold may make fewer copies, never more.

use pnmcs::games::SumGame;
use pnmcs::search::{CodedGame, Game, NrpaConfig, Score, SearchSpec, UctConfig};
use std::cell::Cell;

thread_local! {
    /// Per-thread so concurrently running tests do not see each other;
    /// every search below is serial.
    static CLONES: Cell<u64> = const { Cell::new(0) };
}

/// A clone-only view of `G` (no `supports_undo`) that counts its copies.
struct Counted<G>(G);

impl<G: Clone> Clone for Counted<G> {
    fn clone(&self) -> Self {
        CLONES.with(|c| c.set(c.get() + 1));
        Counted(self.0.clone())
    }
}

impl<G: Game> Game for Counted<G> {
    type Move = G::Move;
    fn legal_moves(&self, out: &mut Vec<G::Move>) {
        self.0.legal_moves(out);
    }
    fn play(&mut self, mv: &G::Move) {
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
        (
            "iterated_sampling(3)",
            SearchSpec::iterated_sampling(3).seed(1).build(),
            73,
        ),
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
