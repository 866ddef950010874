//! The [`Game`] abstraction searched by NMCS.
//!
//! The paper's algorithms are described for single-agent score-maximisation
//! problems ("the algorithm tries to find the sequence of moves that
//! maximizes \[the score\]", §III). The trait below captures exactly what
//! `sample` and `nested` need: cheap position cloning, legal move
//! enumeration, move application, and a score.

use crate::rng::{mix64, Rng};

/// The score of a game; the search maximises it.
///
/// Integer scores make the per-move `argmax` exact and deterministic —
/// important because the parallel backends must agree bit-for-bit with the
/// sequential search. Domains with fractional objectives should scale them
/// to integers (e.g. TSP tour lengths in integer units).
pub type Score = i64;

/// Domain-separation salt of the default [`Game::state_hash`], so the
/// weak fallback digest never collides structurally with a real
/// implementation's keys.
const STATE_HASH_FALLBACK_SALT: u64 = 0x5e55_10f0_9b3a_7c41;

/// The token [`Game::apply`] returns and [`Game::undo`] consumes: a boxed
/// copy of the pre-move state.
///
/// No search reads it. It is kept, with `apply`/`undo`, because the perf
/// ledger still prices that pair (`morpion.apply_undo_ns`).
#[must_use = "an un-consumed undo token leaves the game permanently advanced"]
pub struct Undo<G> {
    snapshot: Box<G>,
}

impl<G> Undo<G> {
    /// A token carrying a full pre-move snapshot.
    pub fn snapshot(state: G) -> Self {
        Undo {
            snapshot: Box::new(state),
        }
    }
}

impl<G> std::fmt::Debug for Undo<G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Undo::snapshot")
    }
}

/// A single-agent, perfect-information, finite game searched by NMCS.
///
/// Implementations must satisfy:
///
/// * **Determinism** — `play` is a pure state transition; `legal_moves`
///   and `score` depend only on the current state.
/// * **Finiteness** — every playout reaches a state with no legal moves in
///   a bounded number of steps (Morpion games are bounded by the grid,
///   SameGame by the number of tiles, …).
/// * **Cheap `Clone`** — searches get a position back by copying it:
///   the position walker copies it once per candidate evaluation, never
///   once per playout move.
///
/// ## Restoring by copy
///
/// Searches restore positions by copy: a search that scores a candidate
/// copies the position into a slot it keeps ([`Clone::clone_from`]),
/// plays the candidate and its playout forward, and swaps the copy back.
/// The slots are reused from one candidate to the next, so **make
/// `clone_from` reuse your buffers**: a game that holds heap buffers and
/// keeps the derived `clone_from` (which is `*self = source.clone()`)
/// allocates once per candidate.
///
/// ## The random step
///
/// Every random playout advances by [`Game::play_random`]. Its default
/// lists the legal moves, draws one with `rng.below(n)` and plays it. A
/// game that can pick from its own move cache faster may override it,
/// but only draw for draw: an override draws exactly one `rng.below(n)`,
/// `n` the number of legal moves, and plays the move at that index of
/// the [`Game::legal_moves`] order. The searches' results are pinned to
/// the seed, so an override that drew differently would change them.
pub trait Game: Clone {
    /// The move type. `Clone + PartialEq` suffice for sequence memoisation.
    type Move: Clone + PartialEq + std::fmt::Debug;

    /// Appends every legal move of the current position to `out`.
    ///
    /// `out` is a caller-provided workhorse buffer (cleared by the caller)
    /// so hot playout loops do not allocate per step.
    fn legal_moves(&self, out: &mut Vec<Self::Move>);

    /// Applies a legal move to the position.
    ///
    /// Passing a move that is not currently legal is a logic error; the
    /// implementation may panic or corrupt the game state (debug builds of
    /// the bundled games panic).
    fn play(&mut self, mv: &Self::Move);

    /// The score of the current position; compared at terminal states.
    ///
    /// For Morpion Solitaire this is the number of moves played, so the
    /// score is monotone along a game. That monotonicity is *not* required
    /// by the search.
    fn score(&self) -> Score;

    /// Number of moves played from the initial position.
    ///
    /// The Last-Minute dispatcher uses this as its expected-remaining-time
    /// estimate (paper §IV-B: "the expected computation time is estimated
    /// with the number of moves already played").
    fn moves_played(&self) -> usize;

    /// Whether the game is over (no legal moves).
    ///
    /// The default enumerates moves into a scratch vector; implementations
    /// with a cached candidate list should override it.
    fn is_terminal(&self) -> bool {
        let mut buf = Vec::new();
        self.legal_moves(&mut buf);
        buf.is_empty()
    }

    /// Clears `out` and fills it with the current legal moves — the
    /// hot-loop entry point of the playout core, equivalent to
    /// `out.clear()` followed by [`Game::legal_moves`]. Exists so callers
    /// can reuse one buffer across an entire search without sprinkling
    /// `clear()` calls, and so cached-candidate games have a single place
    /// to shortcut.
    fn legal_moves_into(&self, out: &mut Vec<Self::Move>) {
        out.clear();
        self.legal_moves(out);
    }

    /// Plays one uniformly random legal move and returns it, or returns
    /// `None` and leaves the position as it is if there is none. `scratch`
    /// is a buffer the caller keeps across steps; its contents on return
    /// are unspecified.
    ///
    /// The default is the playout step itself: [`Game::legal_moves_into`]
    /// `scratch`, `swap_remove(rng.below(n))`, [`Game::play`]. An override
    /// must match it draw for draw (see the trait docs): the same single
    /// `rng.below(n)`, the same move.
    #[inline]
    fn play_random(&mut self, rng: &mut Rng, scratch: &mut Vec<Self::Move>) -> Option<Self::Move> {
        self.legal_moves_into(scratch);
        if scratch.is_empty() {
            return None;
        }
        let mv = scratch.swap_remove(rng.below(scratch.len()));
        self.play(&mv);
        Some(mv)
    }

    /// A 64-bit hash of the current position — the transposition-table
    /// key of the tree-reuse search path.
    ///
    /// Contract: positions that are observably equal (same board, same
    /// score, same future) must hash equal; positions with different
    /// futures should hash differently with overwhelming probability.
    /// The hash must depend only on the observable position, so a copy
    /// hashes like its source.
    ///
    /// Called once per tree expansion on the search hot path, so
    /// implementations must be allocation-free (`tests/alloc_playout.rs`
    /// checks every domain's). Maintain it incrementally in `play`
    /// (Zobrist XOR via [`mix64`]) or fold over the compact state on
    /// demand.
    ///
    /// The default mixes only `(moves_played, score)` — a weak snapshot
    /// digest that never distinguishes siblings with equal score. It
    /// keeps every existing game compiling; real domains override it.
    fn state_hash(&self) -> u64 {
        let a = mix64(self.moves_played() as u64 ^ STATE_HASH_FALLBACK_SALT);
        mix64(a ^ (self.score() as u64))
    }

    /// Whether the game journals its own moves. No search reads it; it
    /// is kept, `false`, because the perf ledger still names it.
    fn supports_undo(&self) -> bool {
        false
    }

    /// Applies a legal move like [`Game::play`] and returns a token that
    /// [`Game::undo`] consumes to revert it, by snapshotting the whole
    /// state. No search calls it: they restore by copy (see the trait
    /// docs). Kept because the perf ledger still prices it.
    fn apply(&mut self, mv: &Self::Move) -> Undo<Self> {
        let snapshot = Undo::snapshot(self.clone());
        self.play(mv);
        snapshot
    }

    /// Reverts the most recent not-yet-undone [`Game::apply`]. No search
    /// calls it; kept for the perf ledger.
    fn undo(&mut self, token: Undo<Self>) {
        *self = *token.snapshot;
    }

    /// Reverts a whole stack of applies (newest first), draining
    /// `tokens`. No search calls it; kept for the perf ledger.
    fn undo_all(&mut self, tokens: &mut Vec<Undo<Self>>) {
        while let Some(token) = tokens.pop() {
            self.undo(token);
        }
    }
}

/// A wrapper that plays exactly like the game it wraps.
///
/// No search reads it: every game now restores by copy, so the wrapper
/// hides nothing. It is kept because the perf ledger still names it
/// (`core.search.playout_snapshot_per_s`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotOnly<G>(pub G);

impl<G: Game> Game for SnapshotOnly<G> {
    type Move = G::Move;

    fn legal_moves(&self, out: &mut Vec<Self::Move>) {
        self.0.legal_moves(out);
    }

    fn play(&mut self, mv: &Self::Move) {
        self.0.play(mv);
    }

    fn score(&self) -> Score {
        self.0.score()
    }

    fn moves_played(&self) -> usize {
        self.0.moves_played()
    }

    fn is_terminal(&self) -> bool {
        self.0.is_terminal()
    }

    // The position is the inner game's position, so its hash passes
    // through.
    fn state_hash(&self) -> u64 {
        self.0.state_hash()
    }
}

impl<G: crate::nrpa::CodedGame> crate::nrpa::CodedGame for SnapshotOnly<G> {
    fn move_code(&self, mv: &Self::Move) -> u64 {
        self.0.move_code(mv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal game used to exercise the default `is_terminal`.
    #[derive(Clone)]
    struct Countdown(u32);

    impl Game for Countdown {
        type Move = ();
        fn legal_moves(&self, out: &mut Vec<()>) {
            if self.0 > 0 {
                out.push(());
            }
        }
        fn play(&mut self, _: &()) {
            self.0 -= 1;
        }
        fn score(&self) -> Score {
            -(self.0 as Score)
        }
        fn moves_played(&self) -> usize {
            0
        }
    }

    #[test]
    fn default_is_terminal_matches_move_list() {
        assert!(!Countdown(2).is_terminal());
        assert!(Countdown(0).is_terminal());
    }

    #[test]
    fn default_apply_undo_round_trips_via_snapshot() {
        let mut g = Countdown(3);
        assert!(!g.supports_undo());
        let token = g.apply(&());
        assert_eq!(g.0, 2);
        g.undo(token);
        assert_eq!(g.0, 3);
    }

    #[test]
    fn default_legal_moves_into_clears_the_buffer() {
        let g = Countdown(1);
        let mut buf = vec![(), (), ()];
        g.legal_moves_into(&mut buf);
        assert_eq!(buf.len(), 1);
        Countdown(0).legal_moves_into(&mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn snapshot_only_hides_nothing_but_the_fast_path() {
        let mut wrapped = SnapshotOnly(Countdown(2));
        assert!(!wrapped.supports_undo());
        assert!(!wrapped.is_terminal());
        let t = wrapped.apply(&());
        assert_eq!(wrapped.0 .0, 1);
        wrapped.undo(t);
        assert_eq!(wrapped.0 .0, 2);
    }

    #[test]
    fn mix64_avalanches_and_is_stable() {
        // The zero fixed point is pinned: every salt in the workspace is
        // non-zero precisely because mix64(0) == 0.
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // One-bit input flips change roughly half the output bits.
        let d = (mix64(7) ^ mix64(6)).count_ones();
        assert!((16..=48).contains(&d), "poor avalanche: {d} bits");
    }

    #[test]
    fn default_state_hash_tracks_the_observable_surface() {
        let a = Countdown(3);
        let b = Countdown(3);
        assert_eq!(a.state_hash(), b.state_hash());
        let mut c = Countdown(3);
        c.play(&());
        assert_ne!(a.state_hash(), c.state_hash(), "score changed");
        // SnapshotOnly hashes like the game it wraps.
        assert_eq!(SnapshotOnly(Countdown(3)).state_hash(), a.state_hash());
    }

    #[test]
    fn playing_to_the_end_terminates() {
        let mut g = Countdown(5);
        let mut buf = Vec::new();
        let mut steps = 0;
        loop {
            buf.clear();
            g.legal_moves(&mut buf);
            let Some(mv) = buf.first().cloned() else {
                break;
            };
            g.play(&mv);
            steps += 1;
        }
        assert_eq!(steps, 5);
        assert_eq!(g.score(), 0);
    }
}
