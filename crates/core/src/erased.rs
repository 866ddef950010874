//! Object-safe erasure of the [`Game`] trait — the shim that lets
//! heterogeneous games share one queue (used by the `nmcs-engine`
//! service crate).
//!
//! [`Game`] itself is not object-safe: its associated `Move` type differs
//! per game, and the search functions are generic over it. The bridge is
//! the classic *index erasure*: an [`AnyGame`] presents its legal moves
//! as indices `0..n` into the position's legal-move list, and [`DynGame`]
//! wraps a boxed `AnyGame` back into a `Game` implementation whose move
//! type is `usize`.
//!
//! The crucial property is that the erasure is **search-transparent**:
//! for the same seed, a search over `DynGame::new(g)` draws exactly the
//! same random numbers and makes exactly the same decisions as the same
//! search over `g` directly, because at every reachable position the
//! index list and the move list are in bijection (same length, same
//! order). The returned `SearchResult<usize>` is the index-encoding of
//! the direct call's `SearchResult<G::Move>`; [`decode_result`] converts
//! between the two, and the engine's integration tests assert the
//! round-trip is bit-identical (scores, sequences, and stats).

use crate::game::{Game, Score};
use crate::nrpa::CodedGame;
use crate::report::SearchReport;
use crate::search::SearchResult;
use crate::spec::{CancelToken, SearchSpec, Searcher};
use std::any::Any;

/// Object-safe view of a game: moves are indices into the current
/// position's legal-move list (in `legal_moves` order).
pub trait AnyGame: Any + Send + Sync {
    /// Number of legal moves at the current position.
    fn legal_count(&self) -> usize;

    /// Plays the `i`-th legal move of the current position.
    ///
    /// `i` must be `< legal_count()`; implementations may panic
    /// otherwise.
    fn play_nth(&mut self, i: usize);

    /// Score of the current position (see [`Game::score`]).
    fn score(&self) -> Score;

    /// Moves played from the initial position (see
    /// [`Game::moves_played`]).
    fn moves_played(&self) -> usize;

    /// Stable NRPA move code of the `i`-th legal move (see
    /// [`CodedGame::move_code`]).
    fn move_code_nth(&self, i: usize) -> u64;

    /// The underlying game's [`Game::state_hash`] — the transposition
    /// key, passed through the erasure unchanged so an erased search
    /// interns exactly the keys the typed search would.
    fn state_hash(&self) -> u64;

    /// Clones the erased position.
    fn clone_any(&self) -> Box<dyn AnyGame>;

    /// Copies `source` into `self`, reusing `self`'s buffers, when both
    /// erase the same game type, and returns whether it did; otherwise
    /// leaves `self` as it was. [`DynGame`]'s `clone_from` calls it and
    /// falls back to `clone_any` on `false`.
    fn clone_from_any(&mut self, source: &dyn AnyGame) -> bool;
}

/// Where an erasure's move codes come from: `(game, move, index) → code`.
/// [`DynGame::new`] reads the game's true [`CodedGame::move_code`], so
/// NRPA over the erased game learns exactly the policy it would learn
/// over the typed game; [`DynGame::new_uncoded`] uses the index itself —
/// NRPA still runs, but its policy keys on positions' move slots rather
/// than stable move identity (fine for algorithms that ignore codes:
/// NMCS, UCT, flat MC).
type CodeSource<G> = fn(&G, &<G as Game>::Move, usize) -> u64;

/// The erasure of a game. The current legal-move list is cached eagerly
/// (filled at construction, refreshed after every move), so indexed
/// accessors are O(1) and an erased search performs exactly one move
/// generation per step — the same as the typed search it mirrors.
struct Erased<G: Game> {
    game: G,
    moves: Vec<G::Move>,
    code: CodeSource<G>,
}

impl<G: Game> Erased<G> {
    fn refresh_moves(&mut self) {
        self.moves.clear();
        self.game.legal_moves(&mut self.moves);
    }
}

impl<G: Game + Send + Sync + 'static> AnyGame for Erased<G>
where
    G::Move: Send + Sync,
{
    fn legal_count(&self) -> usize {
        self.moves.len()
    }

    fn play_nth(&mut self, i: usize) {
        let mv = self.moves[i].clone();
        self.game.play(&mv);
        self.refresh_moves();
    }

    fn score(&self) -> Score {
        self.game.score()
    }

    fn moves_played(&self) -> usize {
        self.game.moves_played()
    }

    fn move_code_nth(&self, i: usize) -> u64 {
        (self.code)(&self.game, &self.moves[i], i)
    }

    fn state_hash(&self) -> u64 {
        self.game.state_hash()
    }

    fn clone_any(&self) -> Box<dyn AnyGame> {
        Box::new(Erased {
            game: self.game.clone(),
            moves: self.moves.clone(),
            code: self.code,
        })
    }

    fn clone_from_any(&mut self, source: &dyn AnyGame) -> bool {
        let Some(source) = (source as &dyn Any).downcast_ref::<Self>() else {
            return false;
        };
        self.game.clone_from(&source.game);
        self.moves.clone_from(&source.moves);
        self.code = source.code;
        true
    }
}

/// A boxed erased game that itself implements [`Game`] (with
/// `Move = usize`) and [`CodedGame`], so every search in this crate runs
/// on it unchanged.
pub struct DynGame {
    inner: Box<dyn AnyGame>,
    /// The erased game's concrete type name (last path segment) —
    /// survives erasure so observability layers can key per-domain
    /// metrics without downcasting.
    domain: &'static str,
}

/// Last path segment of a `std::any::type_name`, generics stripped —
/// `nmcs_games::samegame::SameGame` → `SameGame`.
fn domain_label<G: 'static>() -> &'static str {
    let full = std::any::type_name::<G>();
    let base = full.split('<').next().unwrap_or(full);
    base.rsplit("::").next().unwrap_or(base)
}

impl DynGame {
    fn erase<G: Game + Send + Sync + 'static>(game: G, code: CodeSource<G>) -> Self
    where
        G::Move: Send + Sync,
    {
        let mut erased = Erased {
            game,
            moves: Vec::new(),
            code,
        };
        erased.refresh_moves();
        DynGame {
            inner: Box::new(erased),
            domain: domain_label::<G>(),
        }
    }

    /// Erases a coded game; NRPA keeps its true move codes.
    pub fn new<G: CodedGame + Send + Sync + 'static>(game: G) -> Self
    where
        G::Move: Send + Sync,
    {
        Self::erase(game, |game, mv, _| game.move_code(mv))
    }

    /// Erases a plain game; NRPA falls back to positional move codes.
    pub fn new_uncoded<G: Game + Send + Sync + 'static>(game: G) -> Self
    where
        G::Move: Send + Sync,
    {
        Self::erase(game, |_, _, i| i as u64)
    }

    /// The concrete game type's short name (e.g. `"SameGame"`), kept
    /// through the erasure — the key the engine's per-domain latency
    /// histograms use.
    pub fn domain(&self) -> &'static str {
        self.domain
    }
}

impl Clone for DynGame {
    fn clone(&self) -> Self {
        DynGame {
            inner: self.inner.clone_any(),
            domain: self.domain,
        }
    }

    /// Copies in place when both sides erase the same game type, so a
    /// search that copies an erased position at every mark allocates
    /// only what the typed game's own `clone_from` does.
    fn clone_from(&mut self, source: &Self) {
        if !self.inner.clone_from_any(&*source.inner) {
            self.inner = source.inner.clone_any();
        }
        self.domain = source.domain;
    }
}

impl std::fmt::Debug for DynGame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynGame")
            .field("moves_played", &self.inner.moves_played())
            .field("legal_count", &self.inner.legal_count())
            .field("score", &self.inner.score())
            .finish()
    }
}

impl Game for DynGame {
    type Move = usize;

    fn legal_moves(&self, out: &mut Vec<usize>) {
        out.extend(0..self.inner.legal_count());
    }

    fn play(&mut self, mv: &usize) {
        self.inner.play_nth(*mv);
    }

    fn score(&self) -> Score {
        self.inner.score()
    }

    fn moves_played(&self) -> usize {
        self.inner.moves_played()
    }

    fn is_terminal(&self) -> bool {
        self.inner.legal_count() == 0
    }

    fn state_hash(&self) -> u64 {
        self.inner.state_hash()
    }
}

impl CodedGame for DynGame {
    fn move_code(&self, mv: &usize) -> u64 {
        self.inner.move_code_nth(*mv)
    }
}

/// Replays an index sequence (as returned by a search over [`DynGame`])
/// against the *typed* root position, recovering the typed move
/// sequence.
///
/// Panics if an index is out of range for the position it applies to —
/// that would mean the sequence does not belong to this root.
pub fn decode_sequence<G: Game>(root: &G, indices: &[usize]) -> Vec<G::Move> {
    let mut pos = root.clone();
    let mut buf = Vec::new();
    let mut out = Vec::with_capacity(indices.len());
    for &i in indices {
        buf.clear();
        pos.legal_moves(&mut buf);
        let mv = buf.swap_remove(i);
        pos.play(&mv);
        out.push(mv);
    }
    out
}

/// Converts an index-encoded [`SearchResult`] into the typed result of
/// the equivalent direct search — score and stats are carried over
/// verbatim, the sequence is decoded against `root`.
pub fn decode_result<G: Game>(root: &G, result: &SearchResult<usize>) -> SearchResult<G::Move> {
    SearchResult {
        score: result.score,
        sequence: decode_sequence(root, &result.sequence),
        stats: result.stats,
    }
}

/// Converts an index-encoded [`SearchReport`] (from a search over
/// [`DynGame`]) into the typed report of the equivalent direct search;
/// everything but the sequence is carried over verbatim.
pub fn decode_report<G: Game>(root: &G, report: &SearchReport<usize>) -> SearchReport<G::Move> {
    SearchReport {
        score: report.score,
        sequence: decode_sequence(root, &report.sequence),
        stats: report.stats,
        elapsed: report.elapsed,
        client_jobs: report.client_jobs,
        interrupted: report.interrupted,
        seed: report.seed,
    }
}

/// Object-safe twin of [`Searcher`], closed over [`DynGame`]: the form a
/// heterogeneous service (the engine, a job queue, a registry of named
/// strategies) can box and store without knowing the concrete game type.
///
/// Because the erasure is search-transparent, `search_erased` over
/// `DynGame::new(g)` makes exactly the same decisions as the same
/// searcher over `g` directly; [`decode_report`] converts back.
pub trait AnySearcher: Send + Sync {
    /// Runs the strategy on an erased game (see [`Searcher::search`]).
    fn search_erased(&self, game: &DynGame, cancel: Option<&CancelToken>) -> SearchReport<usize>;

    /// Short label for logs and progress lines.
    fn label(&self) -> &'static str;
}

impl AnySearcher for SearchSpec {
    fn search_erased(&self, game: &DynGame, cancel: Option<&CancelToken>) -> SearchReport<usize> {
        self.search(game, cancel)
    }

    fn label(&self) -> &'static str {
        self.algorithm.label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::search::{nested_with, sample, NestedConfig};

    /// Small deterministic test game: pick digits, score favours large
    /// digits early (same shape as the Trap game in `search`).
    #[derive(Clone, Debug)]
    struct Digits {
        taken: Vec<u8>,
        depth: usize,
    }

    impl Game for Digits {
        type Move = u8;
        fn legal_moves(&self, out: &mut Vec<u8>) {
            if self.taken.len() < self.depth {
                out.extend_from_slice(&[0, 1, 2]);
            }
        }
        fn play(&mut self, mv: &u8) {
            self.taken.push(*mv);
        }
        fn score(&self) -> Score {
            self.taken.iter().fold(0, |acc, &m| acc * 3 + m as Score)
        }
        fn moves_played(&self) -> usize {
            self.taken.len()
        }
    }

    impl CodedGame for Digits {
        fn move_code(&self, mv: &u8) -> u64 {
            *mv as u64
        }
    }

    fn digits() -> Digits {
        Digits {
            taken: Vec::new(),
            depth: 4,
        }
    }

    #[test]
    fn erased_sample_matches_typed_sample() {
        let typed = sample(&digits(), &mut Rng::seeded(9));
        let erased = sample(&DynGame::new(digits()), &mut Rng::seeded(9));
        assert_eq!(erased.score, typed.score);
        assert_eq!(erased.stats, typed.stats);
        assert_eq!(decode_sequence(&digits(), &erased.sequence), typed.sequence);
    }

    #[test]
    fn erased_nested_is_bit_identical_after_decoding() {
        for seed in 0..10 {
            for level in 0..3 {
                let cfg = NestedConfig::paper();
                let typed = SearchResult::unbounded(|ctx| {
                    nested_with(&digits(), level, &cfg, &mut Rng::seeded(seed), ctx)
                });
                let erased = SearchResult::unbounded(|ctx| {
                    nested_with(
                        &DynGame::new(digits()),
                        level,
                        &cfg,
                        &mut Rng::seeded(seed),
                        ctx,
                    )
                });
                let decoded = decode_result(&digits(), &erased);
                assert_eq!(decoded, typed, "seed {seed} level {level}");
            }
        }
    }

    #[test]
    fn erased_game_reports_consistent_state() {
        let mut g = DynGame::new(digits());
        assert!(!g.is_terminal());
        assert_eq!(g.moves_played(), 0);
        let mut buf = Vec::new();
        g.legal_moves(&mut buf);
        assert_eq!(buf, vec![0, 1, 2]);
        assert_eq!(g.move_code(&2), 2);
        g.play(&2);
        assert_eq!(g.moves_played(), 1);
        assert_eq!(g.score(), 2);
    }

    #[test]
    fn state_hash_passes_through_the_erasure() {
        let typed = digits();
        let mut erased = DynGame::new(digits());
        assert_eq!(erased.state_hash(), typed.state_hash());
        let mut t2 = digits();
        t2.play(&1);
        erased.play(&1);
        assert_eq!(erased.state_hash(), t2.state_hash());
        // A copy keeps the key.
        let mut copy = DynGame::new(digits());
        copy.clone_from(&erased);
        assert_eq!(copy.state_hash(), erased.state_hash());
    }

    #[test]
    fn uncoded_erasure_uses_positional_codes() {
        let g = DynGame::new_uncoded(digits());
        assert_eq!(g.move_code(&0), 0);
        assert_eq!(g.move_code(&2), 2);
    }

    #[test]
    fn decode_sequence_replays_against_root() {
        let erased = DynGame::new(digits());
        let r = SearchResult::unbounded(|ctx| {
            nested_with(&erased, 1, &NestedConfig::paper(), &mut Rng::seeded(4), ctx)
        });
        let typed_seq = decode_sequence(&digits(), &r.sequence);
        let mut replay = digits();
        for mv in &typed_seq {
            replay.play(mv);
        }
        assert_eq!(replay.score(), r.score);
    }
}
