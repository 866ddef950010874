//! The paper's §III: random sampling and Nested Monte-Carlo Search.
//!
//! Two entry points:
//!
//! * [`sample`] — "the basic sample function just plays a random game from
//!   a given position" and returns its score (and the sequence it played).
//! * [`nested_with`] — "the nested rollout function plays a game, choosing
//!   at each step of the game the move that has the highest score of the
//!   lower level nested rollout", with the *memorised best sequence*
//!   behaviour of the paper's pseudocode (lines 7–11): whenever a
//!   lower-level evaluation beats the best score seen so far in this call,
//!   the whole continuation is memorised, and the game always advances
//!   along the memorised sequence.
//!
//! The memorisation matters: at high levels most per-step evaluations fail
//! to beat the incumbent, and without the memory the search would discard
//! the good continuation it has already paid to discover. The
//! [`MemoryPolicy::Greedy`] variant reproduces the *parallel* pseudocode of
//! §IV, which plays the per-step argmax without cross-step memory — the
//! difference is measured by an ablation benchmark.
//!
//! The preferred front door is [`crate::spec::SearchSpec`]
//! (`SearchSpec::nested(2).seed(42).run(&game)`), which adds budgets and
//! cancellation on top of the raw functions here. Every loop in this
//! module polls a [`SearchCtx`] so deadlines, playout/node budgets, and
//! cancel tokens are honoured identically across all backends; the polls
//! never touch the RNG, so an unbudgeted run through the spec is
//! bit-identical to a direct call under [`SearchCtx::unbounded`].

use crate::ctx::SearchCtx;
use crate::game::{Game, Score, Undo};
use crate::rng::Rng;
use crate::stats::SearchStats;
use serde::{Deserialize, Serialize};

/// Reusable buffers for the allocation-free playout core.
///
/// A playout needs a legal-move buffer (and [`PlayoutScratch::run_undo`]
/// a stack of undo tokens); keeping them in one value lets a search run
/// thousands of playouts without touching the allocator after warm-up.
pub struct PlayoutScratch<G: Game> {
    moves: Vec<G::Move>,
    undos: Vec<Undo<G>>,
}

impl<G: Game> Default for PlayoutScratch<G> {
    fn default() -> Self {
        Self::new()
    }
}

impl<G: Game> PlayoutScratch<G> {
    pub fn new() -> Self {
        PlayoutScratch {
            moves: Vec::new(),
            undos: Vec::new(),
        }
    }

    /// Plays a uniformly random game forward on a *disposable* position
    /// (mutating it to the terminal position), appending the moves played
    /// to `seq`, and returns the final score. This is the one random
    /// playout loop; [`sample`], level-0 [`nested_with`] and every walker
    /// rollout sit on top of it. Each step is one [`Game::play_random`].
    ///
    /// `cap` stops the playout after that many moves (`None` plays to
    /// the end). No search passes anything but `None`: it stays only
    /// because the perf ledger passes it by position.
    ///
    /// Budget/cancellation polls go through `ctx` — one check per playout
    /// move, the shared choke point every backend's playouts pass through.
    pub fn run(
        &mut self,
        game: &mut G,
        rng: &mut Rng,
        cap: Option<usize>,
        seq: &mut Vec<G::Move>,
        ctx: &mut SearchCtx,
    ) -> Score {
        let mut steps = 0usize;
        loop {
            if let Some(c) = cap {
                if steps >= c {
                    break;
                }
            }
            if ctx.should_stop() {
                break;
            }
            let Some(mv) = game.play_random(rng, &mut self.moves) else {
                break;
            };
            seq.push(mv);
            ctx.record_playout_move();
            steps += 1;
        }
        ctx.record_playout_end();
        game.score()
    }

    /// Like [`PlayoutScratch::run`], but plays with [`Game::apply`] and
    /// restores `game` to its entry state with [`Game::undo_all`] before
    /// returning, paying one snapshot per move.
    ///
    /// No search calls it: they restore by copy. Kept, with its `cap`,
    /// because the perf ledger still names it.
    pub fn run_undo(
        &mut self,
        game: &mut G,
        rng: &mut Rng,
        cap: Option<usize>,
        seq: &mut Vec<G::Move>,
        ctx: &mut SearchCtx,
    ) -> Score {
        debug_assert!(self.undos.is_empty(), "re-entrant playout");
        let mut steps = 0usize;
        loop {
            if let Some(c) = cap {
                if steps >= c {
                    break;
                }
            }
            if ctx.should_stop() {
                break;
            }
            game.legal_moves_into(&mut self.moves);
            if self.moves.is_empty() {
                break;
            }
            let mv = self.moves.swap_remove(rng.below(self.moves.len()));
            self.undos.push(game.apply(&mv));
            seq.push(mv);
            ctx.record_playout_move();
            steps += 1;
        }
        ctx.record_playout_end();
        let score = game.score();
        game.undo_all(&mut self.undos);
        score
    }
}

/// A position a search walks forward and gets back.
///
/// Every algorithm body is written once against this type. The position
/// is copied at each [`Walker::mark`] and [`Walker::rewind`] swaps the
/// copy back — one copy per mark, so one per candidate evaluation, never
/// one per playout move. The copies live in one slot per mark depth:
/// `mark` copies into its slot with [`Clone::clone_from`], and `rewind`
/// leaves the position it swapped out in the slot, so a game whose
/// `clone_from` reuses its buffers is walked without allocating.
///
/// Search bodies *advance* the walker and leave it advanced; whoever
/// wants the earlier position back takes a mark first and rewinds to it.
pub(crate) struct Walker<G: Game> {
    pos: G,
    /// `saved[..depth]` is the position as it stood at each mark not yet
    /// rewound; the slots past `depth` hold positions rewound away, kept
    /// for their buffers.
    saved: Vec<G>,
    depth: usize,
    playout: PlayoutScratch<G>,
}

/// A point [`Walker::rewind`] can return to. Marks nest: rewinding to one
/// drops every mark taken after it.
pub(crate) struct Mark(usize);

impl<G: Game> Walker<G> {
    /// A walker standing on a copy of `root`.
    pub(crate) fn new(root: &G) -> Self {
        Walker {
            pos: root.clone(),
            saved: Vec::new(),
            depth: 0,
            playout: PlayoutScratch::new(),
        }
    }

    /// The current position.
    pub(crate) fn position(&self) -> &G {
        &self.pos
    }

    /// Remembers the current position for a later [`Walker::rewind`].
    pub(crate) fn mark(&mut self) -> Mark {
        match self.saved.get_mut(self.depth) {
            Some(slot) => slot.clone_from(&self.pos),
            None => self.saved.push(self.pos.clone()),
        }
        self.depth += 1;
        Mark(self.depth - 1)
    }

    /// Stands the walker on `root` again and drops every mark: one
    /// `clone_from` into the kept position.
    pub(crate) fn reset(&mut self, root: &G) {
        self.pos.clone_from(root);
        self.depth = 0;
    }

    /// Plays `mv`, which must be legal in the current position.
    pub(crate) fn play(&mut self, mv: &G::Move) {
        self.pos.play(mv);
    }

    /// Returns to the position `mark` was taken at.
    pub(crate) fn rewind(&mut self, mark: Mark) {
        assert!(mark.0 < self.depth, "rewind to a mark that was taken");
        self.depth = mark.0;
        std::mem::swap(&mut self.pos, &mut self.saved[mark.0]);
    }

    /// Plays one uniformly random game from the current position,
    /// appending its moves to `seq`, and returns the final score. The
    /// position stands at the end of the playout until the next
    /// [`Walker::rewind`] restores it from the mark's copy.
    pub(crate) fn rollout(
        &mut self,
        rng: &mut Rng,
        seq: &mut Vec<G::Move>,
        ctx: &mut SearchCtx,
    ) -> Score {
        self.playout.run(&mut self.pos, rng, None, seq, ctx)
    }
}

/// Per-recursion-level buffers of the nested search; one set exists per
/// level because exactly one call per level is active at a time.
struct LevelBufs<G: Game> {
    moves: Vec<G::Move>,
    seq: Vec<G::Move>,
}

impl<G: Game> Default for LevelBufs<G> {
    fn default() -> Self {
        LevelBufs {
            moves: Vec::new(),
            seq: Vec::new(),
        }
    }
}

/// The one evaluation body, on kept buffers: a walker (which owns the
/// playout scratch), the per-level buffers of a nested search, and the
/// sequence the last search played. [`nested_with`], [`evaluate_moves`]
/// and every client and leaf job of the parallel executors run through
/// it, so once warm an evaluation costs one `clone_from` and no
/// allocation.
pub(crate) struct Evaluator<G: Game> {
    walker: Walker<G>,
    /// Indexed by level − 1; grown to the deepest level searched.
    levels: Vec<LevelBufs<G>>,
    seq: Vec<G::Move>,
}

impl<G: Game> Evaluator<G> {
    /// An evaluator standing on a copy of `root`.
    pub(crate) fn new(root: &G) -> Self {
        Evaluator {
            walker: Walker::new(root),
            levels: Vec::new(),
            seq: Vec::new(),
        }
    }

    /// Scores `mv` played from `pos` with a `level` search.
    pub(crate) fn eval(
        &mut self,
        pos: &G,
        mv: &G::Move,
        level: u32,
        config: &NestedConfig,
        rng: &mut Rng,
        ctx: &mut SearchCtx,
    ) -> Score {
        self.walker.reset(pos);
        self.walker.play(mv);
        self.search(level, config, rng, ctx)
    }

    /// A `level` search from the walker's position: one random playout
    /// at level 0, a nested rollout above. Leaves the sequence it played
    /// in `self.seq`.
    fn search(
        &mut self,
        level: u32,
        config: &NestedConfig,
        rng: &mut Rng,
        ctx: &mut SearchCtx,
    ) -> Score {
        self.seq.clear();
        if level == 0 {
            return self.walker.rollout(rng, &mut self.seq, ctx);
        }
        if self.levels.len() < level as usize {
            self.levels.resize_with(level as usize, LevelBufs::default);
        }
        nested_rollout(
            &mut self.walker,
            level,
            config,
            rng,
            ctx,
            &mut self.levels,
            &mut self.seq,
        )
    }
}

/// Outcome of a search: the best score found and the move sequence that
/// realises it (from the position the search was called on).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult<M> {
    /// Best score found.
    pub score: Score,
    /// Moves realising `score`, in play order from the root position.
    pub sequence: Vec<M>,
    /// Instrumentation counters for this call (including sub-searches).
    pub stats: SearchStats,
}

impl<M> SearchResult<M> {
    /// Runs `search` under an unbounded [`SearchCtx`] and packages the
    /// `(score, sequence)` it returns with the context's counters — for
    /// callers that thread one RNG through a series of direct `*_with`
    /// calls instead of going through a `SearchSpec`:
    /// `SearchResult::unbounded(|ctx| nested_with(&game, 1, &config, &mut rng, ctx))`.
    pub fn unbounded(search: impl FnOnce(&mut SearchCtx) -> (Score, Vec<M>)) -> Self {
        let mut ctx = SearchCtx::unbounded();
        let (score, sequence) = search(&mut ctx);
        SearchResult {
            score,
            sequence,
            stats: ctx.into_stats(),
        }
    }
}

/// How [`nested_with`] advances its game between steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum MemoryPolicy {
    /// Follow the globally best sequence found so far in this call
    /// (sequential pseudocode, §III lines 7–11). The default.
    #[default]
    Memorise,
    /// Play the best move of the *current* step only (parallel pseudocode,
    /// §IV: root and median processes play "the move with best score").
    Greedy,
}

/// Tunables for [`nested_with`]. Playouts always run to the end of the
/// game.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct NestedConfig {
    /// Cross-step memory policy.
    pub memory: MemoryPolicy,
}

impl NestedConfig {
    /// Paper-faithful configuration (memorised sequence).
    pub fn paper() -> Self {
        Self::default()
    }

    /// Greedy per-step configuration matching the parallel pseudocode.
    pub fn greedy() -> Self {
        Self {
            memory: MemoryPolicy::Greedy,
        }
    }
}

/// Plays a uniformly random game from a copy of `game` and returns the
/// result — the paper's `sample` function: a level-0 [`nested_with`]
/// under no budget.
pub fn sample<G: Game>(game: &G, rng: &mut Rng) -> SearchResult<G::Move> {
    SearchResult::unbounded(|ctx| nested_with(game, 0, &NestedConfig::paper(), rng, ctx))
}

/// Nested Monte-Carlo Search at `level` from `game`, accounting into (and
/// honouring the budget/cancellation of) `ctx`.
///
/// * `level == 0` degenerates to a single random playout (useful as a
///   baseline; the paper starts at level 1).
/// * `level == 1` evaluates each candidate move with one random playout.
/// * `level >= 2` evaluates each candidate move with a `level - 1` search.
///
/// Returns the best score found and the full move sequence realising it.
/// With [`MemoryPolicy::Memorise`] the returned score equals the score of
/// the position reached by replaying the returned sequence.
///
/// This is the engine room behind `SearchSpec::run` for the `Nested`
/// strategy and behind the parallel backends' client evaluations. If the
/// context interrupts the search, the returned pair is still consistent:
/// the score is realised by replaying the returned sequence (the
/// memorising policy fast-forwards its memorised continuation without
/// further evaluations before returning).
pub fn nested_with<G: Game>(
    game: &G,
    level: u32,
    config: &NestedConfig,
    rng: &mut Rng,
    ctx: &mut SearchCtx,
) -> (Score, Vec<G::Move>) {
    let mut eval = Evaluator::new(game);
    let score = eval.search(level, config, rng, ctx);
    (score, eval.seq)
}

/// The paper's nested rollout (§III) at `level >= 1`, played on `walker`.
///
/// Each candidate move is evaluated between a mark and a rewind: played,
/// scored (by a random playout at level 1, by a recursive call at level
/// ≥ 2), and taken back. The game then advances along the memorised best
/// sequence. The walker is left at the end of the line this call played;
/// the caller rewinds if it wants its position back. The line it played
/// is left in `best_seq`, whose old contents are dropped.
fn nested_rollout<G: Game>(
    walker: &mut Walker<G>,
    level: u32,
    config: &NestedConfig,
    rng: &mut Rng,
    ctx: &mut SearchCtx,
    scratch: &mut [LevelBufs<G>],
    best_seq: &mut Vec<G::Move>,
) -> Score {
    debug_assert!(level >= 1);
    let mut bufs = std::mem::take(&mut scratch[level as usize - 1]);
    // `best_seq[..played]` is the prefix already played by this call;
    // `best_seq[played..]` is the memorised best continuation.
    best_seq.clear();
    let mut played = 0usize;
    let mut best_score = Score::MIN;

    loop {
        walker.position().legal_moves_into(&mut bufs.moves);
        if bufs.moves.is_empty() {
            break;
        }
        if ctx.should_stop() {
            break;
        }

        let mut step_best: Option<(Score, usize)> = None;
        for i in 0..bufs.moves.len() {
            // Once interrupted, no new evaluations may start; the ones
            // already finished stay incorporated in the memory.
            if ctx.should_stop() {
                break;
            }
            let mark = walker.mark();
            walker.play(&bufs.moves[i]);
            ctx.record_expansion();

            let score = if level == 1 {
                bufs.seq.clear();
                walker.rollout(rng, &mut bufs.seq, ctx)
            } else {
                nested_rollout(walker, level - 1, config, rng, ctx, scratch, &mut bufs.seq)
            };
            walker.rewind(mark);

            // Track the best move of *this step* (for the greedy policy) …
            if step_best.is_none_or(|(s, _)| score > s) {
                step_best = Some((score, i));
            }
            // … and the best sequence of the *whole call* (paper lines 7–9).
            if score > best_score {
                best_score = score;
                best_seq.truncate(played);
                best_seq.push(bufs.moves[i].clone());
                best_seq.extend(bufs.seq.iter().cloned());
            }
        }
        if ctx.interruption().is_some() {
            break;
        }

        // Paper lines 10–11: play the next move of the memorised best
        // sequence, which runs to the end of the game; the greedy policy
        // plays this step's argmax instead.
        let next = if config.memory == MemoryPolicy::Memorise {
            best_seq[played].clone()
        } else {
            let (_, idx) = step_best.expect("non-empty move list");
            let mv = bufs.moves[idx].clone();
            // Keep best_seq aligned with the actually-played prefix; the
            // incumbent continuation (if any) is abandoned.
            if best_seq.len() <= played || best_seq[played] != mv {
                best_seq.truncate(played);
                best_seq.push(mv.clone());
                best_score = Score::MIN;
            }
            mv
        };
        walker.play(&next);
        played += 1;
        ctx.record_nested_move();
    }

    // Interrupted with a memorised continuation pending: fast-forward it
    // with plain move applications (no further evaluations, no RNG), so
    // the returned score is realised by the returned sequence exactly as
    // in an uninterrupted run.
    if ctx.interruption().is_some() && config.memory == MemoryPolicy::Memorise {
        while played < best_seq.len() {
            walker.play(&best_seq[played]);
            played += 1;
            ctx.record_nested_move();
        }
    }

    let final_score = walker.position().score();
    if played > 0 && config.memory == MemoryPolicy::Memorise && ctx.interruption().is_none() {
        debug_assert_eq!(
            best_score, final_score,
            "memorised sequence must reach the memorised score"
        );
        debug_assert_eq!(played, best_seq.len());
    }
    // The game was advanced along `best_seq[..played]`, so the score and
    // the line left in `best_seq` agree by construction under every policy.
    best_seq.truncate(played);
    scratch[level as usize - 1] = bufs;
    final_score
}

/// Evaluates every legal move of `game` with a `level`-search and returns
/// `(move, result)` pairs in move-list order.
///
/// This is the decomposition point the parallel algorithms exploit: the
/// root process farms one entry per move to the median processes, and each
/// median farms its own entries to clients (paper §IV). Keeping it here
/// lets the parallel crates and the sequential search share evaluation
/// semantics (including seed derivation order).
pub fn evaluate_moves<G: Game>(
    game: &G,
    level: u32,
    config: &NestedConfig,
    seeds: impl Fn(usize) -> u64,
) -> Vec<(G::Move, SearchResult<G::Move>)> {
    let mut moves = Vec::new();
    game.legal_moves(&mut moves);
    let mut eval = Evaluator::new(game);
    moves
        .into_iter()
        .enumerate()
        .map(|(i, mv)| {
            let mut rng = Rng::seeded(seeds(i));
            let result = SearchResult::unbounded(|ctx| {
                let score = eval.eval(game, &mv, level, config, &mut rng, ctx);
                (score, eval.seq.clone())
            });
            (mv, result)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Binary-decision toy game with a unique optimal line: at each of
    /// `depth` steps choose 0 or 1; the score is the number of 1s, but a 1
    /// is only counted when all earlier choices were 1 too. Greedy per-step
    /// play and random play both solve it; it sanity-checks plumbing.
    #[derive(Clone, Debug)]
    struct AllOnes {
        depth: usize,
        taken: Vec<u8>,
    }

    impl Game for AllOnes {
        type Move = u8;
        fn legal_moves(&self, out: &mut Vec<u8>) {
            if self.taken.len() < self.depth {
                out.extend_from_slice(&[0, 1]);
            }
        }
        fn play(&mut self, mv: &u8) {
            self.taken.push(*mv);
        }
        fn score(&self) -> Score {
            let mut s = 0;
            for &m in &self.taken {
                if m == 1 {
                    s += 1;
                } else {
                    break;
                }
            }
            s
        }
        fn moves_played(&self) -> usize {
            self.taken.len()
        }
    }

    /// A trap game where per-step greedy evaluation backed by a *single*
    /// random playout is unreliable, but memorising the best full sequence
    /// guarantees the returned score is achieved by the returned sequence.
    #[derive(Clone, Debug)]
    struct Trap {
        taken: Vec<u8>,
    }

    impl Game for Trap {
        type Move = u8;
        fn legal_moves(&self, out: &mut Vec<u8>) {
            if self.taken.len() < 3 {
                out.extend_from_slice(&[0, 1, 2]);
            }
        }
        fn play(&mut self, mv: &u8) {
            self.taken.push(*mv);
        }
        fn score(&self) -> Score {
            // Base-3 reading of the path; unique maximum at [2,2,2].
            self.taken.iter().fold(0, |acc, &m| acc * 3 + m as Score)
        }
        fn moves_played(&self) -> usize {
            self.taken.len()
        }
    }

    fn fresh(depth: usize) -> AllOnes {
        AllOnes {
            depth,
            taken: Vec::new(),
        }
    }

    #[test]
    fn copy_walker_rewinds_nested_marks_to_the_marked_positions() {
        let root = Trap { taken: vec![] };
        let mut walker = Walker::new(&root);
        // Twice, so the second round copies into the slots the first left.
        for round in 0..2 {
            let outer = walker.mark();
            walker.play(&0);
            let inner = walker.mark();
            walker.play(&1);
            assert_eq!(walker.position().taken, [0, 1], "round {round}");
            walker.rewind(inner);
            assert_eq!(walker.position().taken, [0], "round {round}: inner mark");
            walker.play(&2);
            assert_eq!(walker.position().taken, [0, 2], "round {round}");
            walker.rewind(outer);
            assert!(
                walker.position().taken.is_empty(),
                "round {round}: outer mark"
            );
        }
    }

    #[test]
    #[should_panic(expected = "rewind to a mark that was taken")]
    fn copy_walker_refuses_a_mark_it_never_took() {
        let mut walker = Walker::new(&Trap { taken: vec![] });
        // Leaves a slot behind, which must not make a later depth valid.
        let mark = walker.mark();
        walker.rewind(mark);
        walker.rewind(Mark(0));
    }

    #[test]
    fn run_undo_restores_the_position_and_matches_sample_into() {
        let root = Trap { taken: vec![] };
        let mut scratch = PlayoutScratch::new();
        for seed in 0..20 {
            let mut pos = root.clone();
            let mut seq = Vec::new();
            let mut ctx = SearchCtx::unbounded();
            let score =
                scratch.run_undo(&mut pos, &mut Rng::seeded(seed), None, &mut seq, &mut ctx);
            assert_eq!(pos.taken, root.taken, "seed {seed}: position restored");

            let sampled = sample(&root, &mut Rng::seeded(seed));
            assert_eq!(score, sampled.score, "seed {seed}");
            assert_eq!(seq, sampled.sequence, "seed {seed}");
            assert_eq!(*ctx.stats(), sampled.stats, "seed {seed}");
        }
    }

    #[test]
    fn sample_reaches_terminal_and_reports_consistent_sequence() {
        let g = fresh(6);
        let mut rng = Rng::seeded(1);
        let r = sample(&g, &mut rng);
        assert_eq!(r.sequence.len(), 6);
        assert_eq!(r.stats.playouts, 1);
        assert_eq!(r.stats.playout_moves, 6);
        // Replaying the sequence reproduces the score.
        let mut replay = fresh(6);
        for mv in &r.sequence {
            replay.play(mv);
        }
        assert_eq!(replay.score(), r.score);
    }

    #[test]
    fn nested_level1_solves_small_games() {
        let g = fresh(5);
        let mut rng = Rng::seeded(7);
        let r = SearchResult::unbounded(|ctx| {
            nested_with(&g, 1, &NestedConfig::paper(), &mut rng, ctx)
        });
        assert_eq!(r.score, 5, "level-1 NMCS should find the all-ones line");
        assert_eq!(r.sequence, vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn nested_level2_solves_trap_game() {
        let g = Trap { taken: vec![] };
        let mut rng = Rng::seeded(3);
        let r = SearchResult::unbounded(|ctx| {
            nested_with(&g, 2, &NestedConfig::paper(), &mut rng, ctx)
        });
        assert_eq!(r.score, 26, "optimum is [2,2,2] scoring 2*9+2*3+2");
        assert_eq!(r.sequence, vec![2, 2, 2]);
    }

    #[test]
    fn memorised_score_matches_replayed_sequence_on_every_seed() {
        for seed in 0..50 {
            let g = Trap { taken: vec![] };
            let mut rng = Rng::seeded(seed);
            let r = SearchResult::unbounded(|ctx| {
                nested_with(&g, 1, &NestedConfig::paper(), &mut rng, ctx)
            });
            let mut replay = Trap { taken: vec![] };
            for mv in &r.sequence {
                replay.play(mv);
            }
            assert_eq!(replay.score(), r.score, "seed {seed}");
        }
    }

    #[test]
    fn greedy_policy_returns_played_game_score() {
        for seed in 0..20 {
            let g = Trap { taken: vec![] };
            let mut rng = Rng::seeded(seed);
            let r = SearchResult::unbounded(|ctx| {
                nested_with(&g, 1, &NestedConfig::greedy(), &mut rng, ctx)
            });
            let mut replay = Trap { taken: vec![] };
            for mv in &r.sequence {
                replay.play(mv);
            }
            assert_eq!(replay.score(), r.score, "seed {seed}");
            assert_eq!(r.sequence.len(), 3);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = Trap { taken: vec![] };
        let a = SearchResult::unbounded(|ctx| {
            nested_with(&g, 2, &NestedConfig::paper(), &mut Rng::seeded(11), ctx)
        });
        let b = SearchResult::unbounded(|ctx| {
            nested_with(&g, 2, &NestedConfig::paper(), &mut Rng::seeded(11), ctx)
        });
        assert_eq!(a.score, b.score);
        assert_eq!(a.sequence, b.sequence);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn level0_is_a_single_playout() {
        let g = fresh(4);
        let r = SearchResult::unbounded(|ctx| {
            nested_with(&g, 0, &NestedConfig::paper(), &mut Rng::seeded(5), ctx)
        });
        assert_eq!(r.stats.playouts, 1);
        assert_eq!(r.sequence.len(), 4);
    }

    #[test]
    fn nested_on_terminal_position_returns_empty_sequence() {
        let g = fresh(0);
        let r = SearchResult::unbounded(|ctx| {
            nested_with(&g, 2, &NestedConfig::paper(), &mut Rng::seeded(1), ctx)
        });
        assert_eq!(r.score, 0);
        assert!(r.sequence.is_empty());
    }

    #[test]
    fn higher_level_never_worse_on_average() {
        // NMCS's defining property: level k+1 amplifies level k. On the
        // trap game, average over seeds must improve (strictly, here).
        let avg = |level: u32| -> f64 {
            (0..40)
                .map(|seed| {
                    let g = Trap { taken: vec![] };
                    SearchResult::unbounded(|ctx| {
                        nested_with(
                            &g,
                            level,
                            &NestedConfig::paper(),
                            &mut Rng::seeded(seed),
                            ctx,
                        )
                    })
                    .score as f64
                })
                .sum::<f64>()
                / 40.0
        };
        let l0 = avg(0);
        let l1 = avg(1);
        let l2 = avg(2);
        assert!(l1 > l0, "level1 {l1} should beat level0 {l0}");
        assert!(l2 >= l1, "level2 {l2} should not be worse than level1 {l1}");
        assert_eq!(l2, 26.0, "level 2 solves the 27-leaf trap exactly");
    }

    #[test]
    fn evaluate_moves_orders_and_seeds_deterministically() {
        let g = Trap { taken: vec![] };
        let seeds = |i: usize| 1000 + i as u64;
        let a = evaluate_moves(&g, 1, &NestedConfig::paper(), seeds);
        let b = evaluate_moves(&g, 1, &NestedConfig::paper(), seeds);
        assert_eq!(a.len(), 3);
        for ((ma, ra), (mb, rb)) in a.iter().zip(b.iter()) {
            assert_eq!(ma, mb);
            assert_eq!(ra.score, rb.score);
            assert_eq!(ra.sequence, rb.sequence);
        }
        // Moves come back in legal_moves order.
        assert_eq!(a[0].0, 0);
        assert_eq!(a[1].0, 1);
        assert_eq!(a[2].0, 2);
    }

    #[test]
    fn evaluate_moves_level0_uses_single_playouts() {
        let g = Trap { taken: vec![] };
        let evals = evaluate_moves(&g, 0, &NestedConfig::paper(), |i| i as u64);
        for (_, r) in &evals {
            assert_eq!(r.stats.playouts, 1);
        }
    }

    #[test]
    fn stats_accumulate_across_recursion() {
        let g = Trap { taken: vec![] };
        let r = SearchResult::unbounded(|ctx| {
            nested_with(&g, 2, &NestedConfig::paper(), &mut Rng::seeded(4), ctx)
        });
        // Level 2 over a 3-ary depth-3 game: 3 steps at top; each expansion
        // triggers a level-1 search. There must be strictly more playouts
        // than top-level expansions.
        assert!(r.stats.playouts > r.stats.expansions / 2);
        assert!(r.stats.work_units >= r.stats.playout_moves + r.stats.nested_moves);
    }
}
