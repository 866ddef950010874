//! Single-agent UCT — the Monte-Carlo tree search the paper's related
//! work parallelises (§II cites four parallel-MCTS papers).
//!
//! NMCS and UCT are the two families of Monte-Carlo search for
//! single-agent optimisation; the paper argues for nested rollouts on
//! problems "that have a large state space and no good heuristics".
//! This module provides the classic comparator: a UCT tree over the
//! maximisation game, with single-player adaptations:
//!
//! * rewards are normalised running averages of playout scores, plus a
//!   max-score memory per node (single-player UCT à la Schadd et al.:
//!   tracking the best playout matters more than the mean when only the
//!   best line counts);
//! * the final answer replays the best sequence *found during any
//!   playout*, not the visit-count path, matching how the NMCS results
//!   are scored.
//!
//! Every UCT search runs on one tree, the **arena** (`UctArena`): a few
//! flat vectors of nodes, one move pool and statistics cells. It serves
//! `uct` with reuse off ([`uct_with`], a fresh table-less arena per
//! search) and with reuse on (an arena with a transposition table,
//! one-shot or kept across a [`SearchSession`](crate::SearchSession)'s
//! steps and re-rooted under each committed move), and it serves
//! tree-parallel UCT ([`crate::spec::SearchSpec::tree_parallel`]) too.
//! It takes no lock and allocates nothing per expansion. Its descent
//! walks the tree, not the board: each selected edge only appends its
//! move to the descent's sequence, and a position plays the pending
//! moves when the descent needs one — to list a new node's moves, to
//! hash a new child, or to roll out. A node found terminal keeps its
//! score, so an iteration that ends on one runs no game code at all.
//!
//! The arena is a *master* in the shape Liu et al. give WU-UCT (*"Watch
//! the Unobserved: a simple approach to parallelizing Monte Carlo tree
//! search"*, 2020): it alone selects, expands and backs up, and rollouts
//! are all that run elsewhere. A search runs in **waves** of up to `w`
//! descents, one per *lane*:
//!
//! * the master selects the wave's descents one after another; each
//!   marks the cells on its path in flight, so later lanes of the wave
//!   see earlier ones, and [`StatsMode`] decides how selection reads the
//!   marks (a child whose first rollout is still in flight has no mean:
//!   WU-UCT gives it its parent's value, virtual loss the lower bound);
//! * lane `i` draws its shuffles and its rollout from its own stream,
//!   `Rng::seeded(tree_worker_seed(seed, i))`, and rolls out on its own
//!   position, which the master caught up with the descent's moves;
//! * the wave's rollouts run as one [`ExecutorPool::run_batch`], a
//!   rollout farm whose slots each lock only their own lane; then the
//!   backups and best-line offers run in lane order.
//!
//! Nothing depends on which thread ran which rollout, so a search is a
//! pure function of (game, spec, seed) at every width. `uct` is one
//! lane, and `tree_parallel(w)` is `w`; at one lane a wave is one
//! iteration, the rollout runs inline and, without a table, no cell is
//! ever marked, so `tree_parallel(1)` is `uct` bit for bit. A hit
//! playout budget stops every run at the same lane of the same wave:
//! a wave is never wider than the playouts left, so no rollout sees
//! another one trip the budget mid-playout. A node budget trips in the
//! master's descent, before the wave's rollouts start. Deadlines and
//! cancellation stay timing-dependent, as on every backend.
//!
//! The trade: select and backup are serial on the master. Rollouts are
//! what the farm spreads, so when they are cheap the master bounds
//! throughput — on 6×6 SameGame 0.83 of a cold search's iterations end
//! on a known terminal node and roll out nothing. Liu et al. aim WU-UCT
//! at expensive simulations; `leaf_parallel` and `root_parallel` cover
//! the cheap case.
//!
//! Debug builds check at the end of every search that no in-flight mark
//! is left and, on a table-less arena, that every node's child visits
//! add up to its own.

use crate::ctx::SearchCtx;
use crate::exec::pool::ExecutorPool;
use crate::game::{Game, Score};
use crate::rng::Rng;
use crate::search::{Mark, Walker};
use crate::seeds::tree_worker_seed;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// UCT tunables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UctConfig {
    /// Playout budget (tree iterations).
    pub iterations: usize,
    /// Exploration constant for the normalised-mean term.
    pub exploration: f64,
    /// Mixing weight of the node's best-seen score against its mean
    /// (single-player modification; `0` = plain UCT).
    pub max_bias: f64,
}

impl Default for UctConfig {
    fn default() -> Self {
        Self {
            iterations: 1_000,
            exploration: 0.4,
            max_bias: 0.5,
        }
    }
}

/// Visit counts below this have their `ln` cached (512 KiB at most).
const LN_TABLE_LEN: usize = 1 << 16;

/// `ln` of visit counts, for the exploration term of UCB. Each count is
/// computed once per table and then looked up, and the cached value is
/// the very `f64::ln` the formula would compute, so selection stays
/// bit-identical. One per arena.
#[derive(Default)]
struct LnTable(Vec<f64>);

impl LnTable {
    /// `ln(max(n, 1))`. Slots are filled on first use (NaN until then),
    /// so a warm tree whose root already has many visits does not pay
    /// for every count below them.
    fn ln(&mut self, n: u64) -> f64 {
        let fresh = || (n.max(1) as f64).ln();
        match usize::try_from(n) {
            Ok(k) if k < LN_TABLE_LEN => {
                if k >= self.0.len() {
                    self.0.resize(k + 1, f64::NAN);
                }
                let slot = &mut self.0[k];
                if slot.is_nan() {
                    *slot = fresh();
                }
                *slot
            }
            _ => fresh(),
        }
    }
}

/// An arena link: a node, a statistics cell or a slot of the move pool.
/// 32-bit links keep a node at 40 bytes, which big trees need to stay in
/// cache.
type Ix = u32;

/// Absent arena link: no child, no next sibling, no move (the root).
const NIL: Ix = Ix::MAX;

/// The root's id in every tree an arena holds.
const ROOT: usize = 0;

/// `i` as an arena link.
fn ix(i: usize) -> Ix {
    Ix::try_from(i).expect("the arena outgrew 32-bit links")
}

/// One node of the arena. Children are a linked list in expansion
/// order, and moves live in one arena-wide pool: a node's unexpanded
/// moves are the range `pool[untried..untried_end]`, and the move that
/// led to it is the pool slot it was expanded from. Its statistics are
/// a [`Cell`], shared with transposed nodes when the arena has a table.
/// Growing the tree therefore allocates only when a vector outgrows its
/// capacity.
///
/// A node is *terminal* once it is expanded with no moves: no untried
/// range and no child. It keeps its position's score then, so a descent
/// that ends on it backs that up without replaying its path.
struct Node {
    /// Pool slot of the move that led here (`NIL` for the root).
    mv: Ix,
    first_child: Ix,
    last_child: Ix,
    next_sibling: Ix,
    /// Unexpanded moves, popped from the back.
    untried: Ix,
    untried_end: Ix,
    /// Index of the node's statistics cell.
    cell: Ix,
    expanded: bool,
    /// The position's score, set when the node turns out terminal.
    score: Score,
}

impl Node {
    fn new(mv: Ix, cell: usize) -> Self {
        Node {
            mv,
            first_child: NIL,
            last_child: NIL,
            next_sibling: NIL,
            untried: 0,
            untried_end: 0,
            cell: ix(cell),
            expanded: false,
            score: 0,
        }
    }
}

/// The statistics of one position: one per node on a table-less arena,
/// one per table key otherwise.
struct Cell {
    visits: u64,
    total: f64,
    best: Score,
    /// Nodes and table slots holding the cell; at 0 it is free.
    holders: u32,
    /// Nodes of descents not yet backed up that hold the cell: WU-UCT's
    /// unobserved samples. Other lanes of the wave mark it, and so does
    /// the current descent when it meets a position it has already
    /// passed through.
    inflight: u32,
}

/// The arena's statistics cells, with a free list: a cell whose last
/// holder lets go is reused before the vector grows, so live cells
/// never exceed occupied table slots plus live nodes.
#[derive(Default)]
struct Cells {
    cells: Vec<Cell>,
    free: Vec<usize>,
}

impl Cells {
    /// A fresh cell with no holder yet.
    fn take(&mut self) -> usize {
        let fresh = Cell {
            visits: 0,
            total: 0.0,
            best: Score::MIN,
            holders: 0,
            inflight: 0,
        };
        match self.free.pop() {
            Some(c) => {
                self.cells[c] = fresh;
                c
            }
            None => {
                self.cells.push(fresh);
                self.cells.len() - 1
            }
        }
    }

    fn hold(&mut self, c: usize) {
        self.cells[c].holders += 1;
    }

    fn release(&mut self, c: usize) {
        self.cells[c].holders -= 1;
        if self.cells[c].holders == 0 {
            self.free.push(c);
        }
    }

    /// Cells some node or slot still holds.
    fn live(&self) -> usize {
        self.cells.len() - self.free.len()
    }
}

/// Set-associativity of the [`CellTable`] (slots scanned per lookup).
const TT_WAYS: usize = 8;

/// Default memory bound of a spec-level `tree_reuse` transposition
/// table (sessions size theirs through the engine's session budget).
pub(crate) const DEFAULT_TT_BYTES: usize = 8 * 1024 * 1024;

/// What one entry is charged against a table's byte bound. It is the
/// weight of an entry of the shared tree's table this one replaced (a
/// 24-byte slot plus its 32-byte statistics cell), kept as a number so
/// every bound keeps its set count: another value would move evictions,
/// the session table counters and the ledger's warm-session digest.
const TT_ENTRY_BYTES: usize = 56;

/// The set count of a table bounded to `bytes_bound`: the largest power
/// of two whose [`TT_WAYS`]-way sets of [`TT_ENTRY_BYTES`] entries fit,
/// and at least one.
fn tt_sets(bytes_bound: usize) -> usize {
    let capacity = (bytes_bound / TT_ENTRY_BYTES).max(TT_WAYS);
    let mut sets = 1usize;
    while sets * 2 * TT_WAYS <= capacity {
        sets *= 2;
    }
    sets
}

/// One slot of a [`CellTable`]. Ticks start at 1, so `touch == 0`
/// marks an empty slot and a slot stays 24 bytes.
#[derive(Clone, Copy)]
struct Slot {
    key: u64,
    cell: usize,
    touch: u64,
}

/// The arena's transposition table, keyed by [`Game::state_hash`], so
/// tree nodes reached by distinct move orders share one statistics
/// cell. Set-associative with [`TT_WAYS`] ways: a lookup scans one set,
/// an insert fills an empty way or evicts the least-recently-touched
/// one. The slot vector is allocated once, so the table's own memory is
/// bounded by construction; an evicted cell stays with the nodes that
/// hold it and is freed when the last one lets go.
struct CellTable {
    slots: Vec<Slot>,
    /// Set index mask (`set_count - 1`; set count is a power of two).
    set_mask: u64,
    /// Access clock for LRU-within-set.
    tick: u64,
    occupied: usize,
    hits: u64,
    evictions: u64,
}

impl CellTable {
    fn new(bytes_bound: usize) -> Self {
        let sets = tt_sets(bytes_bound);
        let empty = Slot {
            key: 0,
            cell: usize::MAX,
            touch: 0,
        };
        CellTable {
            slots: vec![empty; sets * TT_WAYS],
            set_mask: sets as u64 - 1,
            tick: 0,
            occupied: 0,
            hits: 0,
            evictions: 0,
        }
    }

    /// The cell for `key`, taking a fresh one (and possibly evicting)
    /// on a miss. The caller holds the returned cell for its node; the
    /// table holds it for the slot.
    fn intern(&mut self, key: u64, cells: &mut Cells) -> usize {
        let set = (key & self.set_mask) as usize * TT_WAYS;
        self.tick += 1;
        let mut empty = None;
        let mut victim = set;
        let mut victim_touch = u64::MAX;
        for i in set..set + TT_WAYS {
            let s = &mut self.slots[i];
            if s.touch == 0 {
                empty = empty.or(Some(i));
            } else if s.key == key {
                s.touch = self.tick;
                self.hits += 1;
                return s.cell;
            } else if s.touch < victim_touch {
                victim_touch = s.touch;
                victim = i;
            }
        }
        let i = match empty {
            Some(i) => {
                self.occupied += 1;
                i
            }
            None => {
                self.evictions += 1;
                cells.release(self.slots[victim].cell);
                victim
            }
        };
        let cell = cells.take();
        cells.hold(cell);
        self.slots[i] = Slot {
            key,
            cell,
            touch: self.tick,
        };
        cell
    }
}

/// The UCT tree, owned by one search or kept across the steps of a
/// session, with its normalisation bounds; with a table
/// ([`UctArena::new`] with a bound) it shares one statistics cell
/// between transposed positions.
pub(crate) struct UctArena<M> {
    nodes: Vec<Node>,
    pool: Vec<M>,
    cells: Cells,
    table: Option<CellTable>,
    /// Running bounds for reward normalisation.
    lo: f64,
    hi: f64,
    /// Kept with the tree, whose visit counts carry over from step to
    /// step, so a warm step does not recompute their logarithms.
    ln: LnTable,
    /// Set while a search runs. Still set when the next one starts, it
    /// means the last one unwound (a game panicked) before backing its
    /// wave up, leaving marks on the wave's paths.
    searching: bool,
}

impl<M: Clone + PartialEq> UctArena<M> {
    /// An empty tree; with `table_bytes`, expansions intern their
    /// position's [`Game::state_hash`] in a table bounded to that many
    /// bytes.
    pub(crate) fn new(table_bytes: Option<usize>) -> Self {
        let mut cells = Cells::default();
        let root = cells.take();
        cells.hold(root);
        UctArena {
            nodes: vec![Node::new(NIL, root)],
            pool: Vec::new(),
            cells,
            table: table_bytes.map(CellTable::new),
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            ln: LnTable::default(),
            searching: false,
        }
    }

    /// Runs `threads`-lane waves from `game`, lane `i` seeded with
    /// `tree_worker_seed(seed, i)`, rolling each wave out as one batch
    /// on the shared [`ExecutorPool`] (inline at one lane). The engine
    /// room behind `SearchSpec::uct` (one lane) and
    /// `SearchSpec::tree_parallel`, one-shot or as a session's warm
    /// step.
    pub(crate) fn farm<G>(
        &mut self,
        game: &G,
        config: &UctConfig,
        stats: StatsMode,
        threads: usize,
        seed: u64,
        ctx: &mut SearchCtx,
    ) -> (Score, Vec<M>)
    where
        G: Game<Move = M> + Send + Sync,
        M: Send + Sync,
    {
        assert!(threads >= 1, "tree-parallel UCT needs at least one lane");
        let mut rngs: Vec<Rng> = (0..threads)
            .map(|lane| Rng::seeded(tree_worker_seed(seed, lane)))
            .collect();
        self.search(game, config, stats, &mut rngs, ctx, |wave| match wave {
            [lane] => lane.roll(),
            _ => {
                // Each slot locks only its own lane: uncontended.
                let slots: Vec<Mutex<&mut Lane<'_, G>>> = wave.iter_mut().map(Mutex::new).collect();
                let roll = |slot: usize| slots[slot].lock().roll();
                ExecutorPool::shared().run_batch(slots.len(), &roll);
            }
        })
    }

    /// Runs UCT from `game`, which must be the position the tree is
    /// rooted at, growing the tree in place: one lane per stream of
    /// `rngs`, each wave's rollouts run by `roll_out`.
    fn search<G, F>(
        &mut self,
        game: &G,
        config: &UctConfig,
        stats: StatsMode,
        rngs: &mut [Rng],
        ctx: &mut SearchCtx,
        roll_out: F,
    ) -> (Score, Vec<M>)
    where
        G: Game<Move = M>,
        F: FnMut(&mut [Lane<'_, G>]),
    {
        if std::mem::replace(&mut self.searching, true) {
            for cell in &mut self.cells.cells {
                cell.inflight = 0;
            }
        }
        let mut lanes: Vec<Lane<'_, G>> = rngs
            .iter_mut()
            .map(|rng| Lane::new(game, rng, ctx.fork()))
            .collect();
        // One body, compiled for each case: a one-lane search without a
        // table never meets a marked cell, and the marks fold away.
        let line = if self.table.is_some() || lanes.len() > 1 {
            self.waves::<G, F, true>(config, stats, ctx, &mut lanes, roll_out)
        } else {
            self.waves::<G, F, false>(config, stats, ctx, &mut lanes, roll_out)
        };
        for lane in lanes {
            ctx.absorb(lane.ctx);
        }
        self.searching = false;
        #[cfg(debug_assertions)]
        self.assert_quiescent();
        line
    }

    /// The search loop: wave after wave until the iterations run out or
    /// a lane's poll stops it. `budget` is the search's own context,
    /// whose budget meter the lanes' forks share. `MARKS` tells whether
    /// cells take in-flight marks (several lanes, or a table that lets
    /// one descent meet a cell it already holds).
    fn waves<G, F, const MARKS: bool>(
        &mut self,
        config: &UctConfig,
        stats: StatsMode,
        budget: &SearchCtx,
        lanes: &mut [Lane<'_, G>],
        mut roll_out: F,
    ) -> (Score, Vec<M>)
    where
        G: Game<Move = M>,
        F: FnMut(&mut [Lane<'_, G>]),
    {
        let mut best_score = Score::MIN;
        let mut best_seq: Vec<M> = Vec::new();
        let mut moves: Vec<M> = Vec::new();
        let iterations = config.iterations.max(1);
        let mut started = 0;
        let mut stopped = false;
        while started < iterations && !stopped {
            // No wider than the playouts left, so the last rollout to
            // end is the one that trips a playout budget.
            let width = lanes
                .len()
                .min(iterations - started)
                .min(budget.playouts_left().max(1));
            let mut selected = 0;
            for lane in &mut lanes[..width] {
                if started > 0 && lane.ctx.should_stop() {
                    stopped = true;
                    break;
                }
                self.descend::<G, MARKS>(lane, config, stats, &mut moves);
                started += 1;
                selected += 1;
            }
            if selected == 0 {
                break;
            }
            roll_out(&mut lanes[..selected]);
            for lane in &lanes[..selected] {
                self.back_up::<G, MARKS>(lane);
                if lane.score > best_score {
                    best_score = lane.score;
                    best_seq.clone_from(&lane.seq);
                }
            }
        }
        (best_score, best_seq)
    }

    /// Selects and expands `lane`'s descent from the root, filling its
    /// path and moves and marking its cells in flight (with `MARKS`).
    /// Its lane plays the moves only when the descent needs a position.
    /// Inlined into the wave loop, as are the backup and the rollout:
    /// as calls they cost a one-lane search ≈ 3 % on 6×6 SameGame.
    #[inline(always)]
    fn descend<G: Game<Move = M>, const MARKS: bool>(
        &mut self,
        lane: &mut Lane<'_, G>,
        config: &UctConfig,
        stats: StatsMode,
        moves: &mut Vec<M>,
    ) {
        let UctArena {
            nodes,
            pool,
            cells,
            table,
            ln,
            lo,
            hi,
            ..
        } = self;
        let (lo, hi) = (*lo, *hi);
        let Lane {
            rng,
            ctx,
            trail,
            path,
            seq,
            terminal,
            ..
        } = lane;
        let mut id = ROOT;
        path.clear();
        let root = nodes[ROOT].cell as usize;
        path.push(root);
        if MARKS {
            cells.cells[root].inflight += 1;
        }
        seq.clear();
        *terminal = None;
        loop {
            if !nodes[id].expanded {
                let position = trail.at(seq).position();
                position.legal_moves_into(moves);
                if moves.is_empty() {
                    nodes[id].score = position.score();
                }
                let start = pool.len();
                pool.append(moves);
                // Shuffle once so expansion order is unbiased.
                let untried = &mut pool[start..];
                for i in (1..untried.len()).rev() {
                    let j = rng.below(i + 1);
                    untried.swap(i, j);
                }
                let node = &mut nodes[id];
                (node.untried, node.untried_end) = (ix(start), ix(pool.len()));
                node.expanded = true;
            }
            // Expand one child if any remain.
            if nodes[id].untried < nodes[id].untried_end {
                nodes[id].untried_end -= 1;
                let slot = nodes[id].untried_end;
                seq.push(pool[slot as usize].clone());
                ctx.record_expansion();
                // The key is the *child* position's hash, so the move is
                // played before the node exists.
                let cell = match table {
                    Some(table) if MARKS => {
                        table.intern(trail.at(seq).position().state_hash(), cells)
                    }
                    _ => cells.take(),
                };
                cells.hold(cell);
                if MARKS {
                    cells.cells[cell].inflight += 1;
                }
                let child = ix(nodes.len());
                nodes.push(Node::new(slot, cell));
                match nodes[id].last_child {
                    NIL => nodes[id].first_child = child,
                    last => nodes[last as usize].next_sibling = child,
                }
                nodes[id].last_child = child;
                path.push(cell);
                return;
            }
            if nodes[id].first_child == NIL {
                *terminal = Some(nodes[id].score);
                return;
            }
            // UCB over children with normalised means + max bias. Marks
            // other than the descent's own are WU-UCT's unobserved
            // samples (ln(N + O) and n + o).
            let span = (hi - lo).max(1.0);
            let here = &cells.cells[nodes[id].cell as usize];
            let others = match stats {
                StatsMode::WuUct if MARKS => here.inflight - 1,
                _ => 0,
            };
            let ln_n = ln.ln(here.visits + u64::from(others));
            let mut best_child = nodes[id].first_child;
            let mut best_val = f64::NEG_INFINITY;
            let mut c = best_child;
            while c != NIL {
                let node = &nodes[c as usize];
                let n = &cells.cells[node.cell as usize];
                let o = if MARKS { u64::from(n.inflight) } else { 0 };
                let val = if MARKS && n.visits == 0 {
                    // Its first rollout is still in flight, so it has no
                    // mean of its own. Virtual loss rates it at the lower
                    // bound, as its marks say; WU-UCT, whose unobserved
                    // samples only widen exploration, at its parent's
                    // value (the bound while the parent has none).
                    let exploit = match stats {
                        StatsMode::WuUct if here.visits > 0 => {
                            let mean = (here.total / here.visits as f64 - lo) / span;
                            let maxv = (here.best as f64 - lo) / span;
                            (1.0 - config.max_bias) * mean + config.max_bias * maxv
                        }
                        _ => 0.0,
                    };
                    exploit + config.exploration * (ln_n / o.max(1) as f64).sqrt()
                } else {
                    let mean = match stats {
                        // Each mark is a visit that scored `lo`.
                        StatsMode::VirtualLoss if MARKS => {
                            (n.total + o as f64 * lo) / (n.visits + o) as f64
                        }
                        _ => n.total / n.visits as f64,
                    };
                    let mean = (mean - lo) / span;
                    let maxv = (n.best as f64 - lo) / span;
                    let n_explore = (n.visits + o) as f64;
                    (1.0 - config.max_bias) * mean
                        + config.max_bias * maxv
                        + config.exploration * (ln_n / n_explore).sqrt()
                };
                if val > best_val {
                    best_val = val;
                    best_child = c;
                }
                c = node.next_sibling;
            }
            id = best_child as usize;
            let cell = nodes[id].cell as usize;
            if MARKS {
                cells.cells[cell].inflight += 1;
            }
            seq.push(pool[nodes[id].mv as usize].clone());
            ctx.record_nested_move();
            path.push(cell);
        }
    }

    /// Folds `lane`'s rolled-out score into the bounds and its path's
    /// cells, and lifts its in-flight marks.
    #[inline(always)]
    fn back_up<G: Game<Move = M>, const MARKS: bool>(&mut self, lane: &Lane<'_, G>) {
        let s = lane.score as f64;
        self.lo = self.lo.min(s);
        self.hi = self.hi.max(s);
        for &c in &lane.path {
            let n = &mut self.cells.cells[c];
            n.visits += 1;
            n.total += s;
            n.best = n.best.max(lane.score);
            if MARKS {
                n.inflight -= 1;
            }
        }
    }

    /// The invariants a finished search leaves behind, checked in debug
    /// builds after every search:
    ///
    /// * no cell still carries an in-flight mark;
    /// * on a table-less arena every node with a child has Σ child
    ///   visits = visits − 1, and the root Σ child visits = visits. Each
    ///   descent ends either at the one node it created or at a terminal
    ///   node, so every visit of a node but its first continues into
    ///   exactly one child. A table shares cells between nodes, so there
    ///   only the first law is checked.
    #[cfg(debug_assertions)]
    fn assert_quiescent(&self) {
        let visits = |id: Ix| self.cells.cells[self.nodes[id as usize].cell as usize].visits;
        for (id, node) in self.nodes.iter().enumerate() {
            let cell = &self.cells.cells[node.cell as usize];
            assert_eq!(
                cell.inflight, 0,
                "a descent is still in flight after the search (node {id}, visits {})",
                cell.visits
            );
            if self.table.is_some() || node.first_child == NIL {
                continue;
            }
            let mut below = 0;
            let mut c = node.first_child;
            while c != NIL {
                below += visits(c);
                c = self.nodes[c as usize].next_sibling;
            }
            assert_eq!(
                below + u64::from(id != ROOT),
                cell.visits,
                "child visits do not add up to node {id}'s"
            );
        }
    }

    /// Re-roots the tree on the root's child reached by `mv`, keeping
    /// that subtree (statistics, untried moves and sibling order) and
    /// the normalisation bounds. The subtree is copied breadth-first
    /// into fresh node and move storage, so the dropped siblings'
    /// memory goes with the old vectors; cells only they held are
    /// freed. A move that was never expanded re-roots onto a fresh cold
    /// node.
    pub(crate) fn reroot(&mut self, mv: &M) {
        let mut taken = self.nodes[ROOT].first_child;
        while taken != NIL && self.pool[self.nodes[taken as usize].mv as usize] != *mv {
            taken = self.nodes[taken as usize].next_sibling;
        }
        let mut nodes = Vec::new();
        let mut pool = Vec::new();
        if taken == NIL {
            let cell = self.cells.take();
            self.cells.hold(cell);
            nodes.push(Node::new(NIL, cell));
        } else {
            // Old ids in breadth-first order: the children of `order[i]`
            // sit together, in sibling order, further along.
            let mut order = Vec::with_capacity(self.nodes.len());
            order.push(taken as usize);
            let mut moves = 0;
            let mut i = 0;
            while let Some(&old) = order.get(i) {
                let n = &self.nodes[old];
                moves += (n.untried_end - n.untried) as usize;
                let mut c = n.first_child;
                while c != NIL {
                    order.push(c as usize);
                    moves += 1;
                    c = self.nodes[c as usize].next_sibling;
                }
                i += 1;
            }
            nodes.reserve_exact(order.len());
            pool.reserve_exact(moves);
            let mut next = 1;
            for (i, &old) in order.iter().enumerate() {
                let n = &self.nodes[old];
                let slot = if i == 0 {
                    NIL
                } else {
                    pool.push(self.pool[n.mv as usize].clone());
                    ix(pool.len() - 1)
                };
                let mut node = Node::new(slot, n.cell as usize);
                node.expanded = n.expanded;
                node.score = n.score;
                node.untried = ix(pool.len());
                pool.extend_from_slice(&self.pool[n.untried as usize..n.untried_end as usize]);
                node.untried_end = ix(pool.len());
                let mut c = n.first_child;
                while c != NIL {
                    if node.first_child == NIL {
                        node.first_child = next;
                    }
                    node.last_child = next;
                    next += 1;
                    c = self.nodes[c as usize].next_sibling;
                }
                nodes.push(node);
                self.cells.hold(n.cell as usize);
            }
            for parent in 0..nodes.len() {
                let (first, last) = (nodes[parent].first_child, nodes[parent].last_child);
                if first != NIL {
                    for c in first..last {
                        nodes[c as usize].next_sibling = c + 1;
                    }
                }
            }
        }
        for n in &self.nodes {
            self.cells.release(n.cell as usize);
        }
        self.nodes = nodes;
        self.pool = pool;
        debug_assert!(
            self.cells.live() <= self.nodes.len() + self.table.as_ref().map_or(0, |t| t.occupied),
            "a cell outlived its last holder"
        );
    }

    /// Heap bytes the arena holds, read off its vectors' capacities:
    /// nodes, moves, cells (live and free) and the table's slots. O(1),
    /// so a session can report it after every step.
    pub(crate) fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.capacity() * size_of::<Node>()
            + self.pool.capacity() * size_of::<M>()
            + self.cells.cells.capacity() * size_of::<Cell>()
            + self.cells.free.capacity() * size_of::<usize>()
            + self.ln.0.capacity() * size_of::<f64>()
            + self
                .table
                .as_ref()
                .map_or(0, |t| t.slots.capacity() * size_of::<Slot>())
    }

    /// (hits, evictions) of the table; (0, 0) without one.
    pub(crate) fn table_counters(&self) -> (u64, u64) {
        self.table
            .as_ref()
            .map_or((0, 0), |t| (t.hits, t.evictions))
    }
}

/// One lane of a wave: the descent the master selected for it and the
/// rollout the farm runs from its leaf, with the lane's own random
/// stream, budget context and position.
pub(crate) struct Lane<'r, G: Game> {
    rng: &'r mut Rng,
    /// A fork of the search's context: the descent's polls and counts
    /// and the rollout's land here.
    ctx: SearchCtx,
    trail: Trail<G>,
    /// Cells of the descent, root first.
    path: Vec<usize>,
    /// The descent's moves, then the rollout's.
    seq: Vec<G::Move>,
    /// The leaf's score when the descent ended on a known terminal node.
    terminal: Option<Score>,
    /// The score the lane's last rollout reached.
    score: Score,
}

impl<'r, G: Game> Lane<'r, G> {
    fn new(game: &G, rng: &'r mut Rng, ctx: SearchCtx) -> Self {
        Lane {
            rng,
            ctx,
            trail: Trail {
                walker: Walker::new(game),
                root: None,
                played: 0,
            },
            path: Vec::new(),
            seq: Vec::new(),
            terminal: None,
            score: Score::MIN,
        }
    }

    /// Rolls out from the descent's leaf and takes the lane's position
    /// back to the root.
    #[inline(always)]
    fn roll(&mut self) {
        self.score = match self.terminal {
            // What a rollout from a position with no moves does, without
            // the position: poll once, end the playout.
            Some(score) => {
                self.ctx.should_stop();
                self.ctx.record_playout_end();
                score
            }
            None => {
                let walker = self.trail.at(&self.seq);
                walker.rollout(self.rng, &mut self.seq, &mut self.ctx)
            }
        };
        self.trail.reset();
    }
}

/// The position of one lane. The descent records its moves in its
/// sequence and walks the tree; the walker plays them only when a
/// position is needed (to list a node's moves, hash a new child or roll
/// out), so a descent ending on a known terminal node runs no game
/// code.
struct Trail<G: Game> {
    walker: Walker<G>,
    /// The root, marked on this iteration's first need.
    root: Option<Mark>,
    /// How many moves of the sequence the walker has played.
    played: usize,
}

impl<G: Game> Trail<G> {
    /// The walker, caught up with `seq`, the descent's moves so far.
    fn at(&mut self, seq: &[G::Move]) -> &mut Walker<G> {
        let walker = &mut self.walker;
        self.root.get_or_insert_with(|| walker.mark());
        for mv in &seq[self.played..] {
            walker.play(mv);
        }
        self.played = seq.len();
        walker
    }

    /// Back at the root, for the next iteration.
    fn reset(&mut self) {
        if let Some(root) = self.root.take() {
            self.walker.rewind(root);
        }
        self.played = 0;
    }
}

/// Runs UCT from `game`, accounting into (and honouring the
/// budget/cancellation of) `ctx`.
///
/// One lane on `rng` over a fresh table-less arena, dropped when the
/// search returns: `SearchSpec::uct()`'s search, for callers that
/// thread their own `Rng`. The node budget (`Budget::max_nodes`) counts
/// tree expansions, so a budgeted UCT run is bounded in memory as well
/// as time.
pub fn uct_with<G: Game>(
    game: &G,
    config: &UctConfig,
    rng: &mut Rng,
    ctx: &mut SearchCtx,
) -> (Score, Vec<G::Move>) {
    UctArena::new(None).search(
        game,
        config,
        StatsMode::WuUct,
        std::slice::from_mut(rng),
        ctx,
        |wave| wave.iter_mut().for_each(Lane::roll),
    )
}

/// How concurrent descents locked the deleted shared tree. It selects
/// nothing any more: the arena's master takes no lock at any width.
/// It still parses, so specs that name it keep working.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LockStrategy {
    /// Was one structure mutex for every descent; selects nothing.
    Global,
    /// Was one lock per node; selects nothing.
    #[default]
    Sharded,
}

impl LockStrategy {
    /// Short label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            LockStrategy::Global => "global",
            LockStrategy::Sharded => "sharded",
        }
    }
}

/// How in-flight marks (descents of the wave not yet backed up) enter
/// selection. With nothing in flight both compute the same value, so
/// they differ only above one lane, or with a table when a descent
/// meets a position it has already passed through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StatsMode {
    /// Plain virtual loss: each mark counts as one visit scoring the
    /// lower bound, dragging both the mean and the exploration term
    /// down.
    VirtualLoss,
    /// WU-UCT (Liu et al. 2020): marks widen only the exploration
    /// denominators (`N + O` in both UCB terms) while the exploitation
    /// mean stays the mean of *completed* rollouts — the "watch the
    /// unobserved" correction that avoids virtual loss's systematic
    /// pessimism.
    #[default]
    WuUct,
}

impl StatsMode {
    /// Short label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            StatsMode::VirtualLoss => "vloss",
            StatsMode::WuUct => "wu-uct",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::flat_monte_carlo_with;
    use crate::search::SearchResult;

    /// Depth-`d` ternary game, unique optimum all-2s.
    #[derive(Clone, Debug)]
    struct Ternary {
        depth: usize,
        taken: Vec<u8>,
    }

    impl Game for Ternary {
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

    fn ternary(depth: usize) -> Ternary {
        Ternary {
            depth,
            taken: vec![],
        }
    }

    fn optimum(d: usize) -> Score {
        (0..d).fold(0, |acc, _| acc * 3 + 2)
    }

    fn iterations(iterations: usize) -> UctConfig {
        UctConfig {
            iterations,
            ..Default::default()
        }
    }

    #[test]
    fn uct_solves_small_games() {
        let g = ternary(4);
        let cfg = iterations(2_000);
        let r = SearchResult::unbounded(|ctx| uct_with(&g, &cfg, &mut Rng::seeded(1), ctx));
        assert_eq!(r.score, optimum(4));
    }

    #[test]
    fn uct_sequences_replay_to_their_score() {
        for seed in 0..10 {
            let g = ternary(5);
            let cfg = iterations(200);
            let r = SearchResult::unbounded(|ctx| uct_with(&g, &cfg, &mut Rng::seeded(seed), ctx));
            let mut replay = g.clone();
            for mv in &r.sequence {
                replay.play(mv);
            }
            assert_eq!(replay.score(), r.score, "seed {seed}");
            assert_eq!(r.sequence.len(), 5);
        }
    }

    #[test]
    fn uct_beats_flat_mc_at_equal_budget() {
        let g = ternary(6);
        let budget = 300;
        let trials = 20;
        let mut uct_total = 0;
        let mut flat_total = 0;
        for seed in 0..trials {
            let cfg = iterations(budget);
            uct_total +=
                SearchResult::unbounded(|ctx| uct_with(&g, &cfg, &mut Rng::seeded(seed), ctx))
                    .score;
            flat_total += SearchResult::unbounded(|ctx| {
                flat_monte_carlo_with(&g, budget, &mut Rng::seeded(seed), ctx)
            })
            .score;
        }
        assert!(
            uct_total > flat_total,
            "UCT ({uct_total}) should beat flat MC ({flat_total}) over {trials} trials"
        );
    }

    #[test]
    fn more_iterations_do_not_hurt() {
        let g = ternary(5);
        let score_at = |n: usize| {
            (0..10)
                .map(|s| {
                    let cfg = iterations(n);
                    SearchResult::unbounded(|ctx| uct_with(&g, &cfg, &mut Rng::seeded(s), ctx))
                        .score
                })
                .sum::<Score>()
        };
        assert!(score_at(1_000) >= score_at(30));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = ternary(4);
        let cfg = iterations(100);
        let a = SearchResult::unbounded(|ctx| uct_with(&g, &cfg, &mut Rng::seeded(9), ctx));
        let b = SearchResult::unbounded(|ctx| uct_with(&g, &cfg, &mut Rng::seeded(9), ctx));
        assert_eq!(a.score, b.score);
        assert_eq!(a.sequence, b.sequence);
    }

    const MODES: [StatsMode; 2] = [StatsMode::VirtualLoss, StatsMode::WuUct];

    /// Tree-parallel UCT: `lanes`-wide waves on a fresh arena, with a
    /// table of `table` bytes if given.
    fn farm<G>(
        game: &G,
        cfg: &UctConfig,
        stats: StatsMode,
        lanes: usize,
        seed: u64,
        table: Option<usize>,
        ctx: &mut SearchCtx,
    ) -> (Score, Vec<G::Move>)
    where
        G: Game + Send + Sync,
        G::Move: Send + Sync + PartialEq,
    {
        UctArena::new(table).farm(game, cfg, stats, lanes, seed, ctx)
    }

    #[test]
    fn single_worker_tree_parallel_is_bit_identical_to_sequential_in_every_mode() {
        let cfg = iterations(300);
        for seed in 0..10 {
            let g = ternary(5);
            let mut seq_ctx = SearchCtx::unbounded();
            let sequential = uct_with(&g, &cfg, &mut Rng::seeded(seed), &mut seq_ctx);
            for mode in MODES {
                let mut tp_ctx = SearchCtx::unbounded();
                let tree = farm(&g, &cfg, mode, 1, seed, None, &mut tp_ctx);
                assert_eq!(tree, sequential, "seed {seed} {mode:?}");
                assert_eq!(tp_ctx.stats(), seq_ctx.stats(), "seed {seed} {mode:?}");
            }
        }
    }

    #[test]
    fn multi_worker_tree_parallel_replays_and_honours_the_iteration_total() {
        let g = ternary(6);
        let cfg = iterations(400);
        for lanes in [2usize, 4] {
            for mode in MODES {
                let run = || {
                    let mut ctx = SearchCtx::unbounded();
                    let line = farm(&g, &cfg, mode, lanes, 9, None, &mut ctx);
                    (line, *ctx.stats())
                };
                let ((score, seq), stats) = run();
                let mut replay = g.clone();
                for mv in &seq {
                    replay.play(mv);
                }
                assert_eq!(replay.score(), score, "w{lanes} {mode:?}");
                // Waves split the iterations, not multiply them.
                assert_eq!(stats.playouts, 400, "w{lanes} {mode:?}");
                assert_eq!(run(), ((score, seq), stats), "w{lanes} {mode:?} repeats");
            }
        }
    }

    #[test]
    fn multi_worker_tree_parallel_still_solves_small_games() {
        let g = ternary(4);
        let cfg = iterations(2_000);
        let mut ctx = SearchCtx::unbounded();
        let (score, _) = farm(&g, &cfg, StatsMode::default(), 4, 1, None, &mut ctx);
        assert_eq!(score, optimum(4));
    }

    #[test]
    fn tree_parallel_terminal_root_is_handled() {
        let g = ternary(0);
        let cfg = iterations(10);
        for mode in MODES {
            let mut ctx = SearchCtx::unbounded();
            let (score, seq) = farm(&g, &cfg, mode, 3, 1, None, &mut ctx);
            assert_eq!(score, 0, "{mode:?}");
            assert!(seq.is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn terminal_root_is_handled() {
        let g = ternary(0);
        let cfg = iterations(10);
        let r = SearchResult::unbounded(|ctx| uct_with(&g, &cfg, &mut Rng::seeded(1), ctx));
        assert_eq!(r.score, 0);
        assert!(r.sequence.is_empty());
    }

    /// Table-owned bytes: the slot backing plus the cells the slots
    /// hold.
    fn table_bytes(table: &CellTable) -> usize {
        table.slots.capacity() * std::mem::size_of::<Slot>()
            + table.occupied * std::mem::size_of::<Cell>()
    }

    #[test]
    fn trans_table_bytes_plateau_under_a_million_state_churn() {
        let bound = 64 * 1024;
        let mut table = CellTable::new(bound);
        let mut cells = Cells::default();
        assert!(
            table_bytes(&table) <= bound,
            "fresh table backing {} must fit the bound {bound}",
            table_bytes(&table)
        );
        let mut peak = 0usize;
        for key in 0..1_000_000u64 {
            table.intern(crate::rng::mix64(key + 1), &mut cells);
            peak = peak.max(table_bytes(&table));
        }
        assert!(
            peak <= bound,
            "peak {peak} exceeded bound {bound}: churn must recycle slots, not grow"
        );
        assert_eq!(
            table_bytes(&table),
            peak,
            "a full table is flat: bytes stays at the plateau"
        );
        assert_eq!(cells.live(), table.occupied, "evicted cells are freed");
        assert_eq!(cells.cells.len(), table.slots.len(), "and reused");
        assert!(table.evictions > 0, "a million keys must overflow 64 KiB");
    }

    #[test]
    fn trans_table_interns_same_key_to_the_same_stats_cell() {
        let mut table = CellTable::new(16 * 1024);
        let mut cells = Cells::default();
        let a = table.intern(42, &mut cells);
        let b = table.intern(42, &mut cells);
        assert_eq!(a, b, "same key must share one cell");
        let c = table.intern(43, &mut cells);
        assert_ne!(a, c, "distinct keys get distinct cells");
        assert_eq!(table.hits, 1, "exactly one hit");
    }

    #[test]
    fn reroot_keeps_the_chosen_subtree_statistics() {
        let g = ternary(4);
        let cfg = iterations(500);
        let mut arena = UctArena::new(Some(256 * 1024));
        let mut ctx = SearchCtx::unbounded();
        let (_, seq) = arena.farm(&g, &cfg, StatsMode::default(), 2, 7, &mut ctx);
        let first = seq[0];
        let visits = |arena: &UctArena<u8>, id: usize| {
            arena.cells.cells[arena.nodes[id].cell as usize].visits
        };
        let mut child = arena.nodes[ROOT].first_child as usize;
        while arena.pool[arena.nodes[child].mv as usize] != first {
            child = arena.nodes[child].next_sibling as usize;
        }
        let child_visits = visits(&arena, child);
        assert!(child_visits > 0);
        let bytes_before = arena.approx_bytes();

        arena.reroot(&first);
        assert_eq!(
            visits(&arena, ROOT),
            child_visits,
            "the new root carries the child's visit count"
        );
        assert!(
            arena.approx_bytes() < bytes_before,
            "re-rooting drops the sibling subtrees"
        );
        // The kept tree searches on, warm.
        let mut game = g.clone();
        game.play(&first);
        arena.farm(&game, &cfg, StatsMode::default(), 2, 8, &mut ctx);
        assert_eq!(visits(&arena, ROOT), child_visits + 500);
    }

    #[test]
    fn table_backed_single_worker_runs_are_run_to_run_deterministic() {
        let g = ternary(5);
        let cfg = iterations(300);
        for seed in 0..5 {
            let run = || {
                let mut ctx = SearchCtx::unbounded();
                let line = farm(
                    &g,
                    &cfg,
                    StatsMode::default(),
                    1,
                    seed,
                    Some(256 * 1024),
                    &mut ctx,
                );
                (line, *ctx.stats())
            };
            assert_eq!(
                run(),
                run(),
                "seed {seed}: width-1 reuse-on is deterministic"
            );
        }
    }

    #[test]
    fn table_backed_tree_still_solves_small_games() {
        let g = ternary(4);
        let cfg = iterations(2_000);
        for lanes in [1usize, 4] {
            let mut ctx = SearchCtx::unbounded();
            let table = Some(1024 * 1024);
            let (score, seq) = farm(&g, &cfg, StatsMode::default(), lanes, 3, table, &mut ctx);
            assert_eq!(score, optimum(4), "{lanes} lanes");
            let mut replay = g.clone();
            for mv in &seq {
                replay.play(mv);
            }
            assert_eq!(replay.score(), score, "{lanes} lanes: replayable line");
        }
    }

    /// Ternary, but `play` panics at depth 3 while `BOMB_ARMED` is set.
    #[derive(Clone, Debug)]
    struct Bomb(Ternary);

    static BOMB_ARMED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

    impl Game for Bomb {
        type Move = u8;
        fn legal_moves(&self, out: &mut Vec<u8>) {
            self.0.legal_moves(out);
        }
        fn play(&mut self, mv: &u8) {
            let armed = BOMB_ARMED.load(std::sync::atomic::Ordering::Relaxed);
            assert!(!(armed && self.0.taken.len() == 3), "the game panicked");
            self.0.play(mv);
        }
        fn score(&self) -> Score {
            self.0.score()
        }
        fn moves_played(&self) -> usize {
            self.0.moves_played()
        }
        fn state_hash(&self) -> u64 {
            crate::rng::mix64(self.0.score() as u64 * 8 + self.0.taken.len() as u64)
        }
    }

    /// A session whose search unwound mid-wave (the game panicked) keeps
    /// its tree; the next search lifts the marks the lost wave left and
    /// ends quiescent.
    #[test]
    fn a_search_after_a_panicked_one_lifts_the_lost_waves_marks() {
        let g = Bomb(ternary(6));
        let cfg = iterations(200);
        let mut arena = UctArena::new(Some(64 * 1024));
        let stats = StatsMode::default();
        BOMB_ARMED.store(true, std::sync::atomic::Ordering::Relaxed);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            arena.farm(&g, &cfg, stats, 2, 1, &mut SearchCtx::unbounded())
        }));
        BOMB_ARMED.store(false, std::sync::atomic::Ordering::Relaxed);
        assert!(
            unwound.is_err(),
            "the armed game panics in its first rollout"
        );
        assert!(arena.cells.cells.iter().any(|c| c.inflight > 0));
        let (score, seq) = arena.farm(&g, &cfg, stats, 2, 2, &mut SearchCtx::unbounded());
        assert_eq!(seq.len(), 6);
        assert!(score > 0);
        assert!(arena.cells.cells.iter().all(|c| c.inflight == 0));
    }

    /// Pick 4 of 6 items, any order; the position is the chosen *set*,
    /// so every permutation of a set transposes. Scores spread enough
    /// (weights 1,2,4,8,16,32) that search has something to rank.
    #[derive(Clone, Debug)]
    struct PickSet {
        chosen: u8,
        count: usize,
    }

    impl Game for PickSet {
        type Move = u8;
        fn legal_moves(&self, out: &mut Vec<u8>) {
            if self.count < 4 {
                out.extend((0..6u8).filter(|i| self.chosen & (1 << i) == 0));
            }
        }
        fn play(&mut self, mv: &u8) {
            self.chosen |= 1 << mv;
            self.count += 1;
        }
        fn score(&self) -> Score {
            self.chosen as Score
        }
        fn moves_played(&self) -> usize {
            self.count
        }
        fn state_hash(&self) -> u64 {
            crate::rng::mix64(self.chosen as u64 + 1)
        }
    }

    #[test]
    fn transposed_move_orders_share_one_statistics_cell() {
        let g = PickSet {
            chosen: 0,
            count: 0,
        };
        let cfg = iterations(2_000);
        for lanes in [1usize, 4] {
            let mut arena = UctArena::new(Some(1024 * 1024));
            let mut ctx = SearchCtx::unbounded();
            let (score, _) = arena.farm(&g, &cfg, StatsMode::default(), lanes, 5, &mut ctx);
            assert_eq!(score, 0b111100, "the four heaviest items win");
            let (hits, evictions) = arena.table_counters();
            assert!(
                hits > 0,
                "permuted picks reach equal sets; the table must dedupe them"
            );
            assert_eq!(evictions, 0);
            // Every expansion either hit the table or took a fresh cell,
            // which the table still holds; the root has its own.
            let expansions = ctx.stats().expansions as usize;
            assert_eq!(
                hits as usize + arena.cells.live(),
                expansions + 1,
                "{lanes} lanes: hits {hits} + live cells vs expansions {expansions} + root"
            );
        }
    }

    /// `PickSet` at a size a session can step through: pick 6 of 12.
    #[derive(Clone, Debug)]
    struct PickMany {
        chosen: u16,
        count: usize,
    }

    impl Game for PickMany {
        type Move = u8;
        fn legal_moves(&self, out: &mut Vec<u8>) {
            if self.count < 6 {
                out.extend((0..12u8).filter(|i| self.chosen & (1 << i) == 0));
            }
        }
        fn play(&mut self, mv: &u8) {
            self.chosen |= 1 << mv;
            self.count += 1;
        }
        fn score(&self) -> Score {
            (0..12)
                .filter(|i| self.chosen & (1 << i) != 0)
                .map(|i| (i * 7) % 12)
                .sum()
        }
        fn moves_played(&self) -> usize {
            self.count
        }
        fn state_hash(&self) -> u64 {
            crate::rng::mix64(self.chosen as u64 + 1)
        }
    }

    /// Holders each arena cell should have: its nodes plus its slots.
    fn arena_holders<M>(arena: &UctArena<M>) -> Vec<u32> {
        let mut holders = vec![0u32; arena.cells.cells.len()];
        for n in &arena.nodes {
            holders[n.cell as usize] += 1;
        }
        for s in arena.table.iter().flat_map(|t| &t.slots) {
            if s.touch != 0 {
                holders[s.cell] += 1;
            }
        }
        holders
    }

    /// A whole session on a 512-byte table (64 slots; the tree outgrows
    /// it on the first step), one lane and four, checking after every
    /// re-root that every cell counts its holders exactly, that free
    /// cells are exactly the unheld ones, and so that live cells ≤
    /// occupied slots + live nodes: the memory bound `approx_bytes`
    /// documents.
    #[test]
    fn arena_cells_stay_within_occupied_slots_plus_live_nodes() {
        let cfg = iterations(400);
        for lanes in [1usize, 4] {
            let mut game = PickMany {
                chosen: 0,
                count: 0,
            };
            let mut arena = UctArena::new(Some(512));
            for step in 0u64.. {
                if game.is_terminal() {
                    break;
                }
                let mut ctx = SearchCtx::unbounded();
                let stats = StatsMode::default();
                let (_, seq) = arena.farm(&game, &cfg, stats, lanes, step, &mut ctx);
                arena.reroot(&seq[0]);
                game.play(&seq[0]);

                let holders = arena_holders(&arena);
                for (c, cell) in arena.cells.cells.iter().enumerate() {
                    let free = arena.cells.free.contains(&c);
                    assert_eq!(cell.holders, holders[c], "step {step}: cell {c}");
                    assert_eq!(free, holders[c] == 0, "step {step}: cell {c} free");
                    assert_eq!(cell.inflight, 0, "step {step}: no descent in flight");
                }
                let occupied = arena.table.as_ref().map_or(0, |t| t.occupied);
                assert!(
                    arena.cells.live() <= occupied + arena.nodes.len(),
                    "step {step}: {} live cells, {occupied} slots, {} nodes",
                    arena.cells.live(),
                    arena.nodes.len()
                );
            }
            let (_, evictions) = arena.table_counters();
            assert!(evictions > 0, "the tree must outgrow 64 slots");
        }
    }

    #[test]
    fn arena_reroot_keeps_the_chosen_subtree_in_sibling_order() {
        let g = ternary(5);
        let cfg = iterations(500);
        let mut arena = UctArena::new(None);
        let mut ctx = SearchCtx::unbounded();
        let (_, seq) = arena.farm(&g, &cfg, StatsMode::default(), 1, 7, &mut ctx);
        let first = seq[0];

        // (move, visits) of every node below `id`, depth first.
        fn shape(arena: &UctArena<u8>, id: Ix, out: &mut Vec<(u8, u64)>) {
            let mut c = arena.nodes[id as usize].first_child;
            while c != NIL {
                let n = &arena.nodes[c as usize];
                let visits = arena.cells.cells[n.cell as usize].visits;
                out.push((arena.pool[n.mv as usize], visits));
                shape(arena, c, out);
                c = n.next_sibling;
            }
        }
        fn node(arena: &UctArena<u8>, id: Ix) -> &Node {
            &arena.nodes[id as usize]
        }
        let mut child = node(&arena, ROOT as Ix).first_child;
        while arena.pool[node(&arena, child).mv as usize] != first {
            child = node(&arena, child).next_sibling;
        }
        let n = node(&arena, child);
        let visits = arena.cells.cells[n.cell as usize].visits;
        let untried = arena.pool[n.untried as usize..n.untried_end as usize].to_vec();
        let mut before = Vec::new();
        shape(&arena, child, &mut before);
        let bytes_before = arena.approx_bytes();

        arena.reroot(&first);
        let root = node(&arena, ROOT as Ix);
        assert_eq!(root.mv, NIL, "roots have no inbound move");
        assert_eq!(arena.cells.cells[root.cell as usize].visits, visits);
        assert_eq!(
            arena.pool[root.untried as usize..root.untried_end as usize],
            untried[..]
        );
        let mut after = Vec::new();
        shape(&arena, ROOT as Ix, &mut after);
        assert_eq!(after, before, "the subtree, in sibling order");
        assert_eq!(arena.nodes.len(), before.len() + 1, "siblings dropped");
        assert!(arena.approx_bytes() < bytes_before);
        assert!(arena.cells.live() == arena.nodes.len(), "one cell per node");

        // A move with no expanded child starts cold (9 is not a Ternary
        // move, standing in for an unexplored line).
        arena.reroot(&9u8);
        assert_eq!(arena.nodes.len(), 1);
        let root = node(&arena, ROOT as Ix);
        assert_eq!(arena.cells.cells[root.cell as usize].visits, 0);
        assert_eq!(arena.cells.live(), 1);
    }
}
