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
//! Two execution shapes share the algorithm:
//!
//! * the **arena** (`UctArena`) — the sequential tree, one iteration at
//!   a time, in a few flat vectors: nodes, one move pool and statistics
//!   cells. It serves `uct` with reuse off ([`uct_with`], a fresh
//!   table-less arena per search) and with reuse on (an arena with a
//!   transposition table, one-shot or kept across a
//!   [`SearchSession`](crate::SearchSession)'s steps and re-rooted
//!   under each committed move). It takes no lock and allocates nothing
//!   per expansion. Its descent walks the tree, not the board: each
//!   selected edge only appends its move to the descent's sequence, and
//!   the one position the search owns plays the pending moves when the
//!   descent needs a position — to list a new node's moves, to hash a
//!   new child, or to roll out. A node found terminal keeps its score,
//!   so an iteration that ends on one runs no game code at all (most
//!   iterations of a small SameGame search do);
//! * **tree-parallel** UCT ([`crate::spec::SearchSpec::tree_parallel`])
//!   in the style of the parallel-MCTS literature the paper cites: one
//!   shared tree (`TpTree`), `threads` workers on the [`ExecutorPool`]
//!   descending concurrently, each replaying its descent on its own
//!   position and rolling out its leaf outside every lock, and
//!   visit/value statistics accumulated atomically.
//!   (WU-UCT's master/worker shape, a selector keeping simulation
//!   workers busy, is what `threads` workers sharing one tree already
//!   are.) Two knobs control how the workers share the tree:
//!
//!   * [`LockStrategy`] — `Global` serialises every descent behind one
//!     structure mutex (the original arena behaviour, kept as the
//!     measured contention baseline); `Sharded` gives every node its
//!     own lock, so concurrent descents only contend when they touch
//!     the *same node at the same instant*.
//!   * [`StatsMode`] — `VirtualLoss` counts each in-flight descent as a
//!     pessimistic visit; `WuUct` implements the unobserved-sample
//!     statistics of *"Watch the Unobserved: a simple approach to
//!     parallelizing Monte Carlo tree search"* (Liu et al. 2020), where
//!     incomplete visits widen only the exploration term and never
//!     distort the observed mean.
//!
//!   A single-worker tree-parallel run is **bit-identical** to the
//!   arena for the same seed under *any* lock strategy and stats mode —
//!   both formulas reduce exactly to the sequential one when nothing is
//!   in flight. With a transposition table the identity holds too, for
//!   the default WU-UCT mode: both trees size and evict their tables
//!   alike, and the arena counts the cells a descent already holds as
//!   WU-UCT's in-flight samples, as the shared tree does. Multi-worker
//!   runs are inherently schedule-dependent and promise only a
//!   replayable best line (the conformance tests assert both halves).
//!   At most `threads` descents are ever in flight, and debug builds
//!   check at the end of every search that none still is.
//!
//! That identity licenses running every `uct` search on the arena, not
//! deleting `TpTree`: `TpTree` is the only tree several workers can
//! share, so it stays for `tree_parallel` at every width, reuse on or
//! off. No ledger workload runs it since `uct` with reuse on moved to
//! the arena; only the `core.uct.tptree_w1_*` rows do. At width 1 the
//! shared tree pays for a per-level `Arc` clone, a node mutex, CAS
//! back-ups and per-node allocations that have nothing to protect: on
//! `uct-cold-samegame` (≈ 1 µs iterations) it read ≈ −31 % `ops_per_s`
//! against the arena, and the median warm session step on 10×10
//! SameGame (500 iterations) takes ≈ 0.73× as long on the arena as on
//! `TpTree`.

use crate::ctx::SearchCtx;
use crate::exec::pool::ExecutorPool;
use crate::game::{Game, Score};
use crate::rng::Rng;
use crate::search::{Mark, Walker};
use crate::seeds::tree_worker_seed;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

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
/// bit-identical. One per search (sequential) or per worker (tree).
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

/// One node of the sequential arena. Children are a linked list in
/// expansion order, and moves live in one arena-wide pool: a node's
/// unexpanded moves are the range `pool[untried..untried_end]`, and the
/// move that led to it is the pool slot it was expanded from. Its
/// statistics are a [`Cell`], shared with transposed nodes when the
/// arena has a table. Growing the tree therefore allocates only when a
/// vector outgrows its capacity.
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
    /// The exploitation half of the UCB value,
    /// `(1 − max_bias)·mean + max_bias·maxv`, as last computed. Valid
    /// while `exploit_epoch` equals the arena's bounds epoch: only a
    /// backup through the cell or a move of the normalisation bounds
    /// changes it.
    exploit: f64,
    exploit_epoch: u64,
    /// Nodes and table slots holding the cell; at 0 it is free.
    holders: u32,
    /// Non-root nodes of the current descent holding the cell: WU-UCT's
    /// in-flight count, which one worker only sees when a descent
    /// meets a position it has already passed through.
    inflight: u32,
}

/// An `exploit_epoch` no search reaches: the cached term is stale.
const STALE: u64 = 0;

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
            exploit: 0.0,
            exploit_epoch: STALE,
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

/// One slot of a [`CellTable`]. Ticks start at 1, so `touch == 0`
/// marks an empty slot and a slot stays 24 bytes.
#[derive(Clone, Copy)]
struct Slot {
    key: u64,
    cell: usize,
    touch: u64,
}

/// The arena's transposition table: [`TransTable`]'s geometry and
/// eviction (the same set count for the same bound, [`TT_WAYS`] ways,
/// least-recently-touched victim) over cell indices, with no lock. The
/// slot vector is allocated once, so the table's own memory is bounded
/// by construction.
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

/// The sequential UCT tree, owned by one search or kept across the
/// steps of a session. It keeps its normalisation bounds and their
/// epoch, and with a table ([`UctArena::new`] with a bound) shares one
/// statistics cell between transposed positions exactly as [`TpTree`]
/// with a [`TransTable`] does: one worker on either is bit-identical,
/// hits and evictions included.
pub(crate) struct UctArena<M> {
    nodes: Vec<Node>,
    pool: Vec<M>,
    cells: Cells,
    table: Option<CellTable>,
    /// Running bounds for reward normalisation.
    lo: f64,
    hi: f64,
    /// Bumped whenever `lo` or `hi` moves, which stales every cached
    /// exploitation term at once.
    epoch: u64,
    /// Kept with the tree, whose visit counts carry over from step to
    /// step, so a warm step does not recompute their logarithms.
    ln: LnTable,
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
            epoch: STALE + 1,
            ln: LnTable::default(),
        }
    }

    /// Runs UCT from `game`, which must be the position the tree is
    /// rooted at, growing the tree in place.
    pub(crate) fn search<G: Game<Move = M>>(
        &mut self,
        game: &G,
        config: &UctConfig,
        rng: &mut Rng,
        ctx: &mut SearchCtx,
    ) -> (Score, Vec<M>) {
        // One body, compiled for each case: without a table no cell is
        // shared, and the table and in-flight bookkeeping fold away.
        if self.table.is_some() {
            self.search_on::<G, true>(game, config, rng, ctx)
        } else {
            self.search_on::<G, false>(game, config, rng, ctx)
        }
    }

    /// [`UctArena::search`], with `SHARED` telling whether the arena has
    /// a table. Only a table makes two nodes share a cell, so only then
    /// can a descent meet a cell it already holds (WU-UCT's in-flight
    /// count).
    fn search_on<G: Game<Move = M>, const SHARED: bool>(
        &mut self,
        game: &G,
        config: &UctConfig,
        rng: &mut Rng,
        ctx: &mut SearchCtx,
    ) -> (Score, Vec<M>) {
        let UctArena {
            nodes,
            pool,
            cells,
            table,
            ln,
            ..
        } = self;
        let (mut lo, mut hi, mut epoch) = (self.lo, self.hi, self.epoch);
        let mut best_score = Score::MIN;
        let mut best_seq: Vec<M> = Vec::new();
        let mut moves_buf: Vec<M> = Vec::new();
        // Cells and moves of the current descent, reused across iterations.
        let mut path: Vec<usize> = Vec::new();
        let mut seq: Vec<M> = Vec::new();
        // The descent walks the tree; this one position follows it down
        // only when a position is needed, and goes back to the root after.
        let mut trail = Trail {
            walker: Walker::new(game),
            root: None,
            played: 0,
        };
        for iteration in 0..config.iterations.max(1) {
            if iteration > 0 && ctx.should_stop() {
                break;
            }
            let mut id = ROOT;
            path.clear();
            path.push(nodes[ROOT].cell as usize);
            seq.clear();
            let mut terminal = false;

            // ---- selection ----
            loop {
                if !nodes[id].expanded {
                    let position = trail.at(&seq).position();
                    position.legal_moves_into(&mut moves_buf);
                    if moves_buf.is_empty() {
                        nodes[id].score = position.score();
                    }
                    let start = pool.len();
                    pool.append(&mut moves_buf);
                    // Shuffle once so expansion order is unbiased.
                    let moves = &mut pool[start..];
                    for i in (1..moves.len()).rev() {
                        let j = rng.below(i + 1);
                        moves.swap(i, j);
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
                    // The key is the *child* position's hash, so the
                    // move is played before the node exists.
                    let cell = match table {
                        Some(table) if SHARED => {
                            table.intern(trail.at(&seq).position().state_hash(), cells)
                        }
                        _ => cells.take(),
                    };
                    cells.hold(cell);
                    if SHARED {
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
                    break;
                }
                if nodes[id].first_child == NIL {
                    terminal = true;
                    break;
                }
                // UCB over children with normalised means + max bias.
                // Cells held earlier on this descent are WU-UCT's
                // unobserved samples (ln(N + O) and n + o); the node's
                // own mark is not one, and the root carries none.
                let span = (hi - lo).max(1.0);
                let here = &cells.cells[nodes[id].cell as usize];
                let others = if SHARED {
                    here.inflight - u32::from(id != ROOT)
                } else {
                    0
                };
                let ln_n = ln.ln(here.visits + u64::from(others));
                let mut best_child = nodes[id].first_child;
                let mut best_val = f64::NEG_INFINITY;
                let mut c = best_child;
                while c != NIL {
                    let node = &nodes[c as usize];
                    let n = &mut cells.cells[node.cell as usize];
                    if n.exploit_epoch != epoch {
                        let mean = (n.total / n.visits.max(1) as f64 - lo) / span;
                        let maxv = (n.best as f64 - lo) / span;
                        n.exploit = (1.0 - config.max_bias) * mean + config.max_bias * maxv;
                        n.exploit_epoch = epoch;
                    }
                    let in_flight = if SHARED { u64::from(n.inflight) } else { 0 };
                    let n_explore = (n.visits + in_flight).max(1) as f64;
                    let val = n.exploit + config.exploration * (ln_n / n_explore).sqrt();
                    if val > best_val {
                        best_val = val;
                        best_child = c;
                    }
                    c = node.next_sibling;
                }
                id = best_child as usize;
                let cell = nodes[id].cell as usize;
                if SHARED {
                    cells.cells[cell].inflight += 1;
                }
                seq.push(pool[nodes[id].mv as usize].clone());
                ctx.record_nested_move();
                path.push(cell);
            }

            // ---- rollout ----
            let score = if terminal {
                // What a rollout from a position with no moves does,
                // without the position: poll once, end the playout.
                ctx.should_stop();
                ctx.record_playout_end();
                nodes[id].score
            } else {
                trail.at(&seq).rollout(rng, None, &mut seq, ctx)
            };
            trail.reset();
            let s = score as f64;
            if s < lo || s > hi {
                lo = lo.min(s);
                hi = hi.max(s);
                epoch += 1;
                // Stored at once, so the kept tree's cached terms always
                // match the arena's epoch, even after a game panicked
                // mid-search.
                (self.lo, self.hi, self.epoch) = (lo, hi, epoch);
            }

            // ---- backpropagation ----
            for &c in &path {
                let n = &mut cells.cells[c];
                n.visits += 1;
                n.total += s;
                n.best = n.best.max(score);
                n.exploit_epoch = STALE;
            }
            if SHARED {
                for &c in &path[1..] {
                    cells.cells[c].inflight -= 1;
                }
            }

            if score > best_score {
                best_score = score;
                best_seq.clone_from(&seq);
            }
        }

        (best_score, best_seq)
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

/// The position of one [`UctArena`] descent. The descent records its
/// moves in its sequence and walks the tree; the walker plays them only
/// when a position is needed (to list a node's moves, hash a new child
/// or roll out), so a descent ending on a known terminal node runs no
/// game code.
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
/// The engine room behind `SearchSpec::uct()`: a fresh table-less
/// `UctArena`, dropped when the search returns. The node budget
/// (`Budget::max_nodes`) counts tree expansions, so a budgeted UCT run
/// is bounded in memory as well as time.
pub fn uct_with<G: Game>(
    game: &G,
    config: &UctConfig,
    rng: &mut Rng,
    ctx: &mut SearchCtx,
) -> (Score, Vec<G::Move>) {
    UctArena::new(None).search(game, config, rng, ctx)
}

// ---------------------------------------------------------------------
// Tree-parallel UCT
// ---------------------------------------------------------------------

/// How concurrent descents lock the shared tree's structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LockStrategy {
    /// One mutex serialises every selection + expansion (the original
    /// single-arena-mutex behaviour, kept as the measured contention
    /// baseline: ledger row `core.uct.tptree_w1_global_iter_per_s`).
    Global,
    /// Every node carries its own lock; descents contend only when they
    /// touch the same node at the same instant, so selection scales
    /// with tree breadth instead of serialising on one mutex.
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

/// How in-flight (started, not yet backpropagated) descents are folded
/// into the selection statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum StatsMode {
    /// Plain virtual loss: each in-flight descent counts as one visit
    /// scoring the pessimistic bound, dragging both the mean and the
    /// exploration term down.
    VirtualLoss,
    /// WU-UCT (Liu et al. 2020): in-flight descents widen only the
    /// exploration denominators (`N + O` in both UCB terms) while the
    /// exploitation mean stays the mean of *completed* rollouts — the
    /// "watch the unobserved" correction that avoids virtual loss's
    /// systematic pessimism.
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

/// Per-node search statistics of the shared tree, updated atomically so
/// backpropagation never takes any structural lock.
struct TpStats {
    visits: AtomicU64,
    /// Accumulated playout scores, stored as `f64` bits (CAS-add).
    total_bits: AtomicU64,
    /// Best playout score seen through this node.
    best: AtomicI64,
    /// In-flight descents: passed through this node, not yet
    /// backpropagated. [`StatsMode`] decides how selection reads it.
    inflight: AtomicU32,
}

impl TpStats {
    fn new() -> Self {
        TpStats {
            visits: AtomicU64::new(0),
            total_bits: AtomicU64::new(0f64.to_bits()),
            best: AtomicI64::new(Score::MIN),
            inflight: AtomicU32::new(0),
        }
    }
}

/// One node of the shared tree. `mv` and `stats` are immutable /
/// atomic and readable without any lock; the mutable structure
/// (children, expansion state) sits behind the node's own mutex, which
/// is what makes [`LockStrategy::Sharded`] contention-free for
/// descents that diverge.
///
/// `stats` is an `Arc` so a [`TransTable`] can hand the *same*
/// statistics cell to tree nodes reached by transposed move orders:
/// the tree stays a tree (edge `mv` labels and best-sequence replay
/// stay exact) while visit/value/best data is shared per position.
struct TpNode<M> {
    mv: Option<M>,
    stats: Arc<TpStats>,
    body: Mutex<TpBody<M>>,
}

struct TpBody<M> {
    children: Vec<Arc<TpNode<M>>>,
    unexpanded: Vec<M>,
    expanded: bool,
}

impl<M> TpBody<M> {
    fn empty() -> Self {
        TpBody {
            children: Vec::new(),
            unexpanded: Vec::new(),
            expanded: false,
        }
    }
}

impl<M> TpNode<M> {
    fn new(mv: Option<M>) -> Self {
        TpNode::with_stats(mv, Arc::new(TpStats::new()))
    }

    fn with_stats(mv: Option<M>, stats: Arc<TpStats>) -> Self {
        TpNode {
            mv,
            stats,
            body: Mutex::new(TpBody::empty()),
        }
    }
}

/// Set-associativity of the [`TransTable`] (slots scanned per lookup).
const TT_WAYS: usize = 8;

/// Default memory bound of a spec-level `tree_reuse` transposition
/// table (sessions size theirs through the engine's session budget).
pub(crate) const DEFAULT_TT_BYTES: usize = 8 * 1024 * 1024;

/// One occupied transposition slot: a position key, its shared
/// statistics cell, and the access tick driving LRU-within-set
/// eviction.
struct TtSlot {
    key: u64,
    stats: Arc<TpStats>,
    touch: u64,
}

/// A bounded transposition table keyed by [`Game::state_hash`], so
/// tree nodes reached by distinct move orders share one statistics
/// cell.
///
/// Set-associative with [`TT_WAYS`] ways: a lookup scans one set of
/// eight slots, an insert fills an empty way or evicts the
/// least-recently-touched one. The slot vector is allocated once at
/// construction, so memory is bounded *by construction* — churning a
/// million distinct states through the table recycles slots instead of
/// growing, and [`TransTable::bytes`] plateaus at the configured
/// bound. Everything is O(ways) per intern with no rehashing, and a
/// single-worker run interns in a deterministic order, keeping
/// reuse-on searches run-to-run deterministic at width 1.
///
/// Evicted statistics cells stay alive while tree nodes still hold
/// their `Arc`; eviction only stops *future* transpositions from
/// joining them.
pub(crate) struct TransTable {
    slots: Mutex<Vec<Option<TtSlot>>>,
    /// Set index mask (`set_count - 1`; set count is a power of two).
    set_mask: u64,
    /// Monotone access clock for LRU-within-set.
    tick: AtomicU64,
    occupied: AtomicUsize,
    hits: AtomicU64,
    evictions: AtomicU64,
}

/// Approximate heap cost of one occupied slot (inline slot + the
/// `Arc<TpStats>` allocation it owns).
fn tt_entry_bytes() -> usize {
    std::mem::size_of::<Option<TtSlot>>() + std::mem::size_of::<TpStats>()
}

/// The set count of a table bounded to `bytes_bound`: the largest power
/// of two whose [`TT_WAYS`]-way sets of [`tt_entry_bytes`] entries fit,
/// and at least one. [`TransTable`] and the arena's [`CellTable`] size
/// by it alike, so they evict alike.
fn tt_sets(bytes_bound: usize) -> usize {
    let capacity = (bytes_bound / tt_entry_bytes()).max(TT_WAYS);
    let mut sets = 1usize;
    while sets * 2 * TT_WAYS <= capacity {
        sets *= 2;
    }
    sets
}

impl TransTable {
    /// A table sized to stay within `bytes_bound` once full.
    pub(crate) fn new(bytes_bound: usize) -> Self {
        let sets = tt_sets(bytes_bound);
        let mut slots = Vec::new();
        slots.resize_with(sets * TT_WAYS, || None);
        TransTable {
            slots: Mutex::new(slots),
            set_mask: sets as u64 - 1,
            tick: AtomicU64::new(0),
            occupied: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the statistics cell for `key`, creating (and possibly
    /// evicting) as needed. Called once per tree expansion.
    fn intern(&self, key: u64) -> Arc<TpStats> {
        let mut slots = self.slots.lock();
        let set = (key & self.set_mask) as usize * TT_WAYS;
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut empty = None;
        let mut victim = set;
        let mut victim_touch = u64::MAX;
        for i in set..set + TT_WAYS {
            match &slots[i] {
                Some(s) if s.key == key => {
                    let stats = s.stats.clone();
                    slots[i].as_mut().expect("just matched").touch = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return stats;
                }
                Some(s) => {
                    if s.touch < victim_touch {
                        victim_touch = s.touch;
                        victim = i;
                    }
                }
                None => {
                    if empty.is_none() {
                        empty = Some(i);
                    }
                }
            }
        }
        let stats = Arc::new(TpStats::new());
        let slot = TtSlot {
            key,
            stats: stats.clone(),
            touch: tick,
        };
        match empty {
            Some(i) => {
                self.occupied.fetch_add(1, Ordering::Relaxed);
                slots[i] = Some(slot);
            }
            None => {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                slots[victim] = Some(slot);
            }
        }
        stats
    }

    /// Approximate bytes held: the fixed slot backing plus one stats
    /// allocation per occupied slot. Monotone up to the bound, then
    /// flat — eviction recycles slots instead of growing.
    ///
    /// This counts slots, not every statistics cell the table created:
    /// a cell it has evicted stays allocated while a live tree node
    /// holds its `Arc`. The statistics memory of a reuse-on tree is
    /// therefore bounded by `bytes()` plus one cell per live tree node,
    /// not by `bytes()` alone; [`TpTree::approx_bytes`] adds that part.
    pub(crate) fn bytes(&self) -> usize {
        let backing =
            ((self.set_mask as usize + 1) * TT_WAYS) * std::mem::size_of::<Option<TtSlot>>();
        backing + self.occupied.load(Ordering::Relaxed) * std::mem::size_of::<TpStats>()
    }

    /// (hits, evictions) counters, for tables and gauges.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.evictions.load(Ordering::Relaxed),
        )
    }
}

fn f64_cas_add(cell: &AtomicU64, add: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + add).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

fn f64_cas_min(cell: &AtomicU64, candidate: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if f64::from_bits(cur) <= candidate {
            return;
        }
        match cell.compare_exchange_weak(
            cur,
            candidate.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

fn f64_cas_max(cell: &AtomicU64, candidate: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if f64::from_bits(cur) >= candidate {
            return;
        }
        match cell.compare_exchange_weak(
            cur,
            candidate.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// The shared search tree plus the selection knobs every descent needs.
///
/// Crate-visible (not public API): a `tree_parallel` session holds one
/// across steps, re-rooting it on each committed move so the next
/// search starts warm. (A `uct` session keeps a `UctArena` instead.)
pub(crate) struct TpTree<M> {
    root: Arc<TpNode<M>>,
    /// Taken for the whole selection + expansion of one descent in
    /// [`LockStrategy::Global`] mode; untouched in `Sharded` mode.
    structure: Mutex<()>,
    /// Running reward-normalisation bounds, shared by every worker.
    lo_bits: AtomicU64,
    hi_bits: AtomicU64,
    exploration: f64,
    max_bias: f64,
    lock: LockStrategy,
    stats: StatsMode,
    /// When present, expansions intern their position's `state_hash`
    /// here and share the statistics cell with transposed lines. Absent
    /// on the reuse-off path, which therefore stays byte-for-byte the
    /// pre-table behaviour.
    table: Option<TransTable>,
}

/// Per-worker descent buffers, reused across iterations so the hot
/// loop stays allocation-free after warm-up.
struct DescentScratch<G: Game> {
    moves: Vec<G::Move>,
    /// Moves of the current descent + rollout (the candidate best line).
    seq: Vec<G::Move>,
    /// Nodes of the current descent, root first.
    path: Vec<Arc<TpNode<G::Move>>>,
    ln: LnTable,
}

impl<G: Game> DescentScratch<G> {
    fn new() -> Self {
        DescentScratch {
            moves: Vec::new(),
            seq: Vec::new(),
            path: Vec::new(),
            ln: LnTable::default(),
        }
    }
}

impl<M: Clone> TpTree<M> {
    pub(crate) fn new(config: &UctConfig, lock: LockStrategy, stats: StatsMode) -> Self {
        TpTree {
            root: Arc::new(TpNode::new(None)),
            structure: Mutex::new(()),
            lo_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            hi_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            exploration: config.exploration,
            max_bias: config.max_bias,
            lock,
            stats,
            table: None,
        }
    }

    /// Like [`TpTree::new`] but with a transposition table bounded to
    /// `table_bytes` — the reuse-on tree.
    pub(crate) fn with_table(
        config: &UctConfig,
        lock: LockStrategy,
        stats: StatsMode,
        table_bytes: usize,
    ) -> Self {
        let mut tree = TpTree::new(config, lock, stats);
        tree.table = Some(TransTable::new(table_bytes));
        tree
    }

    /// The transposition table, if this is a reuse-on tree.
    pub(crate) fn table(&self) -> Option<&TransTable> {
        self.table.as_ref()
    }

    /// Re-roots the tree on the child reached by `mv`, keeping that
    /// subtree (statistics included) and the shared normalisation
    /// bounds; sibling subtrees are dropped. A move that was never
    /// expanded re-roots onto a fresh cold node. Must not run
    /// concurrently with a search on this tree (sessions serialise
    /// steps behind their own lock).
    pub(crate) fn reroot(&mut self, mv: &M)
    where
        M: PartialEq,
    {
        let taken = {
            let mut body = self.root.body.lock();
            body.children
                .iter()
                .position(|c| c.mv.as_ref() == Some(mv))
                .map(|i| body.children.swap_remove(i))
        };
        self.root = match taken {
            Some(child) => {
                // The subtree body moves wholesale onto the new root;
                // `mv: None` keeps root semantics (WU-UCT's in-flight
                // exclusion keys off `mv.is_some()`).
                let inner = std::mem::replace(&mut *child.body.lock(), TpBody::empty());
                Arc::new(TpNode {
                    mv: None,
                    stats: child.stats.clone(),
                    body: Mutex::new(inner),
                })
            }
            None => Arc::new(TpNode::new(None)),
        };
    }

    /// Approximate heap bytes of the live tree (a between-steps walk —
    /// re-rooting drops subtrees, so this is recomputed, not counted)
    /// plus the transposition table's bound-plateaued footprint.
    ///
    /// The walk counts one statistics cell per node, so cells the table
    /// has evicted but live nodes still hold are included. A cell shared
    /// by several holders (nodes, or a node and a table slot) is counted
    /// once per holder, so cells are over- rather than under-counted.
    /// Not counted: each `Arc`'s two reference counts and the
    /// allocator's own overhead.
    pub(crate) fn approx_bytes(&self) -> usize {
        fn walk<M>(node: &TpNode<M>) -> usize {
            let body = node.body.lock();
            let own = std::mem::size_of::<TpNode<M>>()
                + std::mem::size_of::<TpStats>()
                + body.unexpanded.capacity() * std::mem::size_of::<M>()
                + body.children.capacity() * std::mem::size_of::<Arc<TpNode<M>>>();
            own + body.children.iter().map(|c| walk(c)).sum::<usize>()
        }
        walk(&self.root) + self.table.as_ref().map_or(0, |t| t.bytes())
    }

    /// UCB over `children` with normalised means + max bias, folding
    /// in-flight descents in per the [`StatsMode`]. With nothing in
    /// flight both modes compute exactly the sequential formula — the
    /// keystone of the single-worker bit-identity contract.
    fn select_child(
        &self,
        parent: &TpNode<M>,
        children: &[Arc<TpNode<M>>],
        ln: &mut LnTable,
    ) -> Arc<TpNode<M>> {
        let lo = f64::from_bits(self.lo_bits.load(Ordering::Relaxed));
        let hi = f64::from_bits(self.hi_bits.load(Ordering::Relaxed));
        if !(lo.is_finite() && hi.is_finite()) {
            // Warm-up: every completed rollout updates lo/hi, so
            // non-finite bounds mean all of this node's children have
            // their first rollout still in flight (only reachable with
            // several workers — a single worker finishes each rollout
            // before the next selection). The UCB terms would all be
            // NaN here and NaN comparisons would pile every worker onto
            // child 0, so spread descents by fewest in-flight instead.
            let mut best = &children[0];
            let mut best_fl = u32::MAX;
            for c in children {
                let fl = c.stats.inflight.load(Ordering::Relaxed);
                if fl < best_fl {
                    best_fl = fl;
                    best = c;
                }
            }
            return best.clone();
        }
        let span = (hi - lo).max(1.0);
        let parent_visits = parent.stats.visits.load(Ordering::Relaxed);
        let ln_n = ln.ln(match self.stats {
            StatsMode::VirtualLoss => parent_visits,
            StatsMode::WuUct => {
                // WU-UCT's parent term is ln(N + O). The selecting
                // descent itself already counts 1 in this (non-root)
                // node's in-flight tally; exclude it so the count is
                // "other unobserved samples" — and so one worker
                // reduces exactly to the sequential ln(N).
                let own = u64::from(parent.mv.is_some());
                let others =
                    (parent.stats.inflight.load(Ordering::Relaxed) as u64).saturating_sub(own);
                parent_visits + others
            }
        });
        let mut best_val = f64::NEG_INFINITY;
        let mut best = &children[0];
        for c in children {
            let st = &c.stats;
            let visits = st.visits.load(Ordering::Relaxed);
            let fl = st.inflight.load(Ordering::Relaxed) as u64;
            let (mean_raw, n_explore) = match self.stats {
                StatsMode::VirtualLoss => {
                    // Each in-flight descent counts as one visit scoring
                    // `lo` (the pessimistic bound).
                    let n_eff = (visits + fl).max(1) as f64;
                    let total =
                        f64::from_bits(st.total_bits.load(Ordering::Relaxed)) + fl as f64 * lo;
                    (total / n_eff, n_eff)
                }
                StatsMode::WuUct => {
                    // Mean of *completed* rollouts only; in-flight
                    // descents widen the exploration denominator.
                    let total = f64::from_bits(st.total_bits.load(Ordering::Relaxed));
                    let mean = if visits == 0 {
                        lo
                    } else {
                        total / visits as f64
                    };
                    (mean, (visits + fl).max(1) as f64)
                }
            };
            // A child whose first visit is still in flight has no real
            // best yet; rate it at the bound.
            let best_seen = if visits == 0 {
                lo
            } else {
                st.best.load(Ordering::Relaxed) as f64
            };
            let mean = (mean_raw - lo) / span;
            let maxv = (best_seen - lo) / span;
            let explore = self.exploration * (ln_n / n_explore).sqrt();
            let val = (1.0 - self.max_bias) * mean + self.max_bias * maxv + explore;
            if val > best_val {
                best_val = val;
                best = c;
            }
        }
        best.clone()
    }

    /// Walks one selection + expansion descent from the root, playing
    /// its moves on `walker` and filling `scr.seq` / `scr.path`. Marks every
    /// non-root node on the path in-flight; the matching decrement
    /// happens in [`tp_backprop`]. Rollouts always run *after* this
    /// returns, outside every structural lock.
    fn descend<G>(
        &self,
        walker: &mut Walker<G>,
        scr: &mut DescentScratch<G>,
        rng: &mut Rng,
        wctx: &mut SearchCtx,
    ) where
        G: Game<Move = M>,
    {
        let _structure_guard =
            matches!(self.lock, LockStrategy::Global).then(|| self.structure.lock());
        scr.path.push(self.root.clone());
        let mut node = self.root.clone();
        loop {
            let next: Arc<TpNode<M>>;
            let expanded_child: bool;
            {
                let mut body = node.body.lock();
                if !body.expanded {
                    walker.position().legal_moves_into(&mut scr.moves);
                    body.unexpanded = scr.moves.clone();
                    body.expanded = true;
                    // Shuffle once so expansion order is unbiased.
                    let n = body.unexpanded.len();
                    for i in (1..n).rev() {
                        let j = rng.below(i + 1);
                        body.unexpanded.swap(i, j);
                    }
                }
                // Expand one child if any remain.
                if let Some(mv) = body.unexpanded.pop() {
                    if let Some(table) = self.table.as_ref() {
                        // Transposition path: the key is the *child*
                        // position's hash, so the move is applied before
                        // the node exists. The popped move is exclusively
                        // ours, so the parent lock can drop first —
                        // apply/state_hash/intern all run outside node
                        // locks (`intern` takes only the table's own).
                        drop(body);
                        walker.play(&mv);
                        let stats = table.intern(walker.position().state_hash());
                        let child = Arc::new(TpNode::with_stats(Some(mv.clone()), stats));
                        // In-flight before publication, same invariant as
                        // the in-lock mark below.
                        child.stats.inflight.fetch_add(1, Ordering::Relaxed);
                        node.body.lock().children.push(child.clone());
                        scr.seq.push(mv);
                        wctx.record_expansion();
                        scr.path.push(child);
                        return;
                    }
                    let child = Arc::new(TpNode::new(Some(mv)));
                    body.children.push(child.clone());
                    next = child;
                    expanded_child = true;
                } else if body.children.is_empty() {
                    return; // terminal leaf
                } else {
                    next = self.select_child(&node, &body.children, &mut scr.ln);
                    expanded_child = false;
                }
                // Mark the step in flight *before* releasing the parent
                // lock: a concurrent selector at this node must never
                // see a published child (or a just-chosen sibling) with
                // a stale zero in-flight count — in VirtualLoss mode an
                // unmarked fresh child would score a raw 0.0 mean
                // instead of the pessimistic bound, dog-piling descents
                // onto the very line the marker exists to spread.
                next.stats.inflight.fetch_add(1, Ordering::Relaxed);
            }
            let mv = next.mv.clone().expect("non-root");
            walker.play(&mv);
            scr.seq.push(mv);
            if expanded_child {
                wctx.record_expansion();
            } else {
                wctx.record_nested_move();
            }
            scr.path.push(next.clone());
            if expanded_child {
                return;
            }
            node = next;
        }
    }

    /// Folds one completed rollout into the shared bounds and the
    /// path's atomic statistics, releasing the in-flight markers.
    fn backprop(&self, path: &[Arc<TpNode<M>>], score: Score) {
        let s = score as f64;
        f64_cas_min(&self.lo_bits, s);
        f64_cas_max(&self.hi_bits, s);
        for (depth, node) in path.iter().enumerate() {
            let st = &node.stats;
            st.visits.fetch_add(1, Ordering::Relaxed);
            f64_cas_add(&st.total_bits, s);
            st.best.fetch_max(score, Ordering::Relaxed);
            if depth > 0 {
                st.inflight.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// The invariants a finished search leaves behind (ROADMAP 3(b)),
    /// checked in debug builds once every worker has returned:
    ///
    /// * no descent is still in flight anywhere in the tree;
    /// * on a table-less tree (built fresh per search, never re-rooted),
    ///   every node with a child has Σ child visits = visits − 1, and the
    ///   root Σ child visits = visits. Each iteration ends either at the
    ///   one node it created or at a terminal node, so every visit of a
    ///   node but its first continues into exactly one child. A
    ///   transposition table shares statistics cells between nodes, so
    ///   there only the first law is checked.
    #[cfg(debug_assertions)]
    fn assert_quiescent(&self) {
        fn walk<M>(node: &TpNode<M>, conserve: bool) {
            let body = node.body.lock();
            let visits = node.stats.visits.load(Ordering::Relaxed);
            assert_eq!(
                node.stats.inflight.load(Ordering::Relaxed),
                0,
                "a descent is still in flight after the search (visits {visits})"
            );
            if conserve && !body.children.is_empty() {
                let below: u64 = body
                    .children
                    .iter()
                    .map(|c| c.stats.visits.load(Ordering::Relaxed))
                    .sum();
                let own = u64::from(node.mv.is_some());
                assert_eq!(
                    below + own,
                    visits,
                    "child visits do not add up to the node's (root: {})",
                    node.mv.is_none()
                );
            }
            for c in &body.children {
                walk(c, conserve);
            }
        }
        walk(&self.root, self.table.is_none());
    }
}

/// Shared state of one tree-parallel run (tree + budget counters +
/// incumbent), with the worker loop as a method.
struct TpRun<'a, G: Game> {
    game: &'a G,
    tree: &'a TpTree<G::Move>,
    /// Iterations are claimed from this shared counter, so the total
    /// playout budget matches the sequential run at any width.
    iters: AtomicUsize,
    max_iters: usize,
    best: Mutex<(Score, Vec<G::Move>)>,
    seed: u64,
}

impl<G> TpRun<'_, G>
where
    G: Game + Send + Sync,
    G::Move: Send + Sync,
{
    fn offer_best(&self, score: Score, seq: &mut Vec<G::Move>) {
        let mut best = self.best.lock();
        if score > best.0 {
            best.0 = score;
            best.1 = std::mem::take(seq);
        }
    }

    /// One tree worker: descend, roll out its own leaf, back up — one
    /// iteration at a time, rollouts outside every lock.
    fn worker(&self, slot: usize, wctx: &mut SearchCtx) {
        let mut rng = Rng::seeded(tree_worker_seed(self.seed, slot));
        let mut walker = Walker::new(self.game);
        let mut scr = DescentScratch::new();

        loop {
            let iteration = self.iters.fetch_add(1, Ordering::Relaxed);
            if iteration >= self.max_iters {
                break;
            }
            if iteration > 0 && wctx.should_stop() {
                break;
            }

            let root = walker.mark();
            scr.seq.clear();
            scr.path.clear();

            // ---- selection + expansion ----
            self.tree.descend(&mut walker, &mut scr, &mut rng, wctx);

            // ---- rollout (outside every lock) ----
            let score = walker.rollout(&mut rng, None, &mut scr.seq, wctx);
            walker.rewind(root);

            // ---- backpropagation (lock-free) ----
            self.tree.backprop(&scr.path, score);
            self.offer_best(score, &mut scr.seq);
        }
    }
}

/// Tree-parallel UCT on `tree`: `threads` workers share it through the
/// process-wide [`ExecutorPool`], descending concurrently. The engine
/// room behind `SearchSpec::tree_parallel` (which passes a fresh tree)
/// and `SearchSession` (which keeps one across steps, re-rooted per
/// committed move). The tree's selection knobs were fixed at its
/// construction and must match `config`.
///
/// Concurrency shape: selection and expansion (cheap pointer-chasing)
/// run under per-node locks ([`LockStrategy::Sharded`]) or one
/// structure mutex ([`LockStrategy::Global`], the measured baseline);
/// each worker rolls out its own leaf — the dominant cost on every
/// domain we ship — outside every lock; backpropagation goes straight
/// to the nodes' atomic counters. In-flight descents steer workers apart
/// per the [`StatsMode`], and both formulas reduce *exactly* to the
/// sequential one when nothing is in flight — which is why
/// `threads == 1` is bit-identical to [`uct_with`] per seed (asserted by
/// `tests/cross_backend.rs`).
///
/// Budget/cancellation polls hit every worker once per iteration plus
/// once per playout move (inside the rollout), sharing one atomic meter
/// through the forked [`SearchCtx`]s; tree-parallel overshoots a
/// playout cap by at most one in-flight rollout per worker
/// (`tests/budget_props.rs` proves the bound at every width).
pub(crate) fn uct_tree_parallel_on<G>(
    game: &G,
    tree: &TpTree<G::Move>,
    config: &UctConfig,
    threads: usize,
    seed: u64,
    ctx: &mut SearchCtx,
) -> (Score, Vec<G::Move>)
where
    G: Game + Send + Sync,
    G::Move: Send + Sync,
{
    assert!(threads >= 1, "tree-parallel UCT needs at least one worker");
    debug_assert_eq!(tree.exploration.to_bits(), config.exploration.to_bits());
    debug_assert_eq!(tree.max_bias.to_bits(), config.max_bias.to_bits());
    let run = TpRun {
        game,
        tree,
        iters: AtomicUsize::new(0),
        max_iters: config.iterations.max(1),
        best: Mutex::new((Score::MIN, Vec::new())),
        seed,
    };
    let outs: Mutex<Vec<SearchCtx>> = Mutex::new(Vec::with_capacity(threads));
    let parent: &SearchCtx = ctx;

    ExecutorPool::shared().run_batch(threads, &|slot| {
        let mut wctx = parent.fork();
        run.worker(slot, &mut wctx);
        outs.lock().push(wctx);
    });

    #[cfg(debug_assertions)]
    tree.assert_quiescent();
    for wctx in outs.into_inner() {
        ctx.absorb(wctx);
    }
    run.best.into_inner()
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

    fn optimum(d: usize) -> Score {
        (0..d).fold(0, |acc, _| acc * 3 + 2)
    }

    #[test]
    fn uct_solves_small_games() {
        let g = Ternary {
            depth: 4,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 2_000,
            ..Default::default()
        };
        let r = SearchResult::unbounded(|ctx| uct_with(&g, &cfg, &mut Rng::seeded(1), ctx));
        assert_eq!(r.score, optimum(4));
    }

    #[test]
    fn uct_sequences_replay_to_their_score() {
        for seed in 0..10 {
            let g = Ternary {
                depth: 5,
                taken: vec![],
            };
            let cfg = UctConfig {
                iterations: 200,
                ..Default::default()
            };
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
        let g = Ternary {
            depth: 6,
            taken: vec![],
        };
        let budget = 300;
        let trials = 20;
        let mut uct_total = 0;
        let mut flat_total = 0;
        for seed in 0..trials {
            let cfg = UctConfig {
                iterations: budget,
                ..Default::default()
            };
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
        let g = Ternary {
            depth: 5,
            taken: vec![],
        };
        let score_at = |iters: usize| {
            (0..10)
                .map(|s| {
                    let cfg = UctConfig {
                        iterations: iters,
                        ..Default::default()
                    };
                    SearchResult::unbounded(|ctx| uct_with(&g, &cfg, &mut Rng::seeded(s), ctx))
                        .score
                })
                .sum::<Score>()
        };
        assert!(score_at(1_000) >= score_at(30));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = Ternary {
            depth: 4,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 100,
            ..Default::default()
        };
        let a = SearchResult::unbounded(|ctx| uct_with(&g, &cfg, &mut Rng::seeded(9), ctx));
        let b = SearchResult::unbounded(|ctx| uct_with(&g, &cfg, &mut Rng::seeded(9), ctx));
        assert_eq!(a.score, b.score);
        assert_eq!(a.sequence, b.sequence);
    }

    /// Every lock × stats combination.
    const ALL_MODES: [(LockStrategy, StatsMode); 4] = [
        (LockStrategy::Global, StatsMode::VirtualLoss),
        (LockStrategy::Global, StatsMode::WuUct),
        (LockStrategy::Sharded, StatsMode::VirtualLoss),
        (LockStrategy::Sharded, StatsMode::WuUct),
    ];

    /// Tree-parallel UCT on a fresh table-less tree.
    fn tree_parallel<G>(
        game: &G,
        cfg: &UctConfig,
        (lock, stats): (LockStrategy, StatsMode),
        threads: usize,
        seed: u64,
        ctx: &mut SearchCtx,
    ) -> (Score, Vec<G::Move>)
    where
        G: Game + Send + Sync,
        G::Move: Send + Sync,
    {
        let tree = TpTree::new(cfg, lock, stats);
        uct_tree_parallel_on(game, &tree, cfg, threads, seed, ctx)
    }

    #[test]
    fn single_worker_tree_parallel_is_bit_identical_to_sequential_in_every_mode() {
        let cfg = UctConfig {
            iterations: 300,
            ..Default::default()
        };
        for seed in 0..10 {
            let g = Ternary {
                depth: 5,
                taken: vec![],
            };
            let mut seq_ctx = SearchCtx::unbounded();
            let sequential = uct_with(&g, &cfg, &mut Rng::seeded(seed), &mut seq_ctx);
            for mode in ALL_MODES {
                let mut tp_ctx = SearchCtx::unbounded();
                let tree = tree_parallel(&g, &cfg, mode, 1, seed, &mut tp_ctx);
                assert_eq!(tree, sequential, "seed {seed} {mode:?}");
                assert_eq!(tp_ctx.stats(), seq_ctx.stats(), "seed {seed} {mode:?}");
            }
        }
    }

    #[test]
    fn multi_worker_tree_parallel_replays_and_honours_the_iteration_total() {
        let g = Ternary {
            depth: 6,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 400,
            ..Default::default()
        };
        for workers in [2usize, 4] {
            for mode in ALL_MODES {
                let mut ctx = SearchCtx::unbounded();
                let (score, seq) = tree_parallel(&g, &cfg, mode, workers, 9, &mut ctx);
                let mut replay = g.clone();
                for mv in &seq {
                    replay.play(mv);
                }
                assert_eq!(replay.score(), score, "t{workers} {mode:?}");
                // The iteration counter is shared: total playouts equal
                // the configured budget no matter how many workers split
                // it.
                assert_eq!(ctx.stats().playouts, 400, "t{workers} {mode:?}");
            }
        }
    }

    #[test]
    fn multi_worker_tree_parallel_still_solves_small_games() {
        let g = Ternary {
            depth: 4,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 2_000,
            ..Default::default()
        };
        let mut ctx = SearchCtx::unbounded();
        let default = (LockStrategy::default(), StatsMode::default());
        let (score, _) = tree_parallel(&g, &cfg, default, 4, 1, &mut ctx);
        assert_eq!(score, optimum(4));
    }

    #[test]
    fn tree_parallel_terminal_root_is_handled() {
        let g = Ternary {
            depth: 0,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 10,
            ..Default::default()
        };
        for mode in ALL_MODES {
            let mut ctx = SearchCtx::unbounded();
            let (score, seq) = tree_parallel(&g, &cfg, mode, 3, 1, &mut ctx);
            assert_eq!(score, 0, "{mode:?}");
            assert!(seq.is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn terminal_root_is_handled() {
        let g = Ternary {
            depth: 0,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 10,
            ..Default::default()
        };
        let r = SearchResult::unbounded(|ctx| uct_with(&g, &cfg, &mut Rng::seeded(1), ctx));
        assert_eq!(r.score, 0);
        assert!(r.sequence.is_empty());
    }

    #[test]
    fn trans_table_bytes_plateau_under_a_million_state_churn() {
        let bound = 64 * 1024;
        let table = TransTable::new(bound);
        assert!(
            table.bytes() <= bound,
            "fresh table backing {} must fit the bound {bound}",
            table.bytes()
        );
        let mut peak = 0usize;
        for key in 0..1_000_000u64 {
            table.intern(crate::rng::mix64(key + 1));
            peak = peak.max(table.bytes());
        }
        assert!(
            peak <= bound + tt_entry_bytes() * TT_WAYS,
            "peak {peak} exceeded bound {bound}: churn must recycle slots, not grow"
        );
        assert_eq!(
            table.bytes(),
            peak,
            "a full table is flat: bytes stays at the plateau"
        );
        let (_, evictions) = table.counters();
        assert!(evictions > 0, "a million states must overflow 64 KiB");
    }

    #[test]
    fn trans_table_interns_same_key_to_the_same_stats_cell() {
        let table = TransTable::new(16 * 1024);
        let a = table.intern(42);
        let b = table.intern(42);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one cell");
        let c = table.intern(43);
        assert!(!Arc::ptr_eq(&a, &c), "distinct keys get distinct cells");
        assert_eq!(table.counters().0, 1, "exactly one hit");
    }

    #[test]
    fn reroot_keeps_the_chosen_subtree_statistics() {
        let g = Ternary {
            depth: 4,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 500,
            ..Default::default()
        };
        let mut tree = TpTree::new(&cfg, LockStrategy::default(), StatsMode::default());
        let mut ctx = SearchCtx::unbounded();
        let (_, seq) = uct_tree_parallel_on(&g, &tree, &cfg, 1, 7, &mut ctx);
        let first = seq[0];

        let child_visits = {
            let body = tree.root.body.lock();
            let child = body
                .children
                .iter()
                .find(|c| c.mv == Some(first))
                .expect("the best line's first move was expanded");
            child.stats.visits.load(Ordering::Relaxed)
        };
        assert!(child_visits > 0);
        let bytes_before = tree.approx_bytes();

        tree.reroot(&first);
        assert_eq!(
            tree.root.stats.visits.load(Ordering::Relaxed),
            child_visits,
            "the new root carries the child's visit count"
        );
        assert!(tree.root.mv.is_none(), "roots have no inbound move");
        assert!(
            tree.approx_bytes() < bytes_before,
            "re-rooting drops the sibling subtrees"
        );

        // Re-rooting on a move with no expanded child starts cold (9 is
        // not a Ternary move, standing in for an unexplored line).
        tree.reroot(&9u8);
        assert_eq!(tree.root.stats.visits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn table_backed_single_worker_runs_are_run_to_run_deterministic() {
        let g = Ternary {
            depth: 5,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 300,
            ..Default::default()
        };
        for seed in 0..5 {
            let run = |cfg: &UctConfig| {
                let tree = TpTree::with_table(
                    cfg,
                    LockStrategy::default(),
                    StatsMode::default(),
                    256 * 1024,
                );
                let mut ctx = SearchCtx::unbounded();
                let out = uct_tree_parallel_on(&g, &tree, cfg, 1, seed, &mut ctx);
                (out, *ctx.stats())
            };
            let a = run(&cfg);
            let b = run(&cfg);
            assert_eq!(a, b, "seed {seed}: width-1 reuse-on is deterministic");
        }
    }

    #[test]
    fn table_backed_tree_still_solves_small_games() {
        let g = Ternary {
            depth: 4,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 2_000,
            ..Default::default()
        };
        for threads in [1usize, 4] {
            let tree = TpTree::with_table(
                &cfg,
                LockStrategy::default(),
                StatsMode::default(),
                1024 * 1024,
            );
            let mut ctx = SearchCtx::unbounded();
            let (score, seq) = uct_tree_parallel_on(&g, &tree, &cfg, threads, 3, &mut ctx);
            assert_eq!(score, optimum(4), "threads {threads}");
            let mut replay = g.clone();
            for mv in &seq {
                replay.play(mv);
            }
            assert_eq!(replay.score(), score, "threads {threads}: replayable line");
        }
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
        let cfg = UctConfig {
            iterations: 2_000,
            ..Default::default()
        };
        let tree = TpTree::with_table(
            &cfg,
            LockStrategy::default(),
            StatsMode::default(),
            1024 * 1024,
        );
        let mut ctx = SearchCtx::unbounded();
        let (score, _) = uct_tree_parallel_on(&g, &tree, &cfg, 1, 5, &mut ctx);
        assert_eq!(score, 0b111100, "the four heaviest items win");
        let (hits, _) = tree.table().expect("reuse-on tree").counters();
        assert!(
            hits > 0,
            "permuted picks reach equal sets; the table must dedupe them"
        );

        // The sharing is physical: two distinct depth-1 children that
        // lead to a common grandchild set expose the same Arc somewhere
        // below — spot-check that total interns < total expansions.
        let expansions = ctx.stats().expansions as usize;
        assert!(
            (hits as usize) + tree_distinct_stats(&tree.root) == expansions + 1,
            "every expansion either hit the table or made a fresh cell \
             (hits {hits} + distinct vs expansions {expansions} + root)"
        );
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
    /// it on the first step), checking after every re-root that every
    /// cell counts its holders exactly, that free cells are exactly the
    /// unheld ones, and so that live cells ≤ occupied slots + live
    /// nodes: the memory bound `approx_bytes` documents.
    #[test]
    fn arena_cells_stay_within_occupied_slots_plus_live_nodes() {
        let cfg = UctConfig {
            iterations: 400,
            ..Default::default()
        };
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
            let (_, seq) = arena.search(&game, &cfg, &mut Rng::seeded(step), &mut ctx);
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

    /// The same bound on the shared tree, whose cells are `Arc`s: the
    /// distinct cells held by its nodes and its table slots.
    #[test]
    fn shared_tree_cells_stay_within_occupied_slots_plus_live_nodes() {
        let cfg = UctConfig {
            iterations: 400,
            ..Default::default()
        };
        let mut game = PickMany {
            chosen: 0,
            count: 0,
        };
        let (lock, stats) = (LockStrategy::default(), StatsMode::default());
        let mut tree = TpTree::with_table(&cfg, lock, stats, 512);
        for step in 0u64.. {
            if game.is_terminal() {
                break;
            }
            let mut ctx = SearchCtx::unbounded();
            let (_, seq) = uct_tree_parallel_on(&game, &tree, &cfg, 1, step, &mut ctx);
            tree.reroot(&seq[0]);
            game.play(&seq[0]);

            let table = tree.table().expect("reuse-on tree");
            let mut seen = Vec::new();
            let nodes = tree_cells(&tree.root, &mut seen);
            let slots = table.slots.lock();
            let occupied = slots.iter().flatten().count();
            for slot in slots.iter().flatten() {
                let ptr = Arc::as_ptr(&slot.stats);
                if !seen.contains(&ptr) {
                    seen.push(ptr);
                }
            }
            assert!(
                seen.len() <= occupied + nodes,
                "step {step}: {} live cells, {occupied} slots, {nodes} nodes",
                seen.len()
            );
        }
        let (_, evictions) = tree.table().expect("reuse-on tree").counters();
        assert!(evictions > 0, "the tree must outgrow 64 slots");
    }

    /// Pushes the distinct cells of the subtree onto `seen`; returns its
    /// node count.
    fn tree_cells<M>(node: &TpNode<M>, seen: &mut Vec<*const TpStats>) -> usize {
        let ptr = Arc::as_ptr(&node.stats);
        if !seen.contains(&ptr) {
            seen.push(ptr);
        }
        let body = node.body.lock();
        1 + body
            .children
            .iter()
            .map(|c| tree_cells(c, seen))
            .sum::<usize>()
    }

    #[test]
    fn arena_reroot_keeps_the_chosen_subtree_in_sibling_order() {
        let g = Ternary {
            depth: 5,
            taken: vec![],
        };
        let cfg = UctConfig {
            iterations: 500,
            ..Default::default()
        };
        let mut arena = UctArena::new(None);
        let mut ctx = SearchCtx::unbounded();
        let (_, seq) = arena.search(&g, &cfg, &mut Rng::seeded(7), &mut ctx);
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

    /// Counts distinct statistics cells in the subtree (root included).
    fn tree_distinct_stats<M>(node: &TpNode<M>) -> usize {
        let mut seen = Vec::new();
        tree_cells(node, &mut seen);
        seen.len()
    }
}
