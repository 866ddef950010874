//! SameGame — the classic tile-collapsing puzzle, the other standard NMCS
//! benchmark domain (Cazenave's IJCAI'09 NMCS paper evaluates on it).
//!
//! Rules: click a group of ≥2 orthogonally-connected same-coloured tiles to
//! remove it, scoring `(n − 2)²` for a group of `n`. Tiles above fall
//! down; empty columns close up to the left. Clearing the whole board
//! earns a +1000 bonus. The game ends when no group of ≥2 remains.

use nmcs_core::{mix64, CodedGame, Game, Rng, Score, Undo};

/// Bonus for clearing the entire board.
pub const CLEAR_BONUS: Score = 1000;

/// Domain-separation salts of the board hash (non-zero: `mix64(0) == 0`).
const SAMEGAME_COL_SALT: u64 = 0x1fb7_62d9_8e04_c3a5;
const SAMEGAME_HASH_SALT: u64 = 0xc50a_39e6_271d_b84f;

/// Content hash of one column (bottom-up tile colours). The sequential
/// fold encodes the length implicitly; an empty column hashes to the
/// salt itself.
#[inline]
fn column_hash(col: &[u8]) -> u64 {
    let mut h = SAMEGAME_COL_SALT;
    for &c in col {
        h = mix64(h ^ c as u64);
    }
    h
}

/// Reusable flood-fill scratch of the playout core. `legal_moves` takes
/// `&self`, so the buffers live in a thread-local (cheap: one borrow per
/// movegen) instead of the game struct. Visit marks are epoch-stamped so
/// nothing is ever cleared between calls.
#[derive(Default)]
struct FloodScratch {
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<(u8, u8)>,
    members: Vec<(u8, u8)>,
    /// Flat colour snapshot (`0` = empty) rebuilt per movegen: floods
    /// then read one array instead of chasing `Vec<Vec<u8>>` bounds.
    grid: Vec<u8>,
}

impl FloodScratch {
    /// Opens a fresh visit epoch over `cells` cells.
    fn begin(&mut self, cells: usize) {
        if self.stamp.len() < cells {
            self.stamp.resize(cells, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    #[inline]
    fn seen(&self, i: usize) -> bool {
        self.stamp[i] == self.epoch
    }

    #[inline]
    fn visit(&mut self, i: usize) {
        self.stamp[i] = self.epoch;
    }
}

thread_local! {
    static FLOOD: std::cell::RefCell<FloodScratch> =
        std::cell::RefCell::new(FloodScratch::default());
}

/// One `apply` frame of the undo journal: where this move's reversal
/// data starts in the shared spill buffers, plus its scalar deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TapFrame {
    /// Start of this frame's tiles in `undo_tiles`.
    tiles_start: u32,
    /// Start of this frame's collapsed-column indices in `undo_cols`.
    cols_start: u32,
    /// Score earned by the move (group score plus any clear bonus).
    score_delta: Score,
}

/// A SameGame position. Columns are stored bottom-up, which makes gravity
/// and column removal O(column).
#[derive(Debug, Clone)]
pub struct SameGame {
    /// `cols[x][y]` = colour of the tile at column `x`, height `y`
    /// (bottom-up). Colours are `1..=colors`.
    cols: Vec<Vec<u8>>,
    /// `col_hash[x]` = [`column_hash`] of `cols[x]`, maintained through
    /// every move and undo so [`Game::state_hash`] is an O(width) fold
    /// instead of an O(cells) rescan. Derived state: deliberately
    /// excluded from `PartialEq`.
    col_hash: Vec<u64>,
    width: usize,
    height: usize,
    accumulated: Score,
    moves: usize,
    /// Spill buffer of removed tiles `(x, y, colour)` in pre-removal
    /// coordinates, ascending `(x, y)` — re-inserting in this order
    /// rebuilds every column exactly.
    undo_tiles: Vec<(u8, u8, u8)>,
    /// Spill buffer of pre-collapse indices of columns this move emptied,
    /// ascending.
    undo_cols: Vec<u8>,
    /// One frame per outstanding `apply`.
    undo_frames: Vec<TapFrame>,
}

/// Equality is over the *observable position* — board, score, move
/// count — and deliberately ignores the undo journal: a position reached
/// via `play` equals the same position reached via `apply`, so `==`
/// stays usable for transposition checks and deduplication.
impl PartialEq for SameGame {
    fn eq(&self, other: &Self) -> bool {
        self.cols == other.cols
            && self.width == other.width
            && self.height == other.height
            && self.accumulated == other.accumulated
            && self.moves == other.moves
    }
}

impl Eq for SameGame {}

/// A move: remove the group containing this cell. `(x, y)` is the
/// *canonical* cell of the group (smallest `x`, then smallest `y`), so two
/// moves are equal iff they name the same group. Serde-able so
/// `SearchReport<Tap>` rows persist and replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Tap {
    pub x: u8,
    pub y: u8,
}

impl SameGame {
    /// Builds a board from rows given top-down (as usually printed), each
    /// row a slice of colours in `1..=9`.
    pub fn from_rows(rows: &[&[u8]]) -> Self {
        assert!(!rows.is_empty());
        let width = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == width), "ragged rows");
        let height = rows.len();
        let mut cols = vec![Vec::with_capacity(height); width];
        for row in rows.iter().rev() {
            for (x, &c) in row.iter().enumerate() {
                assert!((1..=9).contains(&c), "colours are 1..=9");
                cols[x].push(c);
            }
        }
        let col_hash = cols.iter().map(|c| column_hash(c)).collect();
        Self {
            cols,
            col_hash,
            width,
            height,
            accumulated: 0,
            moves: 0,
            undo_tiles: Vec::new(),
            undo_cols: Vec::new(),
            undo_frames: Vec::new(),
        }
    }

    /// A pseudo-random `width × height` board with `colors` colours,
    /// matching the standard benchmark generator (uniform i.i.d. tiles).
    pub fn random(width: usize, height: usize, colors: u8, seed: u64) -> Self {
        assert!(width > 0 && height > 0 && (1..=9).contains(&colors));
        let mut rng = Rng::seeded(seed);
        let cols: Vec<Vec<u8>> = (0..width)
            .map(|_| {
                (0..height)
                    .map(|_| rng.below(colors as usize) as u8 + 1)
                    .collect()
            })
            .collect();
        let col_hash = cols.iter().map(|c| column_hash(c)).collect();
        Self {
            cols,
            col_hash,
            width,
            height,
            accumulated: 0,
            moves: 0,
            undo_tiles: Vec::new(),
            undo_cols: Vec::new(),
            undo_frames: Vec::new(),
        }
    }

    /// Colour at `(x, y)` (bottom-up), if a tile is present.
    pub fn tile(&self, x: usize, y: usize) -> Option<u8> {
        self.cols.get(x).and_then(|c| c.get(y)).copied()
    }

    /// Remaining tile count.
    pub fn tiles_left(&self) -> usize {
        self.cols.iter().map(Vec::len).sum()
    }

    /// Whether every tile has been removed.
    pub fn cleared(&self) -> bool {
        self.cols.iter().all(Vec::is_empty)
    }

    /// Flood-fills the group containing `(x, y)` into `members` using the
    /// shared scratch (the allocation-free playout core). `members` is
    /// cleared first.
    fn flood_into(
        &self,
        x: usize,
        y: usize,
        scratch: &mut FloodScratch,
        members: &mut Vec<(u8, u8)>,
    ) {
        members.clear();
        let Some(color) = self.tile(x, y) else {
            return;
        };
        scratch.begin(self.width * self.height);
        scratch.stack.clear();
        scratch.visit(x * self.height + y);
        scratch.stack.push((x as u8, y as u8));
        while let Some((cx, cy)) = scratch.stack.pop() {
            members.push((cx, cy));
            let (cx, cy) = (cx as usize, cy as usize);
            let neighbours = [
                (cx.wrapping_sub(1), cy),
                (cx + 1, cy),
                (cx, cy.wrapping_sub(1)),
                (cx, cy + 1),
            ];
            for (nx, ny) in neighbours {
                if nx < self.width
                    && ny < self.height
                    && !scratch.seen(nx * self.height + ny)
                    && self.tile(nx, ny) == Some(color)
                {
                    scratch.visit(nx * self.height + ny);
                    scratch.stack.push((nx as u8, ny as u8));
                }
            }
        }
    }

    /// Enumerates the canonical taps of groups of ≥2 tiles into `out`, in
    /// the same order as [`SameGame::groups_reference`] (first-visited
    /// cell order — the order is part of the determinism contract, since
    /// move enumeration feeds the search RNG).
    ///
    /// One epoch-stamped flood pass over the board with reusable buffers:
    /// every tile is visited exactly once and nothing is allocated after
    /// warm-up, against the reference's O(cells) fresh allocations per
    /// call. This is the hot function of SameGame playouts.
    fn groups_into(&self, scratch: &mut FloodScratch, out: &mut Vec<Tap>) {
        let (w, h) = (self.width, self.height);
        scratch.begin(w * h);
        // Snapshot the columns into a flat colour grid so the flood reads
        // one contiguous array (0 = empty cell).
        scratch.grid.clear();
        scratch.grid.resize(w * h, 0);
        for (x, col) in self.cols.iter().enumerate() {
            scratch.grid[x * h..x * h + col.len()].copy_from_slice(col);
        }
        for x in 0..w {
            for y in 0..self.cols[x].len() {
                if scratch.seen(x * h + y) {
                    continue;
                }
                let color = self.cols[x][y];
                // Flood the group, tracking size and canonical cell.
                scratch.stack.clear();
                scratch.visit(x * h + y);
                scratch.stack.push((x as u8, y as u8));
                let mut size = 0usize;
                let mut canon = (u8::MAX, u8::MAX);
                while let Some((cx, cy)) = scratch.stack.pop() {
                    size += 1;
                    if (cx, cy) < canon {
                        canon = (cx, cy);
                    }
                    let (cx, cy) = (cx as usize, cy as usize);
                    let i = cx * h + cy;
                    // Up/down are index ±1 in the flat grid; left/right ±h.
                    if cy + 1 < h && scratch.grid[i + 1] == color && !scratch.seen(i + 1) {
                        scratch.visit(i + 1);
                        scratch.stack.push((cx as u8, cy as u8 + 1));
                    }
                    if cy > 0 && scratch.grid[i - 1] == color && !scratch.seen(i - 1) {
                        scratch.visit(i - 1);
                        scratch.stack.push((cx as u8, cy as u8 - 1));
                    }
                    if cx + 1 < w && scratch.grid[i + h] == color && !scratch.seen(i + h) {
                        scratch.visit(i + h);
                        scratch.stack.push((cx as u8 + 1, cy as u8));
                    }
                    if cx > 0 && scratch.grid[i - h] == color && !scratch.seen(i - h) {
                        scratch.visit(i - h);
                        scratch.stack.push((cx as u8 - 1, cy as u8));
                    }
                }
                if size >= 2 {
                    out.push(Tap {
                        x: canon.0,
                        y: canon.1,
                    });
                }
            }
        }
    }

    /// The original allocating group enumeration, kept verbatim as the
    /// executable specification of move generation: the property tests
    /// assert the scratch-buffer path matches it along random games, and
    /// the `clone-path vs undo-path` benches use it to reproduce the
    /// seed's playout cost profile.
    #[doc(hidden)]
    pub fn groups_reference(&self) -> Vec<(Tap, usize)> {
        let group = |x: usize, y: usize| -> Vec<(usize, usize)> {
            let Some(color) = self.tile(x, y) else {
                return Vec::new();
            };
            let mut seen = vec![false; self.width * self.height];
            let mut stack = vec![(x, y)];
            let mut members = Vec::new();
            seen[x * self.height + y] = true;
            while let Some((cx, cy)) = stack.pop() {
                members.push((cx, cy));
                let neighbours = [
                    (cx.wrapping_sub(1), cy),
                    (cx + 1, cy),
                    (cx, cy.wrapping_sub(1)),
                    (cx, cy + 1),
                ];
                for (nx, ny) in neighbours {
                    if nx < self.width
                        && ny < self.height
                        && self.tile(nx, ny) == Some(color)
                        && !seen[nx * self.height + ny]
                    {
                        seen[nx * self.height + ny] = true;
                        stack.push((nx, ny));
                    }
                }
            }
            members
        };
        let mut seen = vec![false; self.width * self.height];
        let mut out = Vec::new();
        for x in 0..self.width {
            for y in 0..self.cols[x].len() {
                if seen[x * self.height + y] {
                    continue;
                }
                let members = group(x, y);
                let mut canon = (usize::MAX, usize::MAX);
                for &(mx, my) in &members {
                    seen[mx * self.height + my] = true;
                    if (mx, my) < canon {
                        canon = (mx, my);
                    }
                }
                if members.len() >= 2 {
                    out.push((
                        Tap {
                            x: canon.0 as u8,
                            y: canon.1 as u8,
                        },
                        members.len(),
                    ));
                }
            }
        }
        out
    }

    /// Removes the group containing the tap, applies gravity and column
    /// collapse, and returns the group size. Panics if the group has
    /// fewer than two tiles.
    ///
    /// With `record`, journals everything needed to reverse the move in
    /// the undo spill buffers (see [`TapFrame`]): the removed tiles in
    /// pre-removal coordinates and the pre-collapse indices of columns
    /// the move emptied. The journal relies on the invariant that empty
    /// columns only ever sit at the right end (construction fills every
    /// column; collapse re-packs).
    fn remove_inner(&mut self, tap: Tap, record: bool) -> usize {
        FLOOD.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let mut members = std::mem::take(&mut scratch.members);
            self.flood_into(tap.x as usize, tap.y as usize, scratch, &mut members);
            let n = members.len();
            assert!(n >= 2, "tap on a group of {n} tiles");
            // One ascending (x, y) sort serves both directions: reversed
            // iteration drops tiles per column highest-y first (so
            // indices stay valid), and the undo journal re-inserts in
            // forward order to rebuild columns bottom-up.
            members.sort_unstable();
            if record {
                let color = self
                    .tile(tap.x as usize, tap.y as usize)
                    .expect("tap on a tile");
                for &(x, y) in &members {
                    self.undo_tiles.push((x, y, color));
                }
            }
            for &(x, y) in members.iter().rev() {
                self.cols[x as usize].remove(y as usize);
            }
            if record {
                // First member per column checks for a newly-emptied
                // column (ascending x, as undo's re-open expects).
                let mut last_x = u16::MAX;
                for &(x, _) in &members {
                    if x as u16 != last_x {
                        last_x = x as u16;
                        if self.cols[x as usize].is_empty() {
                            self.undo_cols.push(x);
                        }
                    }
                }
            }
            // Refresh the content hash of every column the removal
            // touched (ascending members make distinct-x detection a
            // one-token lookback), while indices are still pre-collapse.
            let mut last_x = u16::MAX;
            for &(x, _) in &members {
                if x as u16 != last_x {
                    last_x = x as u16;
                    self.col_hash[x as usize] = column_hash(&self.cols[x as usize]);
                }
            }
            // Stable partition: surviving columns slide left in order,
            // emptied columns become the trailing pads with their
            // buffers (and capacity) intact — the collapse neither
            // drops nor creates a single Vec. The hash vector mirrors
            // every swap so `col_hash[x]` keeps tracking `cols[x]`.
            let mut write = 0;
            for read in 0..self.cols.len() {
                if !self.cols[read].is_empty() {
                    self.cols.swap(read, write);
                    self.col_hash.swap(read, write);
                    write += 1;
                }
            }
            scratch.members = members;
            n
        })
    }
}

impl CodedGame for SameGame {
    /// Codes combine the tap cell with the group's colour. Gravity moves
    /// tiles between positions, so identical codes can denote different
    /// groups in different positions — NRPA tolerates such sharing (the
    /// policy then generalises over "tap colour c near (x, y)", which is
    /// the standard pragmatic choice for SameGame policies).
    fn move_code(&self, mv: &Tap) -> u64 {
        let color = self.tile(mv.x as usize, mv.y as usize).unwrap_or(0) as u64;
        ((mv.x as u64) << 16) | ((mv.y as u64) << 8) | color
    }
}

impl Game for SameGame {
    type Move = Tap;

    fn legal_moves(&self, out: &mut Vec<Tap>) {
        FLOOD.with(|cell| self.groups_into(&mut cell.borrow_mut(), out));
    }

    fn is_terminal(&self) -> bool {
        // A legal move exists iff some two same-coloured tiles touch
        // orthogonally — no flood fill needed.
        for (x, col) in self.cols.iter().enumerate() {
            for (y, &c) in col.iter().enumerate() {
                if y + 1 < col.len() && col[y + 1] == c {
                    return false;
                }
                if let Some(right) = self.cols.get(x + 1) {
                    if right.get(y) == Some(&c) {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn play(&mut self, mv: &Tap) {
        let n = self.remove_inner(*mv, false);
        self.accumulated += ((n - 2) * (n - 2)) as Score;
        self.moves += 1;
        if self.cleared() {
            self.accumulated += CLEAR_BONUS;
        }
    }

    fn score(&self) -> Score {
        self.accumulated
    }

    fn moves_played(&self) -> usize {
        self.moves
    }

    /// O(width) fold over the maintained per-column hashes plus the two
    /// scalars a transposition must also agree on (score and move
    /// count — distinct merge orders can reach the same board with
    /// different earnings, and those positions must not share
    /// statistics). Allocation-free; the per-column maintenance lives in
    /// the `remove_inner`/`undo` journal.
    // nmcs-lint: hot-entry
    fn state_hash(&self) -> u64 {
        let mut h = SAMEGAME_HASH_SALT;
        for &ch in &self.col_hash {
            h = mix64(h ^ ch);
        }
        h = mix64(h ^ self.accumulated as u64);
        mix64(h ^ self.moves as u64)
    }

    // Scratch-state fast path: `apply` journals the removed group and the
    // collapse it caused; `undo` re-opens collapsed columns and re-inserts
    // the tiles, which also reverses gravity (a removal never reorders
    // surviving tiles within a column).

    fn supports_undo(&self) -> bool {
        true
    }

    // nmcs-lint: hot-entry
    fn apply(&mut self, mv: &Tap) -> Undo<Self> {
        let tiles_start = self.undo_tiles.len() as u32;
        let cols_start = self.undo_cols.len() as u32;
        let n = self.remove_inner(*mv, true);
        let mut score_delta = ((n - 2) * (n - 2)) as Score;
        self.moves += 1;
        if self.cleared() {
            score_delta += CLEAR_BONUS;
        }
        self.accumulated += score_delta;
        self.undo_frames.push(TapFrame {
            tiles_start,
            cols_start,
            score_delta,
        });
        Undo::internal()
    }

    // nmcs-lint: hot-entry
    fn undo(&mut self, token: Undo<Self>) {
        debug_assert!(token.is_internal());
        let frame = self.undo_frames.pop().expect("undo without apply");

        // 1. Reverse the column collapse: re-open the emptied columns at
        //    their pre-collapse indices (ascending inserts hit the
        //    recorded absolute positions exactly).
        //    Each re-opened column recycles a pad popped from the right
        //    end (pads are interchangeable empty columns, and ascending
        //    re-open indices keep the remaining pads trailing), so the
        //    unwind allocates nothing.
        let cols_start = frame.cols_start as usize;
        for i in cols_start..self.undo_cols.len() {
            let x = self.undo_cols[i] as usize;
            let pad = self.cols.pop().expect("collapse keeps the width");
            debug_assert!(pad.is_empty());
            self.cols.insert(x, pad);
            // Mirror on the hash vector: a trailing pad hash moves to x
            // (every empty column hashes to the salt, so pop-and-insert
            // is exact).
            let pad_hash = self.col_hash.pop().expect("hash tracks width");
            debug_assert_eq!(pad_hash, column_hash(&[]));
            self.col_hash.insert(x, pad_hash);
        }
        self.undo_cols.truncate(cols_start);

        // 2. Re-insert the removed tiles; ascending (x, y) order rebuilds
        //    each column bottom-up. Refresh each distinct touched
        //    column's hash afterwards (same lookback as the removal).
        let tiles_start = frame.tiles_start as usize;
        for i in tiles_start..self.undo_tiles.len() {
            let (x, y, color) = self.undo_tiles[i];
            self.cols[x as usize].insert(y as usize, color);
        }
        let mut last_x = u16::MAX;
        for i in tiles_start..self.undo_tiles.len() {
            let x = self.undo_tiles[i].0;
            if x as u16 != last_x {
                last_x = x as u16;
                self.col_hash[x as usize] = column_hash(&self.cols[x as usize]);
            }
        }
        self.undo_tiles.truncate(tiles_start);

        // 3. Scalars.
        self.accumulated -= frame.score_delta;
        self.moves -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmcs_core::{sample, SearchSpec};

    #[test]
    fn from_rows_round_trips_geometry() {
        let g = SameGame::from_rows(&[&[1, 2], &[3, 1]]);
        // Bottom row is [3,1], top row [1,2].
        assert_eq!(g.tile(0, 0), Some(3));
        assert_eq!(g.tile(1, 0), Some(1));
        assert_eq!(g.tile(0, 1), Some(1));
        assert_eq!(g.tile(1, 1), Some(2));
        assert_eq!(g.tiles_left(), 4);
    }

    #[test]
    fn groups_require_two_tiles() {
        let g = SameGame::from_rows(&[&[1, 2], &[2, 1]]);
        let mut moves = Vec::new();
        g.legal_moves(&mut moves);
        assert!(moves.is_empty(), "diagonal same-colours do not connect");
    }

    #[test]
    fn removing_a_group_scores_quadratically() {
        // Column of three 1s next to isolated 2s.
        let mut g = SameGame::from_rows(&[&[1, 2], &[1, 3], &[1, 2]]);
        let mut moves = Vec::new();
        g.legal_moves(&mut moves);
        assert_eq!(moves.len(), 1);
        g.play(&moves[0]);
        assert_eq!(g.score(), 1, "(3-2)^2 = 1");
        assert_eq!(g.tiles_left(), 3);
    }

    #[test]
    fn gravity_pulls_tiles_down() {
        // Remove the bottom pair; the top tiles must fall.
        let mut g = SameGame::from_rows(&[&[2, 3], &[1, 1]]);
        let mut moves = Vec::new();
        g.legal_moves(&mut moves);
        assert_eq!(moves.len(), 1);
        g.play(&moves[0]);
        assert_eq!(g.tile(0, 0), Some(2), "2 fell to the bottom");
        assert_eq!(g.tile(1, 0), Some(3));
    }

    #[test]
    fn empty_columns_collapse_left() {
        // Left column of two 1s, right column 2 over 3; removing the 1s
        // must shift the right column to x=0.
        let mut g = SameGame::from_rows(&[&[1, 2], &[1, 3]]);
        let mut moves = Vec::new();
        g.legal_moves(&mut moves);
        let tap_left = moves.iter().find(|t| t.x == 0).copied().unwrap();
        g.play(&tap_left);
        assert_eq!(g.tile(0, 0), Some(3));
        assert_eq!(g.tile(0, 1), Some(2));
        assert_eq!(g.tile(1, 0), None);
    }

    #[test]
    fn clearing_the_board_earns_the_bonus() {
        let mut g = SameGame::from_rows(&[&[1, 1], &[1, 1]]);
        let mut moves = Vec::new();
        g.legal_moves(&mut moves);
        assert_eq!(moves.len(), 1);
        g.play(&moves[0]);
        assert!(g.cleared());
        assert_eq!(g.score(), 4 + CLEAR_BONUS, "(4-2)^2 + bonus");
    }

    #[test]
    fn random_board_is_deterministic_per_seed() {
        let a = SameGame::random(10, 10, 4, 7);
        let b = SameGame::random(10, 10, 4, 7);
        let c = SameGame::random(10, 10, 4, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn playouts_terminate_and_score_consistently() {
        for seed in 0..5 {
            let g = SameGame::random(8, 8, 4, seed);
            let r = sample(&g, &mut Rng::seeded(seed));
            let mut replay = g.clone();
            for mv in &r.sequence {
                replay.play(mv);
            }
            assert_eq!(replay.score(), r.score, "seed {seed}");
            assert!(replay.is_terminal());
        }
    }

    #[test]
    fn nmcs_improves_over_random_play() {
        let g = SameGame::random(6, 6, 3, 42);
        let mut rng = Rng::seeded(1);
        let random_avg: f64 = (0..20)
            .map(|_| sample(&g, &mut rng).score as f64)
            .sum::<f64>()
            / 20.0;
        let nmcs = SearchSpec::nested(1).seed(2).run(&g);
        assert!(
            (nmcs.score as f64) > random_avg,
            "NMCS {} should beat random avg {random_avg}",
            nmcs.score
        );
    }

    #[test]
    fn scratch_movegen_matches_the_reference_along_random_games() {
        for seed in 0..10 {
            let mut g = SameGame::random(12, 12, 4, seed);
            let mut rng = Rng::seeded(seed);
            let mut moves = Vec::new();
            loop {
                g.legal_moves_into(&mut moves);
                let reference: Vec<Tap> =
                    g.groups_reference().into_iter().map(|(t, _)| t).collect();
                assert_eq!(
                    moves, reference,
                    "seed {seed}: scratch movegen must match the reference, in order"
                );
                assert_eq!(g.is_terminal(), moves.is_empty(), "seed {seed}");
                if moves.is_empty() {
                    break;
                }
                let mv = moves[rng.below(moves.len())];
                g.play(&mv);
            }
        }
    }

    #[test]
    fn apply_undo_round_trips_every_move_of_random_positions() {
        for seed in 0..8 {
            let mut g = SameGame::random(8, 8, 3, seed);
            let mut rng = Rng::seeded(seed + 500);
            let mut moves = Vec::new();
            // Walk a few plies in, then round-trip every legal move.
            loop {
                g.legal_moves_into(&mut moves);
                if moves.is_empty() {
                    break;
                }
                for mv in moves.clone() {
                    let before = g.clone();
                    let token = g.apply(&mv);
                    let undone = g.clone();
                    assert_ne!(undone.tiles_left(), before.tiles_left());
                    g.undo(token);
                    assert_eq!(g, before, "seed {seed}: undo must restore the board");
                }
                let mv = moves[rng.below(moves.len())];
                g.play(&mv);
            }
        }
    }

    #[test]
    fn play_and_apply_reach_equal_positions() {
        // `==` is over the observable board: the undo journal an `apply`
        // leaves behind must not make identical positions compare unequal.
        let root = SameGame::random(6, 6, 3, 1);
        let mut moves = Vec::new();
        root.legal_moves(&mut moves);
        let mv = moves[0];
        let mut played = root.clone();
        played.play(&mv);
        let mut applied = root.clone();
        let _token = applied.apply(&mv);
        assert_eq!(played, applied);
    }

    #[test]
    fn deep_apply_chains_unwind_exactly() {
        for seed in 0..5 {
            let root = SameGame::random(10, 10, 4, seed);
            let mut g = root.clone();
            let mut rng = Rng::seeded(seed);
            let mut moves = Vec::new();
            let mut tokens = Vec::new();
            loop {
                g.legal_moves_into(&mut moves);
                if moves.is_empty() {
                    break;
                }
                let mv = moves[rng.below(moves.len())];
                tokens.push(g.apply(&mv));
            }
            assert!(g.is_terminal());
            while let Some(t) = tokens.pop() {
                g.undo(t);
            }
            assert_eq!(g, root, "seed {seed}: full-game unwind restores the root");
        }
    }

    #[test]
    fn undo_path_searches_match_snapshot_path() {
        use nmcs_core::SnapshotOnly;
        for seed in 0..3 {
            let g = SameGame::random(6, 6, 3, seed);
            let fast = SearchSpec::nested(1).seed(seed).run(&g);
            let slow = SearchSpec::nested(1)
                .seed(seed)
                .run(&SnapshotOnly(g.clone()));
            assert_eq!(fast.score, slow.score, "seed {seed}");
            assert_eq!(fast.sequence, slow.sequence, "seed {seed}");
            assert_eq!(fast.stats, slow.stats, "seed {seed}");
        }
    }

    /// From-scratch reference of the maintained hash.
    fn rehash(g: &SameGame) -> u64 {
        let mut h = SAMEGAME_HASH_SALT;
        for col in &g.cols {
            h = mix64(h ^ column_hash(col));
        }
        h = mix64(h ^ g.accumulated as u64);
        mix64(h ^ g.moves as u64)
    }

    #[test]
    fn state_hash_is_maintained_incrementally_along_random_games() {
        for seed in 0..6 {
            let mut g = SameGame::random(8, 8, 3, seed);
            let mut rng = Rng::seeded(seed + 900);
            let mut moves = Vec::new();
            loop {
                assert_eq!(g.state_hash(), rehash(&g), "seed {seed}: play path");
                g.legal_moves_into(&mut moves);
                if moves.is_empty() {
                    break;
                }
                // Round-trip one apply/undo and check the hash restores.
                let before = g.state_hash();
                let mv = moves[rng.below(moves.len())];
                let token = g.apply(&mv);
                assert_eq!(g.state_hash(), rehash(&g), "seed {seed}: apply path");
                assert_ne!(g.state_hash(), before, "a removal changes the board");
                g.undo(token);
                assert_eq!(g.state_hash(), before, "seed {seed}: undo restores");
                g.play(&mv);
            }
        }
    }

    #[test]
    fn equal_positions_hash_equal_regardless_of_journal() {
        let root = SameGame::random(6, 6, 3, 4);
        let mut moves = Vec::new();
        root.legal_moves(&mut moves);
        let mut played = root.clone();
        played.play(&moves[0]);
        let mut applied = root.clone();
        let _token = applied.apply(&moves[0]);
        assert_eq!(played, applied);
        assert_eq!(played.state_hash(), applied.state_hash());
    }

    #[test]
    fn canonical_tap_is_stable_under_enumeration_order() {
        let g = SameGame::random(8, 8, 3, 3);
        let mut a = Vec::new();
        g.legal_moves(&mut a);
        let mut b = Vec::new();
        g.legal_moves(&mut b);
        assert_eq!(a, b);
        // Canonical cells are unique.
        let mut set = std::collections::HashSet::new();
        for t in &a {
            assert!(set.insert((t.x, t.y)), "duplicate canonical tap {t:?}");
        }
    }
}
