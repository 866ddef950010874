//! SameGame — the classic tile-collapsing puzzle, the other standard NMCS
//! benchmark domain (Cazenave's IJCAI'09 NMCS paper evaluates on it).
//!
//! Rules: click a group of ≥2 orthogonally-connected same-coloured tiles to
//! remove it, scoring `(n − 2)²` for a group of `n`. Tiles above fall
//! down; empty columns close up to the left. Clearing the whole board
//! earns a +1000 bonus. The game ends when no group of ≥2 remains.
//!
//! ## Layout
//!
//! The board is one flat column-major byte buffer: cell `(x, y)` (`y`
//! counted bottom-up) is `cells[x * stride + y]` with `stride = height +
//! 1`. The extra cell on top of every column is a *guard* that is never
//! a tile, so the four orthogonal neighbours of flat index `i` are `i ±
//! 1` and `i ± stride`, and a neighbour that is off the board either
//! lands on a guard or fails the slice's own bounds check — floods carry
//! no coordinates. Beside the buffer sits one height per column. Four
//! invariants hold between moves:
//!
//! 1. a cell is `0` iff it holds no tile (colours are `1..=9`; guards are
//!    always `0`);
//! 2. columns are packed bottom-up — `cells[x * stride..][..height_x]`
//!    are all tiles, everything above is `0`;
//! 3. empty columns trail — a column is empty only if every column to
//!    its right is;
//! 4. `heights[x]` is the number of tiles in column `x`.
//!
//! Together they make the buffer a canonical form (`==` compares it
//! byte-wise). [`Game::state_hash`] is computed on demand, one
//! `column_hash` per column over its tiles: nothing on the move path
//! maintains a hash, so playouts, which never read it, do not pay for it.
//!
//! **Why the flood may remove.** A colour never equals `0`, so zeroing a
//! cell the moment the flood reaches it both removes the tile and marks
//! it visited: `play` needs no member list and no visit marks. The
//! holes are closed by one read/write-pointer pass over the columns the
//! group spanned (a connected group spans a contiguous column range), and
//! a column that emptied by one `copy_within` slide of the live columns
//! to its right. A tap on fewer than two tiles is refused before the
//! first write, so a panicking `play` leaves the position intact.
//!
//! **Why scan order is canonical order.** Movegen scans cells by `(x,
//! y)` ascending and floods from each unvisited tile, so the cell a group
//! is first met at *is* its canonical cell (smallest `x`, then smallest
//! `y`) and groups come out ordered by canonical cell — the order of
//! [`SameGame::groups_reference`], which stays the executable
//! specification. The same argument shows that an unvisited tile cannot
//! match its left or lower neighbour (the flood from that neighbour
//! would have visited it), so a singleton is recognised from its upper
//! and right neighbours alone and skipped without touching the stack.
//!
//! **Why there is no undo journal.** A position is two short vectors.
//! Copying a whole 15×15 position costs less than one journalled move
//! and its undo (35 ns against 59 ns, medians of three perf-ledger runs
//! on a 2-vCPU x86-64 VM), and a search copies once per mark, not once
//! per move. So
//! SameGame, like every domain, restores by copy: the searches copy
//! the position at each mark, and the hand-written `clone_from` copies
//! into the buffers the target already has. Both floods share one
//! thread-local scratch (`FLOOD`), so a warmed playout and a warmed
//! `clone_from` allocate nothing (`tests/alloc_playout.rs`).

use nmcs_core::{mix64, CodedGame, Game, Rng, Score};

/// Bonus for clearing the entire board.
pub const CLEAR_BONUS: Score = 1000;

/// Largest width and height: a [`Tap`] addresses cells with `u8`
/// coordinates. (Flat indices are `u32`; `256 × 257` cells fit.)
const MAX_SIDE: usize = u8::MAX as usize + 1;

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

/// Flat indices of the four orthogonal neighbours of cell `i`. Off-board
/// ones are a guard cell or out of the buffer's range (wrapping below
/// zero included), so `cells.get(j) == Some(&colour)` is the whole test.
#[inline]
fn neighbours(i: usize, stride: usize) -> [usize; 4] {
    [i + 1, i.wrapping_sub(1), i + stride, i.wrapping_sub(stride)]
}

/// Reusable flood-fill scratch of the playout core. `legal_moves` takes
/// `&self`, so the buffers live in a thread-local (cheap: one borrow per
/// flood) instead of the game struct.
#[derive(Default)]
struct FloodScratch {
    /// Flat indices still to expand; empty between floods.
    stack: Vec<u32>,
    /// Movegen's visit marks, one per cell, reset per call.
    seen: Vec<bool>,
}

thread_local! {
    static FLOOD: std::cell::RefCell<FloodScratch> =
        std::cell::RefCell::new(FloodScratch::default());
}

/// A SameGame position (see the module docs for the layout). `==`
/// compares the observable position; the heights follow from the cells,
/// so comparing them as well changes no answer.
#[derive(Debug, PartialEq, Eq)]
pub struct SameGame {
    /// `cells[x * (height + 1) + y]` = colour at column `x`, height `y`
    /// (bottom-up), `0` = empty. Colours are `1..=colors`.
    cells: Vec<u8>,
    /// Tile count of every column, maintained through every move.
    heights: Vec<u16>,
    width: usize,
    height: usize,
    accumulated: Score,
    moves: usize,
}

/// Written out for `clone_from`, which the searches call at every mark:
/// it copies into the target's own `Vec`s, so once they are as large as
/// the source's nothing is allocated.
impl Clone for SameGame {
    fn clone(&self) -> Self {
        Self {
            cells: self.cells.clone(),
            heights: self.heights.clone(),
            width: self.width,
            height: self.height,
            accumulated: self.accumulated,
            moves: self.moves,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.cells.clone_from(&source.cells);
        self.heights.clone_from(&source.heights);
        self.width = source.width;
        self.height = source.height;
        self.accumulated = source.accumulated;
        self.moves = source.moves;
    }
}

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
    /// A full `width × height` board whose tile at `(x, y)` is
    /// `colour(x, y)`, asked column by column, bottom-up.
    fn filled(width: usize, height: usize, mut colour: impl FnMut(usize, usize) -> u8) -> Self {
        assert!(width > 0 && height > 0, "a board has at least one cell");
        assert!(
            width <= MAX_SIDE && height <= MAX_SIDE,
            "a board is at most {MAX_SIDE}×{MAX_SIDE} (Tap coordinates are u8), not {width}×{height}"
        );
        let stride = height + 1;
        let mut cells = vec![0; width * stride];
        for x in 0..width {
            for (y, c) in cells[x * stride..][..height].iter_mut().enumerate() {
                *c = colour(x, y);
            }
        }
        Self {
            cells,
            heights: vec![height as u16; width],
            width,
            height,
            accumulated: 0,
            moves: 0,
        }
    }

    /// Builds a board from rows given top-down (as usually printed), each
    /// row a slice of colours in `1..=9`. At most 256 × 256.
    pub fn from_rows(rows: &[&[u8]]) -> Self {
        assert!(!rows.is_empty());
        let width = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == width), "ragged rows");
        let height = rows.len();
        Self::filled(width, height, |x, y| {
            let c = rows[height - 1 - y][x];
            assert!((1..=9).contains(&c), "colours are 1..=9");
            c
        })
    }

    /// A pseudo-random `width × height` board (at most 256 × 256) with
    /// `colors` colours, matching the standard benchmark generator
    /// (uniform i.i.d. tiles).
    pub fn random(width: usize, height: usize, colors: u8, seed: u64) -> Self {
        assert!((1..=9).contains(&colors));
        let mut rng = Rng::seeded(seed);
        Self::filled(width, height, |_, _| rng.below(colors as usize) as u8 + 1)
    }

    /// Distance between the bottoms of neighbouring columns in `cells`: a
    /// column's cells and its guard.
    #[inline]
    fn stride(&self) -> usize {
        self.height + 1
    }

    /// Whether the tile at flat index `i` has its colour above it or to
    /// its right — all that telling a group from a singleton takes when
    /// cells are met in scan order (module docs).
    #[inline]
    fn pairs_up_or_right(&self, i: usize) -> bool {
        let colour = self.cells[i];
        self.cells[i + 1] == colour || self.cells.get(i + self.stride()) == Some(&colour)
    }

    /// Colour at `(x, y)` (bottom-up), if a tile is present.
    pub fn tile(&self, x: usize, y: usize) -> Option<u8> {
        let on_board = x < self.width && y < self.height;
        on_board
            .then(|| self.cells[x * self.stride() + y])
            .filter(|&c| c != 0)
    }

    /// Remaining tile count.
    pub fn tiles_left(&self) -> usize {
        self.heights.iter().map(|&h| h as usize).sum()
    }

    /// Whether every tile has been removed.
    pub fn cleared(&self) -> bool {
        // Empty columns trail, so the first one decides.
        self.heights[0] == 0
    }

    /// The original allocating group enumeration, kept verbatim as the
    /// executable specification of move generation: the property tests
    /// assert the scratch-buffer path matches it along random games.
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
            for y in 0..self.heights[x] as usize {
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

    /// Plays the tap: removes the group containing it, applies gravity
    /// and column collapse, and books the score. Panics, before anything
    /// is written, if the group has fewer than two tiles.
    fn remove(&mut self, tap: Tap) {
        let stride = self.stride();
        let start = tap.x as usize * stride + tap.y as usize;
        let tile = self.tile(tap.x as usize, tap.y as usize);
        let twin = |&c: &u8| {
            neighbours(start, stride)
                .iter()
                .any(|&j| self.cells.get(j) == Some(&c))
        };
        let Some(colour) = tile.filter(twin) else {
            panic!("tap on a group of {} tiles", tile.is_some() as usize);
        };

        // Flood = removal; the extreme indices name the spanned columns.
        let (n, lowest, highest) = FLOOD.with(|cell| {
            let stack = &mut cell.borrow_mut().stack;
            self.cells[start] = 0;
            stack.push(start as u32);
            let (mut n, mut lowest, mut highest) = (0usize, start, start);
            while let Some(i) = stack.pop() {
                let i = i as usize;
                n += 1;
                lowest = lowest.min(i);
                highest = highest.max(i);
                for j in neighbours(i, stride) {
                    if let Some(cell) = self.cells.get_mut(j).filter(|c| **c == colour) {
                        *cell = 0;
                        stack.push(j as u32);
                    }
                }
            }
            (n, lowest, highest)
        });
        let (first, last) = (lowest / stride, highest / stride);

        // Gravity: one read/write-pointer pass packs each spanned column's
        // survivors downwards. Every hole it passes is a removed tile.
        let mut emptied = false;
        for x in first..=last {
            let col = &mut self.cells[x * stride..][..self.heights[x] as usize];
            let mut top = 0;
            for y in 0..col.len() {
                let c = std::mem::take(&mut col[y]);
                if c != 0 {
                    col[top] = c;
                    top += 1;
                }
            }
            self.heights[x] = top as u16;
            emptied |= top == 0;
        }

        // Collapse: slide the live columns right of an emptied one over
        // it and clear the vacated last place, rightmost emptied column
        // first so the remaining indices stay valid.
        if emptied {
            let mut live = (last + 1..self.width)
                .find(|&x| self.heights[x] == 0)
                .unwrap_or(self.width);
            for x in (first..=last).rev() {
                if self.heights[x] == 0 {
                    self.cells
                        .copy_within((x + 1) * stride..live * stride, x * stride);
                    self.heights.copy_within(x + 1..live, x);
                    live -= 1;
                    self.cells[live * stride..][..stride].fill(0);
                    self.heights[live] = 0;
                }
            }
        }

        self.accumulated += ((n - 2) * (n - 2)) as Score;
        if self.cleared() {
            self.accumulated += CLEAR_BONUS;
        }
        self.moves += 1;
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

    /// Appends the canonical taps of groups of ≥2 tiles in the order of
    /// [`SameGame::groups_reference`] (the order is part of the
    /// determinism contract: move enumeration feeds the search RNG). One
    /// flood pass over the live buffer; nothing is allocated after
    /// warm-up. This is the hot function of SameGame playouts.
    fn legal_moves(&self, out: &mut Vec<Tap>) {
        let stride = self.stride();
        FLOOD.with(|cell| {
            let FloodScratch { stack, seen } = &mut *cell.borrow_mut();
            seen.clear();
            seen.resize(self.cells.len(), false);
            for (x, &height) in self.heights.iter().enumerate() {
                for y in 0..height as usize {
                    let start = x * stride + y;
                    // An unvisited tile is the canonical cell of its
                    // group; one that pairs neither way is a singleton.
                    if seen[start] || !self.pairs_up_or_right(start) {
                        continue;
                    }
                    let colour = self.cells[start];
                    out.push(Tap {
                        x: x as u8,
                        y: y as u8,
                    });
                    seen[start] = true;
                    stack.push(start as u32);
                    while let Some(i) = stack.pop() {
                        for j in neighbours(i as usize, stride) {
                            if self.cells.get(j) == Some(&colour) && !seen[j] {
                                seen[j] = true;
                                stack.push(j as u32);
                            }
                        }
                    }
                }
            }
        });
    }

    fn is_terminal(&self) -> bool {
        // A legal move exists iff some two same-coloured tiles touch
        // orthogonally — no flood fill needed.
        let stride = self.stride();
        !self.heights.iter().enumerate().any(|(x, &height)| {
            (x * stride..x * stride + height as usize).any(|i| self.pairs_up_or_right(i))
        })
    }

    fn play(&mut self, mv: &Tap) {
        self.remove(*mv);
    }

    fn score(&self) -> Score {
        self.accumulated
    }

    fn moves_played(&self) -> usize {
        self.moves
    }

    /// Folds each column's `column_hash`, computed from its tiles on
    /// demand, plus the two scalars a transposition must also agree on
    /// (score and move count — distinct merge orders can reach the same
    /// board with different earnings, and those positions must not share
    /// statistics). At most `tiles + width` `mix64`s and allocation-free.
    /// Only transposition lookups read it, once per tree expansion, so it
    /// is cheaper to compute here than to maintain on every move.
    fn state_hash(&self) -> u64 {
        let stride = self.stride();
        let mut h = SAMEGAME_HASH_SALT;
        for (x, &height) in self.heights.iter().enumerate() {
            h = mix64(h ^ column_hash(&self.cells[x * stride..][..height as usize]));
        }
        h = mix64(h ^ self.accumulated as u64);
        mix64(h ^ self.moves as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmcs_core::{sample, SearchSpec, Undo};

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
        // `apply` (the trait's snapshot fallback) reaches the position
        // `play` reaches.
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

    /// From-scratch reference of the hash: tiles read through `tile`,
    /// independent of the heights and the flat layout.
    fn rehash(g: &SameGame) -> u64 {
        let mut h = SAMEGAME_HASH_SALT;
        for x in 0..g.width {
            let tiles: Vec<u8> = (0..g.height).map_while(|y| g.tile(x, y)).collect();
            h = mix64(h ^ column_hash(&tiles));
        }
        h = mix64(h ^ g.accumulated as u64);
        mix64(h ^ g.moves as u64)
    }

    #[test]
    fn state_hash_agrees_with_the_reference_fold_along_random_games() {
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

    /// `state_hash` values recorded when the hash was still maintained
    /// per column on every move, before and after each move of one fixed
    /// random line. Transposition keys of warm sessions depend on these
    /// exact values, not only on their self-consistency.
    #[test]
    fn state_hash_values_are_pinned_along_fixed_lines() {
        const PINNED: [(usize, &[u64]); 3] = [
            // 6×6, three colours, seed 0.
            (
                3,
                &[
                    0xfefd8097a705ef12,
                    0xecabeaebaf1822c4,
                    0xb19aa35c9191c3ac,
                    0x1edae9e7c50f8c04,
                    0xe3f743a3ca399532,
                    0xf6a68d3a7d92b60e,
                    0x7c07584795c8b337,
                    0xa8639bff567bc35a,
                    0xda6c37ba309ae53d,
                    0x924180b0f9c03899,
                    0xe09bcc5d69e5969c,
                ],
            ),
            // 8×8, two colours, seed 0: this line clears the board.
            (
                7,
                &[
                    0xf0370cead26743b2,
                    0xbea486443d78d2b3,
                    0x2dfb0d3155d25ea8,
                    0xa8652f9c8c5c212b,
                    0x850827f03f46ae05,
                    0x2f3200f0ccf06da3,
                    0xd1e60edf274ad422,
                    0xe7bc381ffa74c77a,
                ],
            ),
            // 7×9, nine colours, seed 2.
            (
                26,
                &[
                    0x800db8863962a017,
                    0xfcb12b91fd9d4d0e,
                    0xa101d12f6c165968,
                    0xae75f3c8adde5c2a,
                    0xfd81b8f807933545,
                    0xe99cd9ca00178870,
                    0x991fe261a65114c0,
                    0xe63c68ff81154b07,
                    0x899dea4a7e7f373b,
                    0x9987c1b5b4134ce3,
                    0x3c081529483e8337,
                    0x9d9e24b75c053c65,
                    0x1be8ccab40135a4d,
                    0x1fa7ae707994aad6,
                    0x3196d5fc0016b282,
                ],
            ),
        ];
        let boards = spec_boards();
        for (board, pinned) in PINNED {
            let root = boards[board].clone();
            let mut rng = Rng::seeded(board as u64 + 1234);
            // The same line twice: by `play`, and by `apply` with every
            // move round-tripped once through `undo` first.
            let mut played = root.clone();
            let mut applied = root.clone();
            let mut tokens = Vec::new();
            for (ply, &expected) in pinned.iter().enumerate() {
                assert_eq!(played.state_hash(), expected, "board {board} ply {ply}");
                assert_eq!(applied.state_hash(), expected, "board {board} ply {ply}");
                let moves = taps(&played);
                if ply + 1 == pinned.len() {
                    assert!(moves.is_empty(), "board {board}: the line ends here");
                    break;
                }
                let mv = moves[rng.below(moves.len())];
                let token = applied.apply(&mv);
                applied.undo(token);
                assert_eq!(applied.state_hash(), expected, "board {board} ply {ply}");
                tokens.push(applied.apply(&mv));
                played.play(&mv);
            }
            assert_eq!(played.cleared(), board == 7, "board {board}");
            // Unwinding the tokens meets every pinned value again.
            for (ply, &expected) in pinned.iter().enumerate().rev() {
                assert_eq!(applied.state_hash(), expected, "board {board} undo {ply}");
                if let Some(token) = tokens.pop() {
                    applied.undo(token);
                }
            }
            assert_eq!(applied, root, "board {board}");
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

    // ---- the flat-buffer kernel against the executable specification ----

    fn taps(g: &SameGame) -> Vec<Tap> {
        let mut out = Vec::new();
        g.legal_moves(&mut out);
        out
    }

    /// Every cell of the group under `tap`, by the obvious flood over
    /// `tile` (independent of the kernel's buffers).
    fn members(g: &SameGame, tap: Tap) -> Vec<Tap> {
        let colour = g.tile(tap.x as usize, tap.y as usize);
        let mut found = vec![tap];
        let mut next = 0;
        while next < found.len() {
            let (x, y) = (found[next].x as usize, found[next].y as usize);
            next += 1;
            for (nx, ny) in [
                (x + 1, y),
                (x.wrapping_sub(1), y),
                (x, y + 1),
                (x, y.wrapping_sub(1)),
            ] {
                // Off-board coordinates (wrapped ones included) hold no tile.
                if g.tile(nx, ny) == colour {
                    let cell = Tap {
                        x: nx as u8,
                        y: ny as u8,
                    };
                    if !found.contains(&cell) {
                        found.push(cell);
                    }
                }
            }
        }
        found
    }

    /// Degenerate strips, the ledger's three sizes, two-colour boards
    /// (board-sized groups, boards that clear) and nine-colour boards
    /// (mostly singletons), three seeds each.
    fn spec_boards() -> Vec<SameGame> {
        let shapes = [
            (1, 9, 2),
            (9, 1, 2),
            (2, 2, 2),
            (6, 6, 3),
            (10, 10, 4),
            (15, 15, 5),
            (5, 4, 2),
            (8, 8, 2),
            (7, 9, 9),
        ];
        (0..3)
            .flat_map(|seed| shapes.map(|(w, h, colours)| SameGame::random(w, h, colours, seed)))
            .collect()
    }

    #[test]
    fn kernel_matches_the_specification_after_every_move() {
        let (mut cleared, mut collapsed) = (0, 0);
        for (board, mut g) in spec_boards().into_iter().enumerate() {
            let mut rng = Rng::seeded(board as u64 + 77);
            let mut score = 0;
            loop {
                let moves = taps(&g);
                let reference = g.groups_reference();
                let reference_taps: Vec<Tap> = reference.iter().map(|&(t, _)| t).collect();
                assert_eq!(moves, reference_taps, "board {board}: movegen order");
                assert_eq!(g.is_terminal(), moves.is_empty(), "board {board}");
                if moves.is_empty() {
                    break;
                }
                for &(tap, size) in &reference {
                    let mut played = g.clone();
                    played.play(&tap);
                    assert_eq!(played.tiles_left() + size, g.tiles_left(), "board {board}");
                    assert_eq!(played.state_hash(), rehash(&played), "board {board}: play");
                    // Any cell of the group names the group.
                    let cells = members(&g, tap);
                    assert_eq!(cells.len(), size, "board {board}: {tap:?}");
                    for cell in cells {
                        let mut other = g.clone();
                        other.play(&cell);
                        assert_eq!(other, played, "board {board}: {cell:?} of {tap:?}");
                        assert_eq!(other.state_hash(), played.state_hash());
                    }
                    // `apply` is `play` with a way back.
                    let before = g.state_hash();
                    let token = g.apply(&tap);
                    assert_eq!(g, played, "board {board}: apply {tap:?}");
                    assert_eq!(g.state_hash(), played.state_hash(), "board {board}");
                    assert_eq!(taps(&g), taps(&played), "board {board}");
                    g.undo(token);
                    assert_eq!(g.state_hash(), before, "board {board}: undo {tap:?}");
                    assert_eq!(taps(&g), moves, "board {board}: undo {tap:?}");
                }
                let (mv, size) = reference[rng.below(moves.len())];
                let live = |g: &SameGame| g.heights.iter().filter(|&&h| h > 0).count();
                let before = live(&g);
                g.play(&mv);
                collapsed += (live(&g) < before && !g.cleared()) as usize;
                cleared += g.cleared() as usize;
                assert_eq!(g.cleared(), g.tiles_left() == 0, "board {board}");
                score += ((size - 2) * (size - 2)) as Score;
                score += if g.cleared() { CLEAR_BONUS } else { 0 };
                assert_eq!(g.score(), score, "board {board}: bonus iff cleared");
            }
        }
        assert!(
            cleared >= 2,
            "the set must reach the clear bonus ({cleared})"
        );
        assert!(collapsed >= 10, "the set must slide columns ({collapsed})");
    }

    /// Plays `apply` to the end of the game with the moves `seed` picks.
    fn apply_to_the_end(g: &mut SameGame, seed: u64) -> Vec<Undo<SameGame>> {
        let mut rng = Rng::seeded(seed);
        let mut tokens = Vec::new();
        loop {
            let moves = taps(g);
            if moves.is_empty() {
                return tokens;
            }
            tokens.push(g.apply(&moves[rng.below(moves.len())]));
        }
    }

    #[test]
    fn clone_from_a_same_size_board_keeps_its_buffers() {
        let boards = spec_boards();
        // Boards `i` and `i + 9` have the same shape and another seed.
        for (board, root) in boards.iter().enumerate() {
            let mut src = root.clone();
            let _ = apply_to_the_end(&mut src, board as u64);
            let mut dst = boards[(board + 9) % boards.len()].clone();
            let buffers = |g: &SameGame| {
                (
                    (g.cells.as_ptr(), g.cells.capacity()),
                    (g.heights.as_ptr(), g.heights.capacity()),
                )
            };
            let before = buffers(&dst);
            dst.clone_from(&src);
            assert_eq!(dst, src, "board {board}");
            assert_eq!(dst.state_hash(), src.state_hash(), "board {board}");
            assert_eq!(taps(&dst), taps(&src), "board {board}");
            assert_eq!(
                buffers(&dst),
                before,
                "board {board}: clone_from reallocated"
            );
        }
    }

    #[test]
    fn a_clone_taken_mid_chain_is_independent_of_later_undos() {
        for (board, root) in spec_boards().into_iter().enumerate() {
            let mut g = root.clone();
            let mut expected = root.clone();
            let mut rng = Rng::seeded(board as u64);
            let mut tokens = Vec::new();
            // Half a game by `apply`, shadowed by `play` on a clean copy.
            for _ in 0..taps(&root).len().div_ceil(2) {
                let moves = taps(&g);
                if moves.is_empty() {
                    break;
                }
                let mv = moves[rng.below(moves.len())];
                tokens.push(g.apply(&mv));
                expected.play(&mv);
            }
            // Keep a copy taken mid-chain, then unwind the original.
            let mut leaf = g.clone();
            tokens.extend(apply_to_the_end(&mut g, 5));
            g.undo_all(&mut tokens);
            assert_eq!(g, root, "board {board}");
            assert_eq!(leaf, expected, "board {board}: the copy kept its position");
            assert_eq!(leaf.state_hash(), expected.state_hash(), "board {board}");
            assert_eq!(taps(&leaf), taps(&expected), "board {board}");
            // The copy searches on from there without disturbing the
            // original.
            let mut own = apply_to_the_end(&mut leaf, 9);
            leaf.undo_all(&mut own);
            assert_eq!(leaf, expected, "board {board}: the copy unwinds to itself");
            assert_eq!(leaf.state_hash(), expected.state_hash(), "board {board}");
            assert_eq!(g, root, "board {board}");
        }
    }

    // ---- boards a `Tap` cannot address ----

    #[test]
    #[should_panic(expected = "at most 256×256")]
    fn random_refuses_a_board_wider_than_a_tap_can_address() {
        // Was: 91 taps (one twice) for 107 groups — columns ≥ 256 aliased.
        SameGame::random(300, 2, 2, 1);
    }

    #[test]
    #[should_panic(expected = "at most 256×256")]
    fn from_rows_refuses_a_board_taller_than_a_tap_can_address() {
        let rows: Vec<&[u8]> = vec![&[1]; 257];
        SameGame::from_rows(&rows);
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn from_rows_refuses_zero_width() {
        SameGame::from_rows(&[&[], &[]]);
    }

    #[test]
    fn the_widest_and_tallest_legal_boards_tap_their_last_cells() {
        // 256 columns of a two-row checkerboard of 2s and 3s (no groups)
        // except the last, a pair of 1s.
        let row = |odd: usize| -> Vec<u8> {
            (0..256)
                .map(|x| {
                    if x == 255 {
                        1
                    } else {
                        2 + ((x + odd) % 2) as u8
                    }
                })
                .collect()
        };
        let (top, bottom) = (row(0), row(1));
        let mut wide = SameGame::from_rows(&[&top, &bottom]);
        let last = Tap { x: 255, y: 0 };
        assert_eq!(taps(&wide), [last]);
        assert_eq!(wide.groups_reference(), [(last, 2)]);
        let token = wide.apply(&last);
        assert_eq!((wide.tiles_left(), wide.tile(255, 0)), (510, None));
        assert_eq!(wide.tile(254, 0), Some(bottom[254]), "its own group only");
        assert!(wide.is_terminal());
        wide.undo(token);
        assert_eq!(wide, SameGame::from_rows(&[&top, &bottom]));

        // One column of 256: alternating 2s and 3s under a pair of 1s.
        let column: Vec<[u8; 1]> = (0..256)
            .map(|row| [if row < 2 { 1 } else { 2 + (row % 2) as u8 }])
            .collect();
        let rows: Vec<&[u8]> = column.iter().map(|r| &r[..]).collect();
        let mut tall = SameGame::from_rows(&rows);
        assert_eq!(taps(&tall), [Tap { x: 0, y: 254 }]);
        tall.play(&Tap { x: 0, y: 255 });
        assert_eq!((tall.tiles_left(), tall.tile(0, 254)), (254, None));
        assert_eq!(tall.state_hash(), rehash(&tall));

        // And the largest board there is, end to end.
        let full = SameGame::random(256, 256, 9, 1);
        let moves = taps(&full);
        let reference: Vec<Tap> = full.groups_reference().iter().map(|&(t, _)| t).collect();
        assert_eq!(moves, reference);
    }
}
