//! The Morpion Solitaire board: rules, incremental move generation, play.
//!
//! A *move* adds one circle (point) to the grid such that a line of five
//! consecutive points — horizontal, vertical, or diagonal — can be drawn
//! through it, the other four already existing. The variants differ in how
//! much two same-direction lines may overlap:
//!
//! * **5T (touching)** — two parallel lines may share an endpoint but not a
//!   unit segment.
//! * **5D (disjoint)** — two parallel lines may not share *any* point
//!   ("a circle cannot be a part of two lines that have the same
//!   direction", paper §II). This is the variant of all the paper's
//!   experiments.
//!
//! The board is a bounded `GRID × GRID` window of the infinite grid, large
//! enough for every humanly- or machine-reachable game from the standard
//! cross (the proven 5D upper bound is 121 moves; record games span well
//! under 40 cells). Move generation is incremental: a cached list of the
//! legal moves is revalidated after each move and extended with the
//! windows through the new point, making random playouts allocation-free
//! and fast.
//! Those windows are found in one pass per direction: the ≤ 9 cells
//! `q−4e … q+4e` around the new point `q` are read into an occupancy
//! mask and a constraint mask, and bit operations with a 512-entry table
//! decide all five windows of that direction at once.
//!
//! The position is stored as *line words*. `GRID` is 64, so each grid
//! line fits in one `u64`: 64 rows (E), 64 columns (S), 127 falling
//! diagonals (SE, one per `x − y`) and 127 rising ones (NE, one per
//! `x + y`). A point is bit `x` of its row and of both its diagonals and
//! bit `y` of its column, so one step along any direction is one bit up
//! the same word. Every line has two words: its occupied points (so
//! occupancy is kept in all four orientations) and its points that carry
//! the constraint mark of a line drawn in *that* direction (a point's E
//! mark is kept in its row only, and so on). A window's five cells are
//! five adjacent bits of one word: `check_window` tests one masked word
//! for the hole and one for the marks, marking a played line is one OR,
//! and the nine cells around a new point are one shifted load of each
//! word. Bits of a diagonal word that lie off the grid are never set, so
//! they read as empty and unmarked, like the bits shifted in past either
//! end.
//!
//! The move cache is one list of packed `u32` *keys*, one per legal move
//! (`kill_key`), written by the pass that finds the move: the new point's
//! flat cell index `y · GRID + x` in bits `0..12`, the move's start as
//! `line · 64 + bit` along its own direction (`line_of`) in bits `12..27`,
//! and `pos` in bits `27..30`. `decode` turns a key back into its `Move`
//! without a branch: the direction is the line's range (three compares)
//! and the start's coordinates a per-direction linear form of the line and
//! the bit (`START`). `legal_moves` decodes the list in order.
//!
//! After a move a cached move dies iff its new point is the move's new
//! point (one compare of the low bits) or its start lies on the played
//! line's grid line fewer than `len` steps from the played start (one
//! wrapping subtraction and compare of the start bits), so the filter
//! needs no per-move geometry. It scans to the first death and compacts
//! only from there.
//!
//! The windows through the new point `q` are found by one body in two
//! builds (`windows_through`). When `4 ≤ q.x, q.y ≤ 59` (`interior`) the
//! nine cells around `q` in every direction are on the grid, so each
//! direction's are one plain shift of its word and every window is
//! inside. Any other point takes the clipped build, which reads the words
//! through a `u128` (`nine_around`) and drops the windows that leave the
//! grid (`reach`). Games from the crosses stay far inside the grid (in
//! 29 643 playouts inside level-1 games from both ledger crosses every
//! point lay within `24..=39`), so only boards built against an edge
//! take the clipped build.
//!
//! Every move is checked against the rules before it is played, in every
//! build. `play_move` checks the `Move` (`is_legal`). The random step
//! (`Game::play_random`) draws one key and checks it on the key's own line
//! words with the same predicate (`key_is_legal`): the window on the grid,
//! exactly one hole, at `pos`, and the `len` marks clear. Both then run
//! one body, `play_key`, which takes the new point from the key's low
//! bits. Those agree with the start and `pos` bits by construction: only
//! `windows_through` and `kill_key` build keys, the unit tests hold every
//! key to `kill_key` of its decoded move, and debug builds assert it in
//! `play_key`. A cached key can go stale only through a filter fault, and
//! staleness is what the check sees: a filled hole or a marked window.
//!
//! No hash is kept: `state_hash` folds the Zobrist key on demand from the
//! initial points and the move history, with keys on the flat cell index.
//! It steps along a move's line on that index with `along`, one signed
//! offset per step (E `+1`, S `+GRID`, SE `+GRID+1`, NE `1−GRID`); the
//! keys' new points are found the same way. A flat step past the
//! right edge does not leave the array; it lands on the next row (or, for
//! NE, the same row's left end). What keeps such a walk on its grid line
//! is that it only covers cells between two in-bounds end points: the
//! directions are monotone in `x` and `y`, so the cells between lie in
//! the box the two ends span, and a move's window has both ends in
//! bounds.

use crate::geom::{Dir, Point, DIRS};
use nmcs_core::{mix64, Game, Rng, Score};
use serde::{Deserialize, Serialize};

/// Domain-separation salts of the board's Zobrist hash: occupancy keys
/// and constraint-bit keys (non-zero: `mix64(0) == 0`).
const OCC_HASH_SALT: u64 = 0x8c2f_50ba_6e91_d437;
const LINE_HASH_SALT: u64 = 0x3b96_e72c_154f_a8d1;

/// Zobrist key of an occupied cell, computed on the fly.
#[inline]
fn occ_key(idx: usize) -> u64 {
    mix64(idx as u64 ^ OCC_HASH_SALT)
}

/// Zobrist key of one constraint mark (`used_bit`/`seg_bit` of one
/// direction) at one cell. The raw bit value distinguishes both the
/// direction and the variant's mark family.
#[inline]
fn line_key(idx: usize, bit: u16) -> u64 {
    mix64((((idx as u64) << 16) | bit as u64) ^ LINE_HASH_SALT)
}

/// Side length of the board window.
pub const GRID: i16 = 64;
// One grid line is one `u64` word.
const _: () = assert!(GRID == 64, "the line-word layout needs GRID == 64");
const NCELLS: usize = (GRID as usize) * (GRID as usize);

/// Line words: 64 rows, 64 columns, 127 falling and 127 rising diagonals.
const NLINES: usize = 6 * GRID as usize - 2;

/// The marks' Zobrist identities: the bits a cell held when the board
/// kept one `u16` per cell (occupancy was bit 0). Only `state_hash` reads
/// them, so its values do not depend on the storage.
#[inline]
const fn used_bit(d: Dir) -> u16 {
    1 << (1 + d as u16) // 5D: point used by a line of direction d
}
#[inline]
const fn seg_bit(d: Dir) -> u16 {
    1 << (5 + d as u16) // 5T: unit segment from this point toward +d used
}

/// One grid line; bit `i` of a word is the line's point `i` (see
/// `line_of`).
#[derive(Clone, Copy)]
struct Line {
    /// The occupied points.
    occ: u64,
    /// The points that carry the constraint mark of a line drawn in this
    /// line's direction.
    con: u64,
}

/// Rule variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// 5T: same-direction lines may share endpoints.
    Touching,
    /// 5D: same-direction lines are fully disjoint (the paper's variant).
    Disjoint,
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Variant::Touching => "5T",
            Variant::Disjoint => "5D",
        })
    }
}

/// A legal move: the line runs from `start` for five steps along `dir`;
/// the new point is placed `pos` steps from `start` (`0 ≤ pos ≤ 4`), the
/// other four points already exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Move {
    pub start: Point,
    pub dir: Dir,
    pub pos: u8,
}

impl Move {
    /// The point this move adds to the board.
    #[inline]
    pub fn new_point(&self) -> Point {
        self.start.step(self.dir, self.pos as i16)
    }

    /// The five points of the move's line, in direction order.
    #[inline]
    pub fn line_points(&self) -> [Point; 5] {
        [
            self.start,
            self.start.step(self.dir, 1),
            self.start.step(self.dir, 2),
            self.start.step(self.dir, 3),
            self.start.step(self.dir, 4),
        ]
    }
}

impl std::fmt::Display for Move {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{}@{}", self.new_point(), self.dir, self.start)
    }
}

/// A Morpion Solitaire position.
pub struct Board {
    /// The line words, indexed by `line_of`. They fully determine the
    /// position (the score is the move count, derivable from occupancy).
    lines: Box<[Line; NLINES]>,
    /// XOR of the initial points' occupancy keys, where `state_hash`'s
    /// fold starts.
    initial_key: u64,
    variant: Variant,
    /// The legal moves of the current position as keys (`kill_key`), in
    /// `legal_moves` order (kept exact).
    kill: Vec<u32>,
    /// Moves played so far, in order.
    history: Vec<Move>,
    /// The initial points (for rendering and records).
    initial: std::sync::Arc<Vec<Point>>,
    /// Top-left corner of the initial points' bounding box; record
    /// coordinates are relative to it.
    origin: Point,
}

impl Clone for Board {
    fn clone(&self) -> Self {
        Self {
            lines: self.lines.clone(),
            initial_key: self.initial_key,
            variant: self.variant,
            kill: self.kill.clone(),
            history: self.history.clone(),
            initial: self.initial.clone(),
            origin: self.origin,
        }
    }

    /// Copies into `self`'s buffers: the searches restore positions by
    /// copy, so this runs once per candidate evaluation and must not
    /// allocate.
    fn clone_from(&mut self, source: &Self) {
        *self.lines = *source.lines;
        self.initial_key = source.initial_key;
        self.variant = source.variant;
        self.kill.clone_from(&source.kill);
        self.history.clone_from(&source.history);
        if !std::sync::Arc::ptr_eq(&self.initial, &source.initial) {
            self.initial = source.initial.clone();
        }
        self.origin = source.origin;
    }
}

impl Board {
    /// Builds a board with the given `initial` points placed.
    ///
    /// Panics if a point is out of the grid window or duplicated.
    pub fn from_points(variant: Variant, initial: Vec<Point>) -> Self {
        assert!(!initial.is_empty(), "initial position must have points");
        let mut lines = Box::new([Line { occ: 0, con: 0 }; NLINES]);
        let mut min = Point::new(i16::MAX, i16::MAX);
        let mut initial_key = 0u64;
        for p in &initial {
            assert!(
                in_bounds(*p),
                "initial point {p} outside the {GRID}x{GRID} window"
            );
            let (row, x) = line_of(*p, Dir::E);
            assert_eq!(lines[row].occ >> x & 1, 0, "duplicate initial point {p}");
            occupy(&mut lines, *p);
            initial_key ^= occ_key(cell_index(*p));
            min.x = min.x.min(p.x);
            min.y = min.y.min(p.y);
        }
        let mut board = Self {
            lines,
            initial_key,
            variant,
            kill: Vec::new(),
            history: Vec::new(),
            initial: std::sync::Arc::new(initial),
            origin: min,
        };
        board.kill = board.initial_candidates().iter().map(kill_key).collect();
        board
    }

    /// The rule variant in force.
    pub fn variant(&self) -> Variant {
        self.variant
    }

    /// Number of moves played so far (the Morpion score).
    pub fn move_count(&self) -> usize {
        self.history.len()
    }

    /// The moves played so far, in order.
    pub fn history(&self) -> &[Move] {
        &self.history
    }

    /// The initial points.
    pub fn initial_points(&self) -> &[Point] {
        &self.initial
    }

    /// Top-left corner of the initial points' bounding box.
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// Whether `p` holds a point (initial or played).
    #[inline]
    pub fn occupied(&self, p: Point) -> bool {
        occupied(&self.lines, p)
    }

    /// Bounding box `(min, max)` of all occupied points.
    pub fn extent(&self) -> (Point, Point) {
        let mut min = Point::new(i16::MAX, i16::MAX);
        let mut max = Point::new(i16::MIN, i16::MIN);
        for y in 0..GRID {
            let row = self.lines[line_of(Point::new(0, y), Dir::E).0].occ;
            if row != 0 {
                min.x = min.x.min(row.trailing_zeros() as i16);
                max.x = max.x.max(63 - row.leading_zeros() as i16);
                min.y = min.y.min(y);
                max.y = max.y.max(y);
            }
        }
        (min, max)
    }

    /// Checks a move against the full rules of the current position. A
    /// start off the grid is refused before anything steps from it.
    pub fn is_legal(&self, m: &Move) -> bool {
        m.pos < 5
            && self
                .check_window(m.start, m.dir)
                .is_some_and(|legal| legal.pos == m.pos)
    }

    /// Plays a legal move, updating the move cache incrementally.
    ///
    /// Panics (in all builds) if the move is illegal: silently corrupting a
    /// search is worse than failing fast, and the check is two masked
    /// words.
    pub fn play_move(&mut self, m: &Move) {
        assert!(self.is_legal(m), "illegal move {m}");
        self.play_key(kill_key(m), *m);
    }

    /// Whether the move `m` that `key` decodes to is legal: `is_legal`'s
    /// predicate on the key's own line words. The window is on the grid,
    /// has exactly one hole, at `pos`, and none of its `len` cells from
    /// the start carries its direction's mark.
    #[inline]
    fn key_is_legal(&self, key: u32, m: &Move) -> bool {
        let (line, b) = key_start(key);
        let Some(&Line { occ, con }) = self.lines.get(line) else {
            return false;
        };
        let (_, len) = constraint(self.variant, m.dir);
        // `b ≤ 59` keeps the five bits in one word, and with them the
        // window's `x` in the grid (`x` is the bit, or for S the column);
        // `y` is monotone along a line, so both ends' `y` must be in it.
        let end_y = m.start.y + 4 * m.dir.delta().1;
        let on_grid = (b <= 59) & (0..GRID).contains(&m.start.y) & (0..GRID).contains(&end_y);
        on_grid & (!(occ >> b) & 0x1F == 1 << m.pos) & ((con >> b) & ((1 << len) - 1) == 0)
    }

    /// The one body behind `play_move` and the random step: plays `m`,
    /// whose key is `key` and which the caller has checked, and updates
    /// the key list. The four lines through the new point `q` are worked
    /// out once, for its occupancy bits and for the slide.
    fn play_key(&mut self, key: u32, m: Move) {
        debug_assert_eq!(key, kill_key(&m), "key of {m}");
        let qi = key & CELL_BITS;
        let q = Point::new((qi % GRID as u32) as i16, (qi / GRID as u32) as i16);
        let through = [
            line_of(q, Dir::E),
            line_of(q, Dir::S),
            line_of(q, Dir::SE),
            line_of(q, Dir::NE),
        ];
        for (line, b) in through {
            self.lines[line].occ |= 1 << b;
        }
        let (line, b) = key_start(key);
        let len = constraint(self.variant, m.dir).1 as u32;
        let marks = ((1u64 << len) - 1) << b;
        debug_assert_eq!(self.lines[line].con & marks, 0, "legality left them clear");
        self.lines[line].con |= marks;

        // Revalidate the cache: a move dies iff its new point just got
        // occupied, or it shares constraint marks with the played line.
        // Only the played line's cells gained a mark, `dir`'s, and the
        // cache was exact before the move, so a move of another direction
        // keeps its verdict, and one of `dir` dies iff it lies on the
        // played line's grid line fewer than `len` steps from its start:
        // iff its key's start `line · 64 + bit` is within `len − 1` of the
        // played one. That range never reaches into a neighbouring line's
        // starts, because no window starts past bit 59 (its five bits lie
        // in one word): its top, at most bit 59 + 4, stays in the played
        // line, and its bottom reaches at most bits 60..63 of the line
        // numbered one lower (or wraps below zero after line 0), where no
        // start lies. Survivors keep their order: move order feeds the
        // search RNG.
        let lo = (key >> START_SHIFT & START_BITS).wrapping_sub(len - 1);
        let dies = |k: u32| {
            (k & CELL_BITS == qi) | ((k >> START_SHIFT & START_BITS).wrapping_sub(lo) < 2 * len - 1)
        };
        if cfg!(debug_assertions) {
            for &k in &self.kill {
                let c = decode(k);
                let dead = occupied(&self.lines, c.new_point())
                    || !constraints_free(&self.lines, self.variant, c.start, c.dir);
                assert_eq!(dies(k), dead, "verdict for {c} after {m}");
            }
        }
        let kill = &mut self.kill[..];
        let n = kill.len();
        // The keys before the first death stay where they are.
        let mut kept = kill.iter().position(|&k| dies(k)).unwrap_or(n);
        for i in kept + 1..n {
            let k = kill[i];
            kill[kept] = k;
            kept += usize::from(!dies(k));
        }
        self.kill.truncate(kept);

        // Add the windows through the new point. No move surviving the
        // filter contains `q` (it would have had two empty cells before
        // this move), so these are never duplicates.
        if interior(q) {
            windows_through::<false>(&self.lines, self.variant, q, &through, &mut self.kill);
        } else {
            windows_through::<true>(&self.lines, self.variant, q, &through, &mut self.kill);
        }

        self.history.push(m);
    }

    /// Structural + constraint check of the 5-window starting at `start`
    /// along `dir`. Returns the move (with the correct `pos`) iff exactly
    /// one cell is empty and the variant's overlap constraints allow a new
    /// line here.
    fn check_window(&self, start: Point, dir: Dir) -> Option<Move> {
        // Bits past a grid edge are not cells of the line: a window is
        // five bits of one word only when both its ends are in the grid.
        // The start is tested first, so no step leaves the `i16` range.
        if !in_bounds(start) || !in_bounds(start.step(dir, 4)) {
            return None;
        }
        let (line, b) = line_of(start, dir);
        let holes = !(self.lines[line].occ >> b) & 0x1F;
        if holes.count_ones() != 1 || !constraints_free(&self.lines, self.variant, start, dir) {
            return None;
        }
        Some(Move {
            start,
            dir,
            pos: holes.trailing_zeros() as u8,
        })
    }

    /// The legal moves of a board that holds only its initial points, in
    /// [`Board::recompute_candidates`]' (y, x, direction) order, probing
    /// only the windows through an initial point: with no line drawn, a
    /// legal window holds four initial points, so its start is `p − k·e`
    /// (`k ∈ 0..5`) for one of them.
    fn initial_candidates(&self) -> Vec<Move> {
        // One bit per (start, direction) at `(y · GRID + x) · 4 + d`: the
        // set bits, read in index order, are the probe loop's windows
        // without repeats.
        const WORDS: usize = GRID as usize * GRID as usize * DIRS.len() / 64;
        let mut starts = [0u64; WORDS];
        for &p in self.initial.iter() {
            for (d, dir) in DIRS.into_iter().enumerate() {
                for k in 0..5 {
                    let start = p.step(dir, -k);
                    if in_bounds(start) {
                        let i = cell_index(start) * DIRS.len() + d;
                        starts[i / 64] |= 1 << (i % 64);
                    }
                }
            }
        }
        let mut out = Vec::new();
        for (w, mut bits) in starts.into_iter().enumerate() {
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let cell = (i / DIRS.len()) as i16;
                let start = Point::new(cell % GRID, cell / GRID);
                if let Some(mv) = self.check_window(start, DIRS[i % DIRS.len()]) {
                    out.push(mv);
                }
            }
        }
        out
    }

    /// Recomputes the legal-move list from scratch (O(grid²)); the
    /// incremental cache is tested against this.
    pub fn recompute_candidates(&self) -> Vec<Move> {
        let mut out = Vec::new();
        for y in 0..GRID {
            for x in 0..GRID {
                let start = Point::new(x, y);
                for dir in DIRS {
                    if let Some(mv) = self.check_window(start, dir) {
                        out.push(mv);
                    }
                }
            }
        }
        out
    }
}

#[inline]
fn in_bounds(p: Point) -> bool {
    (0..GRID).contains(&p.x) && (0..GRID).contains(&p.y)
}

#[inline]
fn cell_index(p: Point) -> usize {
    debug_assert!(in_bounds(p));
    p.y as usize * GRID as usize + p.x as usize
}

/// Whether `p` is in the grid and occupied.
#[inline]
fn occupied(lines: &[Line; NLINES], p: Point) -> bool {
    in_bounds(p) && {
        let (row, x) = line_of(p, Dir::E);
        lines[row].occ >> x & 1 != 0
    }
}

/// Fields of a move key (see the module docs): the new point's flat cell
/// index, the start's `line · 64 + bit` (below 382 · 64 < 2¹⁵) and `pos`.
const CELL_BITS: u32 = 0xFFF;
const START_SHIFT: u32 = 12;
const START_BITS: u32 = 0x7FFF;
const POS_SHIFT: u32 = 27;

/// A move's key. `windows_through` builds the same value from its own
/// variables.
#[inline]
fn kill_key(m: &Move) -> u32 {
    let (line, b) = line_of(m.start, m.dir);
    cell_index(m.new_point()) as u32
        | (line as u32 * 64 + b) << START_SHIFT
        | u32::from(m.pos) << POS_SHIFT
}

/// The key's start: its line and its bit in that line's words.
#[inline]
fn key_start(key: u32) -> (usize, u32) {
    let start = key >> START_SHIFT & START_BITS;
    ((start >> 6) as usize, start & 63)
}

/// Per direction, the start's coordinates as linear forms of its line `l`
/// and bit `b` (the inverse of `line_of`): `x = xb·b + xl·l + x0` and
/// `y = yb·b + yl·l + y0`, as `[xb, xl, x0, yb, yl, y0]`.
const START: [[i16; 6]; 4] = [
    [1, 0, 0, 0, 1, 0],     // E: x = b, y = l
    [0, 1, -64, 1, 0, 0],   // S: x = l − 64, y = b
    [1, 0, 0, 1, -1, 191],  // SE: l = 191 + x − y
    [1, 0, 0, -1, 1, -255], // NE: l = 255 + x + y
];

/// The move a key stands for, without a branch: the direction is the
/// line's range (rows, columns, falling and rising diagonals begin at
/// lines 0, 64, 128 and 255), and the start a per-direction linear form
/// of the line and the bit (`START`).
#[inline]
fn decode(key: u32) -> Move {
    let (line, b) = key_start(key);
    let d = usize::from(line >= 64) + usize::from(line >= 128) + usize::from(line >= 255);
    let [xb, xl, x0, yb, yl, y0] = START[d];
    let (l, b) = (line as i16, b as i16);
    Move {
        start: Point::new(xb * b + xl * l + x0, yb * b + yl * l + y0),
        dir: DIRS[d],
        pos: (key >> POS_SHIFT) as u8,
    }
}

/// Whether every direction's nine cells `q − 4e … q + 4e` are on the grid,
/// so that `windows_through` may take its interior build.
#[inline]
fn interior(q: Point) -> bool {
    (4..=GRID - 5).contains(&q.x) && (4..=GRID - 5).contains(&q.y)
}

/// Appends the keys of the moves whose windows run through `q`, in the
/// order of one `check_window` probe per direction and start `q − k·e`,
/// `k = 0..5`; `through` holds `line_of(q, e)` for each direction. One
/// pass per direction instead: bit `i` of two 9-bit masks stands for the
/// cell `i − 4` steps from `q`; `occ` holds which cells are occupied and
/// `con` which carry `e`'s constraint mark, both cut from `q`'s line word
/// along `e`. The window whose cells are bits `s..s+4` (start
/// `q − (4−s)·e`) is a move iff it has exactly one hole (`ONE_HOLE`), all
/// five cells are in the grid, and none of the `len` cells its line would
/// mark is marked already. The four directions' open windows are found
/// first and pushed in one loop, direction by direction, highest `s`
/// (that is `k = 4 − s` ascending) first. A move's key is built from what
/// the pass holds: its start is bit `b + s − 4` of `q`'s line, and its
/// new point `s − 4 + pos` steps from `q`.
///
/// With `EDGE` false, `q` must be `interior`: each mask is one plain shift
/// of the word and every window is in the grid. With `EDGE` true the
/// masks are cut through a `u128` (`nine_around`) and windows past the
/// grid are dropped (`reach`); that build is right for every `q`.
#[inline]
fn windows_through<const EDGE: bool>(
    lines: &[Line; NLINES],
    variant: Variant,
    q: Point,
    through: &[(usize, u32); 4],
    keys: &mut Vec<u32>,
) {
    debug_assert!(EDGE || interior(q), "{q} is not interior");
    let qi = cell_index(q) as u32;
    // The fifth mark is 5D's; in 5T a line marks four cells.
    let fifth = if constraint(variant, Dir::E).1 == 5 {
        0x1FF
    } else {
        0
    };
    let mut occs = [0; 4];
    let mut open = 0u32;
    for (d, e) in DIRS.into_iter().enumerate() {
        let (line, b) = through[d];
        let Line { occ, con } = lines[line];
        let (occ, con, inside) = if EDGE {
            let (back, fwd) = reach(q, e);
            let inside = (0x1F >> (4 - fwd)) & (0x1F << (4 - back));
            (nine_around(occ, b), nine_around(con, b), inside)
        } else {
            let cut = |word: u64| (word >> (b - 4)) as usize & 0x1FF;
            (cut(occ), cut(con), 0x1F)
        };
        let marked = con | con >> 1 | con >> 2 | con >> 3 | (con >> 4 & fifth);
        occs[d] = occ;
        // Direction `d`'s windows go to byte `3 − d`, so the highest set
        // bit is the next window in push order.
        open |= ((usize::from(ONE_HOLE[occ]) & inside & !marked) as u32) << (8 * (3 - d));
    }
    while open != 0 {
        let t = open.ilog2();
        open ^= 1 << t;
        let (d, s) = (3 - (t / 8) as usize, t % 8);
        let pos = ((!occs[d] >> s) & 0x1F).trailing_zeros();
        let (line, b) = through[d];
        let step = flat_step(DIRS[d]) as i32;
        let new_point = qi.wrapping_add_signed(step * (s + pos) as i32 - 4 * step);
        keys.push(new_point | (line as u32 * 64 + b + s - 4) << START_SHIFT | pos << POS_SHIFT);
    }
}

/// The line through the in-bounds point `p` along `dir`, as an index into
/// `Board::lines`, and `p`'s bit in its words: rows are lines `0..64`
/// (bit `x`), columns `64..128` (bit `y`), falling diagonals `128..255`
/// (one per `x − y`, bit `x`) and rising ones `255..382` (one per
/// `x + y`, bit `x`). A step along `dir` is one bit up the same line.
#[inline]
fn line_of(p: Point, dir: Dir) -> (usize, u32) {
    const G: usize = GRID as usize;
    debug_assert!(in_bounds(p));
    let (x, y) = (p.x as usize, p.y as usize);
    match dir {
        Dir::E => (y, x as u32),
        Dir::S => (G + x, y as u32),
        Dir::SE => (3 * G - 1 + x - y, x as u32),
        Dir::NE => (4 * G - 1 + x + y, x as u32),
    }
}

/// Sets `p`'s occupancy bit in its row, its column and both diagonals.
#[inline]
fn occupy(lines: &mut [Line; NLINES], p: Point) {
    for dir in DIRS {
        let (line, b) = line_of(p, dir);
        lines[line].occ |= 1 << b;
    }
}

/// Bits `b−4 … b+4` of `word` as bits `0 … 8`; the bits below bit 0 and
/// above bit 63 read as clear.
#[inline]
fn nine_around(word: u64, b: u32) -> usize {
    ((u128::from(word) << 4 >> b) & 0x1FF) as usize
}

/// How many steps from `q` along `dir` stay in the grid, backwards and
/// forwards, each capped at 4: the in-bounds run of the nine cells
/// `q−4·dir … q+4·dir`.
#[inline]
fn reach(q: Point, dir: Dir) -> (usize, usize) {
    debug_assert!(in_bounds(q));
    // Room before and after `c` on one axis that a step changes by `d`.
    let room = |c: i16, d: i16| match d {
        0 => (4, 4),
        1 => (c, GRID - 1 - c),
        _ => (GRID - 1 - c, c),
    };
    let (dx, dy) = dir.delta();
    let (bx, fx) = room(q.x, dx);
    let (by, fy) = room(q.y, dy);
    (bx.min(by).min(4) as usize, fx.min(fy).min(4) as usize)
}

/// `ONE_HOLE[occ]` has bit `s` (`0 ≤ s ≤ 4`) set iff bits `s..s+4` of the
/// 9-bit occupancy mask `occ` hold exactly one zero. A `const`, so the
/// playout path never initialises it.
const ONE_HOLE: [u8; 512] = {
    let mut table = [0u8; 512];
    let mut occ: usize = 0;
    while occ < 512 {
        let mut s = 0;
        while s < 5 {
            if ((!occ >> s) & 0x1F).count_ones() == 1 {
                table[occ] |= 1 << s;
            }
            s += 1;
        }
        occ += 1;
    }
    table
};

/// The flat-index offset of one step along `dir`.
#[inline]
const fn flat_step(dir: Dir) -> isize {
    const G: isize = GRID as isize;
    match dir {
        Dir::E => 1,
        Dir::S => G,
        Dir::SE => G + 1,
        Dir::NE => 1 - G,
    }
}

/// Flat index `k` cells from `base` along `dir`: one signed offset per
/// direction (`flat_step`). Row-safe only between two in-bounds end points
/// (a move's window); debug builds check that the step stayed on the grid
/// line, release builds let it wrap. `state_hash` walks a move's line with
/// it.
#[inline]
fn along(base: usize, dir: Dir, k: usize) -> usize {
    let idx = base.wrapping_add_signed(flat_step(dir) * k as isize);
    debug_assert!(
        idx < NCELLS
            && (idx % GRID as usize) == (base % GRID as usize) + (dir.delta().0 as usize) * k,
        "step {k} along {dir} from cell {base} left the grid line"
    );
    idx
}

/// The mark a line of direction `dir` sets (as its Zobrist identity), and
/// on how many of its cells from the start: all five points in 5D, the
/// four unit segments in 5T.
#[inline]
const fn constraint(variant: Variant, dir: Dir) -> (u16, usize) {
    match variant {
        Variant::Disjoint => (used_bit(dir), 5),
        Variant::Touching => (seg_bit(dir), 4),
    }
}

/// Whether a line of direction `dir` from `start` would overlap a
/// same-direction line beyond what the variant allows: one masked word.
#[inline]
fn constraints_free(lines: &[Line; NLINES], variant: Variant, start: Point, dir: Dir) -> bool {
    let (line, b) = line_of(start, dir);
    let (_, len) = constraint(variant, dir);
    (lines[line].con >> b) & ((1 << len) - 1) == 0
}

impl Game for Board {
    type Move = Move;

    fn legal_moves(&self, out: &mut Vec<Move>) {
        out.extend(self.kill.iter().map(|&key| decode(key)));
    }

    fn play(&mut self, mv: &Move) {
        self.play_move(mv);
    }

    /// Draws one key, `rng.below(n)` over the list `legal_moves` decodes,
    /// checks it against the rules on its own line words, and plays it:
    /// draw for draw the default step, with no move list copied.
    fn play_random(&mut self, rng: &mut Rng, _: &mut Vec<Move>) -> Option<Move> {
        if self.kill.is_empty() {
            return None;
        }
        let key = self.kill[rng.below(self.kill.len())];
        let m = decode(key);
        assert!(self.key_is_legal(key, &m), "illegal move {m}");
        self.play_key(key, m);
        Some(m)
    }

    /// The Morpion score: "the score is the number of moves played in the
    /// game" (paper §III).
    fn score(&self) -> Score {
        self.history.len() as Score
    }

    fn moves_played(&self) -> usize {
        self.history.len()
    }

    fn is_terminal(&self) -> bool {
        self.kill.is_empty()
    }

    /// The Zobrist key over occupancy and constraint marks, folded on
    /// demand: the initial points' key, then each move's new point and the
    /// marks its line set. No move sets a bit twice (legality), so this is
    /// the XOR over the bits the board holds: the words fully determine
    /// the position (the score is the move count, derivable from
    /// occupancy minus the fixed cross), and transposed move orders
    /// reaching the same marks hash equal. Playing pays nothing for it;
    /// a caller that asks pays O(moves).
    fn state_hash(&self) -> u64 {
        self.history.iter().fold(self.initial_key, |h, m| {
            let (bit, len) = constraint(self.variant, m.dir);
            let base = cell_index(m.start);
            let h = h ^ occ_key(along(base, m.dir, m.pos as usize));
            (0..len).fold(h, |h, k| h ^ line_key(along(base, m.dir, k), bit))
        })
    }
}

impl nmcs_core::CodedGame for Board {
    /// Moves are identified by (line start, direction, new-point slot):
    /// stable across positions, exactly what NRPA's policy table needs
    /// (Rosin's NRPA record runs on Morpion use the same identification).
    fn move_code(&self, mv: &Move) -> u64 {
        let cell = mv.start.y as u64 * GRID as u64 + mv.start.x as u64;
        (cell << 5) | ((mv.dir.index() as u64) << 3) | mv.pos as u64
    }
}

impl std::fmt::Debug for Board {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Board({}, {} initial, {} moves, {} candidates)",
            self.variant,
            self.initial.len(),
            self.history.len(),
            self.kill.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cross::{cross_board, cross_points, STANDARD_ARM};
    use nmcs_core::Rng;

    /// The legal moves, in cache order.
    fn moves(b: &Board) -> Vec<Move> {
        let mut out = Vec::new();
        b.legal_moves(&mut out);
        out
    }

    fn row_board(variant: Variant, n: usize) -> Board {
        // n consecutive points on a horizontal row, centred.
        let y = GRID / 2;
        let x0 = (GRID - n as i16) / 2;
        let pts = (0..n as i16).map(|i| Point::new(x0 + i, y)).collect();
        Board::from_points(variant, pts)
    }

    #[test]
    fn four_in_a_row_has_two_extensions() {
        for variant in [Variant::Disjoint, Variant::Touching] {
            let b = row_board(variant, 4);
            assert_eq!(moves(&b).len(), 2, "{variant}: extend left or right");
            for c in moves(&b) {
                assert_eq!(c.dir, Dir::E);
            }
        }
    }

    #[test]
    fn three_in_a_row_has_no_moves() {
        let b = row_board(Variant::Disjoint, 3);
        assert!(moves(&b).is_empty());
        assert!(b.is_terminal());
    }

    #[test]
    fn playing_an_extension_marks_line_and_updates_candidates() {
        let mut b = row_board(Variant::Disjoint, 4);
        let mv = moves(&b)[0];
        b.play_move(&mv);
        assert_eq!(b.move_count(), 1);
        assert!(b.occupied(mv.new_point()));
        // 5 points in a used row: in 5D no further horizontal move may
        // reuse any of them; a row of 5 has no legal move at all.
        assert!(b.is_terminal());
    }

    #[test]
    fn touching_allows_endpoint_reuse_disjoint_does_not() {
        // X X X X _ X X X _ : playing [x0..x0+4] fills the first gap; the
        // follow-up line [x0+4..x0+8] then shares exactly the endpoint
        // x0+4 with it and adds a point in the second gap.
        let y = GRID / 2;
        let x0 = GRID / 2 - 4;
        let pts: Vec<Point> = [0i16, 1, 2, 3, 5, 6, 7]
            .iter()
            .map(|&i| Point::new(x0 + i, y))
            .collect();

        for variant in [Variant::Disjoint, Variant::Touching] {
            let mut b = Board::from_points(variant, pts.clone());
            let first = Move {
                start: Point::new(x0, y),
                dir: Dir::E,
                pos: 4,
            };
            assert!(b.is_legal(&first), "{variant}: gap fill must be legal");
            b.play_move(&first);

            // The follow-up shares the endpoint x0+4 with the played line.
            let follow = Move {
                start: Point::new(x0 + 4, y),
                dir: Dir::E,
                pos: 4,
            };
            let legal_now = b.is_legal(&follow);
            let cached = moves(&b).contains(&follow);
            assert_eq!(legal_now, cached, "{variant}: cache agrees with rules");
            match variant {
                // 5T: the two lines share only the endpoint — allowed.
                Variant::Touching => assert!(legal_now, "5T allows touching lines"),
                // 5D: sharing any point is banned.
                Variant::Disjoint => assert!(!legal_now, "5D forbids point sharing"),
            }
        }
    }

    /// Checks the key list: it decodes to the from-scratch recompute (as
    /// a set; the cache order is the slide's), and every key decodes to a
    /// move that both checks call legal and whose key it is.
    fn assert_keys(b: &Board, what: &str) {
        let sorted = |mut v: Vec<Move>| {
            v.sort_by_key(|m| (m.start.y, m.start.x, m.dir.index(), m.pos));
            v
        };
        assert_eq!(sorted(moves(b)), sorted(b.recompute_candidates()), "{what}");
        for &key in &b.kill {
            let m = decode(key);
            assert_eq!(kill_key(&m), key, "{what}: key of {m}");
            assert!(b.is_legal(&m) && b.key_is_legal(key, &m), "{what}: {m}");
        }
    }

    #[test]
    fn incremental_candidates_match_full_recompute_along_random_games() {
        for variant in [Variant::Disjoint, Variant::Touching] {
            let mut b = cross_board(variant, 4);
            let mut rng = Rng::seeded(42);
            let mut steps = 0;
            while !b.is_terminal() && steps < 200 {
                assert_keys(&b, &format!("{variant} step {steps}"));
                let cached = moves(&b);
                b.play_move(&cached[rng.below(cached.len())]);
                steps += 1;
            }
            assert_keys(&b, &format!("{variant} end"));
            assert!(steps > 10, "{variant}: game should last more than 10 moves");
        }
    }

    /// From-scratch recompute of the Zobrist key: fold every occupied
    /// point and every constraint mark the line words hold through the
    /// same key functions.
    fn rehash(b: &Board) -> u64 {
        let mut h = 0u64;
        for y in 0..GRID {
            for x in 0..GRID {
                let p = Point::new(x, y);
                let idx = cell_index(p);
                if b.occupied(p) {
                    h ^= occ_key(idx);
                }
                for d in DIRS {
                    let (line, bit) = line_of(p, d);
                    if b.lines[line].con >> bit & 1 != 0 {
                        h ^= line_key(idx, constraint(b.variant, d).0);
                    }
                }
            }
        }
        h
    }

    #[test]
    fn state_hash_fold_matches_a_rehash_of_the_words_along_random_games() {
        for variant in [Variant::Disjoint, Variant::Touching] {
            let mut b = cross_board(variant, 4);
            assert_eq!(b.state_hash(), rehash(&b), "{variant}: initial cross");
            let mut rng = Rng::seeded(11);
            let mut steps = 0;
            while steps < 40 && b.play_random(&mut rng, &mut Vec::new()).is_some() {
                assert_eq!(
                    b.state_hash(),
                    rehash(&b),
                    "{variant} step {steps}: play path"
                );
                steps += 1;
            }
            assert!(steps > 10, "{variant}: game should progress");
        }
    }

    /// Folds the candidate list *in cache order* (the order that feeds
    /// the search RNG) into one word.
    fn candidates_digest(b: &Board, acc: u64) -> u64 {
        use nmcs_core::CodedGame;
        let moves = moves(b);
        let mut h = mix64(acc ^ moves.len() as u64);
        for m in &moves {
            h = mix64(h ^ b.move_code(m));
        }
        h
    }

    #[test]
    fn state_hash_and_candidate_order_are_pinned_along_fixed_lines() {
        // One line per variant from the standard cross, each move drawn by
        // position in the unsorted cache, so the line itself also depends
        // on the order. `hashes` is the state hash after each of the first
        // moves; `order` digests every candidate list, in cache order,
        // along the whole line; `len` is the game's length.
        struct Pin {
            variant: Variant,
            seed: u64,
            hashes: [u64; 12],
            order: u64,
            len: usize,
        }
        const PINS: [Pin; 2] = [
            Pin {
                variant: Variant::Disjoint,
                seed: 2009,
                hashes: [
                    0x1610bc339fbfeeb2,
                    0x2ebb389a7f18ee93,
                    0x7816f2340e96b9b4,
                    0xa64090afa2a9193a,
                    0x7657df69db8aa0ca,
                    0x9ee3325ce89d596a,
                    0xd7a846e21ef8b91c,
                    0x4a1a0b85b430ebec,
                    0xfedff230f5aea0d0,
                    0xf8c8042a3142d36a,
                    0x09eb0f1f042a8e05,
                    0x841f8c8ad94e49b9,
                ],
                order: 0x36e1bdd62a642460,
                len: 58,
            },
            Pin {
                variant: Variant::Touching,
                seed: 37,
                hashes: [
                    0xfc1fbe7faa758af1,
                    0xf0e7050c953c05f1,
                    0xa3897e893eb53f31,
                    0xc16cebfb911d075f,
                    0xb84b61b51efe652d,
                    0xbc1ee2e0a61a68b7,
                    0x7810b72ac7b42d94,
                    0x449373b39d7bb5b8,
                    0x200aa7f37e2ec702,
                    0x67a9e47f8211cc73,
                    0x80d37ccc4d8e25f3,
                    0x819791a70280f2fa,
                ],
                order: 0xfa6fde2009e1135a,
                len: 59,
            },
        ];
        for pin in PINS {
            let mut b = cross_board(pin.variant, 4);
            let mut rng = Rng::seeded(pin.seed);
            let mut hashes = Vec::new();
            let mut order = candidates_digest(&b, 0);
            while b.play_random(&mut rng, &mut Vec::new()).is_some() {
                hashes.push(b.state_hash());
                order = candidates_digest(&b, order);
            }
            let head: Vec<String> = hashes
                .iter()
                .take(12)
                .map(|h| format!("{h:#018x}"))
                .collect();
            assert_eq!(
                (&hashes[..12], order, b.move_count()),
                (&pin.hashes[..], pin.order, pin.len),
                "{}: now hashes [{}], order {order:#018x}, len {}",
                pin.variant,
                head.join(", "),
                b.move_count()
            );
        }
    }

    /// Boards whose points run into every edge and corner of the window,
    /// plus "wrap traps": four points that follow one another in flat cell
    /// order along a direction's offset but do not lie on one grid line,
    /// so a window that stepped past the right edge into the next row
    /// would find four occupied cells and one empty one; and points on the
    /// top and bottom rows, where an unguarded step leaves the array.
    fn edge_boards(variant: Variant) -> Vec<Board> {
        let s = 3 * STANDARD_ARM - 2; // side of the standard cross's box
        let centred = (GRID - s) / 2;
        let mut out = Vec::new();
        for ox in [0, centred, GRID - s] {
            for oy in [0, centred, GRID - s] {
                if ox == centred && oy == centred {
                    continue;
                }
                let pts = cross_points(STANDARD_ARM)
                    .into_iter()
                    .map(|p| Point::new(p.x - centred + ox, p.y - centred + oy))
                    .collect();
                out.push(Board::from_points(variant, pts));
            }
        }
        let last = GRID - 1;
        let traps: [&[(i16, i16)]; 4] = [
            // E past the right edge: (61..=63, 20) then (0, 21).
            &[(61, 20), (62, 20), (63, 20), (0, 21)],
            // SE past the right edge: (62, 20), (63, 21), then (0, 23).
            &[(62, 20), (63, 21), (0, 23), (1, 24)],
            // NE past the right edge: (62, 31), (63, 30), then (0, 30).
            &[(62, 31), (63, 30), (0, 30), (1, 29)],
            // NE past the top edge, and a row across the bottom corner.
            &[
                (1, 2),
                (2, 1),
                (3, 0),
                (60, last),
                (61, last),
                (62, last),
                (63, last),
            ],
        ];
        for trap in traps {
            let pts = trap.iter().map(|&(x, y)| Point::new(x, y)).collect();
            out.push(Board::from_points(variant, pts));
        }
        out
    }

    #[test]
    fn the_first_key_list_is_the_full_probe_loop() {
        let mut boards = vec![crate::cross::standard_5d(), crate::cross::standard_5t()];
        let mut rng = Rng::seeded(44);
        for variant in [Variant::Disjoint, Variant::Touching] {
            boards.extend(crate::cross::ARMS.map(|n| cross_board(variant, n)));
            boards.extend(edge_boards(variant));
            // Random point sets: dense enough in a 10x10 box for
            // one-hole windows, the box anywhere on the grid, corners too.
            for _ in 0..40 {
                let (ox, oy) = (rng.below(55) as i16, rng.below(55) as i16);
                let mut pts = Vec::new();
                for y in 0..10 {
                    for x in 0..10 {
                        if rng.chance(0.55) {
                            pts.push(Point::new(ox + x, oy + y));
                        }
                    }
                }
                if pts.is_empty() {
                    pts.push(Point::new(ox, oy));
                }
                boards.push(Board::from_points(variant, pts));
            }
        }
        let mut moves_seen = 0;
        for (i, b) in boards.iter().enumerate() {
            let full = b.recompute_candidates();
            assert_eq!(b.initial_candidates(), full, "board {i}");
            let keys: Vec<u32> = full.iter().map(kill_key).collect();
            assert_eq!(b.kill, keys, "board {i}");
            moves_seen += full.len();
        }
        assert!(
            moves_seen > 1000,
            "the boards have moves to find: {moves_seen}"
        );
    }

    #[test]
    fn candidates_stay_inside_the_window_near_every_edge() {
        for variant in [Variant::Disjoint, Variant::Touching] {
            // Played lines whose start bit is below `len − 1`: the filter's
            // range of killed starts reaches below the line's bit 0.
            let mut low_starts = 0;
            for (i, root) in edge_boards(variant).into_iter().enumerate() {
                for seed in 0..3 {
                    let mut b = root.clone();
                    let mut rng = Rng::seeded(seed);
                    let mut steps = 0;
                    loop {
                        let what = format!("{variant} board {i} seed {seed} step {steps}");
                        assert_keys(&b, &what);
                        for m in &moves(&b) {
                            let pts = m.line_points();
                            assert!(
                                pts.iter().all(|&p| in_bounds(p)),
                                "{variant} board {i}: {m} leaves the window"
                            );
                            let empty: Vec<_> = pts.iter().filter(|&&p| !b.occupied(p)).collect();
                            assert_eq!(empty, [&m.new_point()], "{variant} board {i}: {m}");
                        }
                        let Some(mv) = b.play_random(&mut rng, &mut Vec::new()) else {
                            break;
                        };
                        let len = constraint(variant, mv.dir).1;
                        if (line_of(mv.start, mv.dir).1 as usize) < len - 1 {
                            low_starts += 1;
                        }
                        steps += 1;
                    }
                    if i < 8 {
                        assert!(steps > 10, "{variant} board {i}: the cross should play on");
                    }
                }
            }
            assert!(
                low_starts > 0,
                "{variant}: no line started below bit len − 1"
            );
        }
    }

    /// Checks the line words against what they must hold: every point's
    /// occupancy bit agrees in its row, column and both diagonals, no word
    /// holds an occupancy bit of a point off the grid, and the constraint
    /// words hold exactly the marks of the lines in `history`.
    fn assert_words_consistent(b: &Board, what: &str) {
        let mut count = [0u32; 4];
        let mut marks = [0u64; NLINES];
        for m in b.history() {
            let (_, len) = constraint(b.variant, m.dir);
            for k in 0..len as i16 {
                let (line, bit) = line_of(m.start.step(m.dir, k), m.dir);
                marks[line] |= 1 << bit;
            }
        }
        for y in 0..GRID {
            for x in 0..GRID {
                let p = Point::new(x, y);
                let occupied = DIRS.map(|d| {
                    let (line, bit) = line_of(p, d);
                    b.lines[line].occ >> bit & 1 != 0
                });
                assert!(
                    occupied.iter().all(|&o| o == occupied[0]),
                    "{what}: orientations disagree at {p}: {occupied:?}"
                );
                if occupied[0] {
                    count = count.map(|c| c + 1);
                }
            }
        }
        let ranges = [0..64, 64..128, 128..255, 255..NLINES];
        for (d, range) in ranges.into_iter().enumerate() {
            let bits: u32 = b.lines[range].iter().map(|l| l.occ.count_ones()).sum();
            assert_eq!(bits, count[d], "{what}: {} holds stray bits", DIRS[d]);
        }
        let points = b.initial_points().len() + b.move_count();
        assert_eq!(count[0] as usize, points, "{what}: occupied points");
        for (line, want) in marks.iter().enumerate() {
            assert_eq!(b.lines[line].con, *want, "{what}: marks of line {line}");
        }
    }

    #[test]
    fn line_words_agree_across_orientations_and_hold_exactly_the_played_marks() {
        for variant in [Variant::Disjoint, Variant::Touching] {
            let roots = std::iter::once(cross_board(variant, 4)).chain(edge_boards(variant));
            for (i, root) in roots.enumerate() {
                let mut b = root;
                let mut rng = Rng::seeded(100 + i as u64);
                assert_words_consistent(&b, &format!("{variant} board {i} root"));
                while b.play_random(&mut rng, &mut Vec::new()).is_some() {
                    let what = format!("{variant} board {i} move {}", b.move_count());
                    assert_words_consistent(&b, &what);
                }
            }
        }
    }

    /// The reference `windows_through` is tested against: one
    /// `check_window` probe per direction `e` and start `q − k·e`,
    /// `k = 0..5`, in that order.
    fn probe_windows(b: &Board, q: Point, out: &mut Vec<Move>) {
        for e in DIRS {
            for k in 0..5 {
                if let Some(mv) = b.check_window(q.step(e, -k), e) {
                    out.push(mv);
                }
            }
        }
    }

    #[test]
    fn windows_through_matches_the_probe_loop_at_every_point() {
        // The cross boards, the edge and wrap-trap boards, and random
        // positions reached from each of them.
        let mut boards = Vec::new();
        for variant in [Variant::Disjoint, Variant::Touching] {
            let roots: Vec<Board> = [cross_board(variant, 3), cross_board(variant, 4)]
                .into_iter()
                .chain(edge_boards(variant))
                .collect();
            for (i, root) in roots.iter().enumerate() {
                let mut b = root.clone();
                let mut rng = Rng::seeded(i as u64);
                let mut steps = 0;
                loop {
                    if steps % 20 == 0 {
                        boards.push(b.clone());
                    }
                    if b.play_random(&mut rng, &mut Vec::new()).is_none() {
                        break;
                    }
                    steps += 1;
                }
                boards.push(b);
            }
        }
        // Each point goes through the build `play_key` picks for it, and
        // through the clipped build, which is right everywhere.
        let (mut keys, mut clipped, mut probes) = (Vec::new(), Vec::new(), Vec::new());
        let (mut inner, mut edge) = (0, 0);
        for b in &boards {
            for y in 0..GRID {
                for x in 0..GRID {
                    let q = Point::new(x, y);
                    let through = DIRS.map(|d| line_of(q, d));
                    keys.clear();
                    clipped.clear();
                    probes.clear();
                    if interior(q) {
                        inner += 1;
                        windows_through::<false>(&b.lines, b.variant, q, &through, &mut keys);
                    } else {
                        edge += 1;
                        windows_through::<true>(&b.lines, b.variant, q, &through, &mut keys);
                    }
                    windows_through::<true>(&b.lines, b.variant, q, &through, &mut clipped);
                    probe_windows(b, q, &mut probes);
                    let slide: Vec<Move> = keys.iter().map(|&k| decode(k)).collect();
                    assert_eq!(slide, probes, "{b:?} at {q}");
                    let want: Vec<u32> = probes.iter().map(kill_key).collect();
                    assert_eq!(keys, want, "{b:?} at {q}: keys");
                    assert_eq!(clipped, want, "{b:?} at {q}: clipped build");
                }
            }
        }
        assert!(inner > 0 && edge > 0, "interior {inner}, edge {edge}");
    }

    #[test]
    fn standard_cross_has_28_first_moves() {
        // 12 horizontal + 12 vertical extensions of the eight 4-runs, plus
        // 4 diagonal inner-corner completions; verified against the full
        // recompute and stable across variants (no lines played yet).
        let b5d = cross_board(Variant::Disjoint, 4);
        let b5t = cross_board(Variant::Touching, 4);
        assert_eq!(moves(&b5d).len(), moves(&b5t).len());
        assert_eq!(moves(&b5d).len(), b5d.recompute_candidates().len());
        let n = moves(&b5d).len();
        assert_eq!(n, 28, "standard cross admits 28 first moves, got {n}");
    }

    #[test]
    fn score_equals_moves_played() {
        let mut b = cross_board(Variant::Disjoint, 4);
        let mut rng = Rng::seeded(3);
        for i in 0..10 {
            assert_eq!(b.score(), i as Score);
            assert!(b.play_random(&mut rng, &mut Vec::new()).is_some());
        }
        assert_eq!(b.score(), 10);
        assert_eq!(b.moves_played(), 10);
    }

    #[test]
    #[should_panic(expected = "illegal move")]
    fn illegal_move_panics() {
        let mut b = row_board(Variant::Disjoint, 4);
        let bogus = Move {
            start: Point::new(0, 0),
            dir: Dir::E,
            pos: 0,
        };
        b.play_move(&bogus);
    }

    #[test]
    fn the_key_check_agrees_with_is_legal_on_every_key() {
        // Every start field and `pos` (on the grid or not, legal or not),
        // at positions every 15 moves along games from the edge and
        // wrap-trap boards.
        for variant in [Variant::Disjoint, Variant::Touching] {
            for (i, mut b) in edge_boards(variant).into_iter().enumerate() {
                let mut rng = Rng::seeded(i as u64);
                let mut more = true;
                while more {
                    for start in 0..NLINES as u32 * 64 {
                        for pos in 0..5 {
                            let key = start << START_SHIFT | pos << POS_SHIFT;
                            let m = decode(key);
                            if in_bounds(m.start) {
                                let (line, bit) = line_of(m.start, m.dir);
                                assert_eq!(line as u32 * 64 + bit, start, "{m}");
                            }
                            let want = b.is_legal(&m);
                            assert_eq!(b.key_is_legal(key, &m), want, "{b:?}: {m}");
                        }
                    }
                    more = (0..15).all(|_| b.play_random(&mut rng, &mut Vec::new()).is_some());
                }
            }
        }
    }

    #[test]
    fn a_stale_key_panics_in_the_random_step_in_every_build() {
        // Three ways a cached key can go stale: its new point filled, its
        // window marked, and a window that runs past the right edge (the
        // only hole is off the grid), each the only key left to draw.
        let stalings: [fn(&mut Board); 3] = [
            |b| occupy(&mut b.lines, decode(b.kill[0]).new_point()),
            |b| {
                let (line, bit) = key_start(b.kill[0]);
                b.lines[line].con |= 1 << bit;
            },
            |b| {
                let y = GRID / 2;
                for x in GRID - 4..GRID {
                    occupy(&mut b.lines, Point::new(x, y));
                }
                let start = (y * GRID + GRID - 4) as u32;
                b.kill[0] = ((y + 1) * GRID) as u32 | start << START_SHIFT | 4 << POS_SHIFT;
            },
        ];
        for (i, stale) in stalings.into_iter().enumerate() {
            let mut b = row_board(Variant::Disjoint, 4);
            b.kill.truncate(1);
            stale(&mut b);
            let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                b.play_random(&mut Rng::seeded(0), &mut Vec::new())
            }));
            let err = step.expect_err("a stale key must not be played");
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(msg.starts_with("illegal move"), "staling {i}: {msg}");
        }
    }

    #[test]
    fn is_legal_refuses_a_start_off_the_grid_before_stepping() {
        let b = row_board(Variant::Disjoint, 4);
        for (x, y) in [
            (i16::MAX - 1, 3),
            (3, i16::MAX),
            (-1, 3),
            (i16::MIN, i16::MIN),
        ] {
            for dir in DIRS {
                let m = Move {
                    start: Point::new(x, y),
                    dir,
                    pos: 0,
                };
                assert!(!b.is_legal(&m), "({x},{y}) {dir}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate initial point")]
    fn duplicate_initial_points_rejected() {
        let p = Point::new(30, 30);
        let _ = Board::from_points(Variant::Disjoint, vec![p, p]);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = row_board(Variant::Disjoint, 4);
        let b = a.clone();
        let mv = moves(&a)[0];
        a.play_move(&mv);
        assert_eq!(a.move_count(), 1);
        assert_eq!(b.move_count(), 0);
        assert_eq!(moves(&b).len(), 2);
    }

    #[test]
    fn extent_tracks_played_points() {
        let mut b = row_board(Variant::Disjoint, 4);
        let (min0, max0) = b.extent();
        assert_eq!(max0.x - min0.x, 3);
        // Extend to the right if possible, else left.
        let moves = moves(&b);
        let mv = *moves
            .iter()
            .find(|m| m.new_point().x > max0.x)
            .unwrap_or(&moves[0]);
        b.play_move(&mv);
        let (min1, max1) = b.extent();
        assert!(max1.x - min1.x >= 4);
    }

    #[test]
    fn move_accessors() {
        let m = Move {
            start: Point::new(10, 10),
            dir: Dir::SE,
            pos: 2,
        };
        assert_eq!(m.new_point(), Point::new(12, 12));
        let pts = m.line_points();
        assert_eq!(pts[0], Point::new(10, 10));
        assert_eq!(pts[4], Point::new(14, 14));
    }
}
