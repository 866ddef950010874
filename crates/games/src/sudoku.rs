//! Sudoku as a single-agent maximisation game — the third domain of
//! Cazenave's NMCS evaluation (IJCAI'09 used 16×16 grids).
//!
//! The game state is a partially filled grid; a move writes a digit into
//! the *most constrained* empty cell (fewest consistent digits), the
//! standard fail-first ordering. The score is the number of cells filled,
//! so a solved puzzle scores `n⁴` for an `n²×n²` grid and dead ends score
//! less — exactly the "maximise a score with no good heuristic beyond
//! playouts" shape NMCS targets.

use nmcs_core::{mix64, CodedGame, Game, Rng, Score};

/// Domain-separation salt of [`Sudoku`]'s [`Game::state_hash`] keys.
const SUDOKU_HASH_SALT: u64 = 0x6d2e_81cb_f017_4a93;

/// A Sudoku position over an `n² × n²` grid (`n = 3` is the classic 9×9;
/// `n = 4` the 16×16 of the NMCS paper).
#[derive(Debug, PartialEq, Eq)]
pub struct Sudoku {
    n: usize,
    side: usize,
    /// `0` = empty, else `1..=side`.
    cells: Vec<u8>,
    filled: usize,
    /// Becomes true when a contradiction is found (an empty cell with no
    /// consistent digit) — the game then has no legal moves.
    dead: bool,
}

impl Clone for Sudoku {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            side: self.side,
            cells: self.cells.clone(),
            filled: self.filled,
            dead: self.dead,
        }
    }

    /// Copies into `self`'s buffer: the searches restore positions by
    /// copy, once per candidate evaluation.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.side = source.side;
        self.cells.clone_from(&source.cells);
        self.filled = source.filled;
        self.dead = source.dead;
    }
}

impl Sudoku {
    /// An empty grid.
    pub fn empty(n: usize) -> Self {
        assert!((2..=4).contains(&n), "supported box sizes: 2, 3, 4");
        let side = n * n;
        Self {
            n,
            side,
            cells: vec![0; side * side],
            filled: 0,
            dead: false,
        }
    }

    /// Builds a position from given cells (`0` = empty). Panics if a
    /// given digit directly conflicts.
    pub fn from_cells(n: usize, cells: Vec<u8>) -> Self {
        let side = n * n;
        assert_eq!(cells.len(), side * side);
        let mut s = Self::empty(n);
        for (i, &d) in cells.iter().enumerate() {
            if d != 0 {
                assert!(d as usize <= side, "digit {d} out of range");
                let (r, c) = (i / side, i % side);
                assert!(s.consistent(r, c, d), "clue conflict at ({r},{c})");
                s.cells[i] = d;
                s.filled += 1;
            }
        }
        s
    }

    /// A puzzle generated by deleting `holes` cells from a full valid
    /// grid (the standard shifted-pattern Latin construction), then
    /// shuffling digit labels. Always solvable.
    pub fn puzzle(n: usize, holes: usize, seed: u64) -> Self {
        let side = n * n;
        let mut rng = Rng::seeded(seed);
        // Canonical solved grid: cell (r, c) = (r*n + r/n + c) mod side.
        let mut relabel: Vec<u8> = (1..=side as u8).collect();
        rng.shuffle(&mut relabel);
        let mut cells: Vec<u8> = (0..side * side)
            .map(|i| {
                let (r, c) = (i / side, i % side);
                relabel[(r * n + r / n + c) % side]
            })
            .collect();
        // Punch holes.
        let mut order: Vec<usize> = (0..side * side).collect();
        rng.shuffle(&mut order);
        for &i in order.iter().take(holes.min(side * side)) {
            cells[i] = 0;
        }
        Self::from_cells(n, cells)
    }

    /// Side length of the grid.
    pub fn side(&self) -> usize {
        self.side
    }

    /// Digit at `(row, col)` (0 = empty).
    pub fn cell(&self, row: usize, col: usize) -> u8 {
        self.cells[row * self.side + col]
    }

    /// Number of filled cells.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Whether the grid is completely and consistently filled.
    pub fn solved(&self) -> bool {
        self.filled == self.side * self.side
    }

    /// Whether digit `d` can go at `(r, c)` without an immediate clash.
    fn consistent(&self, r: usize, c: usize, d: u8) -> bool {
        let side = self.side;
        for i in 0..side {
            if self.cells[r * side + i] == d || self.cells[i * side + c] == d {
                return false;
            }
        }
        let (br, bc) = (r / self.n * self.n, c / self.n * self.n);
        for dr in 0..self.n {
            for dc in 0..self.n {
                if self.cells[(br + dr) * side + (bc + dc)] == d {
                    return false;
                }
            }
        }
        true
    }

    /// The most-constrained empty cell and a bitmask of its consistent
    /// digits (bit `d - 1` set ⇔ digit `d` fits), or `None` when the
    /// grid is full. A zero mask means the position is dead. The mask
    /// (instead of a collected digit list) keeps this reachable-from-
    /// playout helper allocation-free; `side ≤ 32` holds for any
    /// representable grid (`side = n²`, digits fit in `u8`).
    fn most_constrained(&self) -> Option<(usize, u32)> {
        let side = self.side;
        let mut best: Option<(usize, u32)> = None;
        let mut best_n = u32::MAX;
        for i in 0..side * side {
            if self.cells[i] != 0 {
                continue;
            }
            let (r, c) = (i / side, i % side);
            let mut mask = 0u32;
            for d in 1..=side as u8 {
                if self.consistent(r, c, d) {
                    mask |= 1 << (d - 1);
                }
            }
            let n = mask.count_ones();
            if n < best_n {
                best = Some((i, mask));
                best_n = n;
                if n <= 1 {
                    break; // cannot do better than 0/1 candidates
                }
            }
        }
        best
    }
}

/// A move: write `digit` into the (implicit) most-constrained cell.
/// Carrying the cell index makes moves self-describing and verifiable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fill {
    pub cell: u16,
    pub digit: u8,
}

impl Game for Sudoku {
    type Move = Fill;

    fn legal_moves(&self, out: &mut Vec<Fill>) {
        if self.dead {
            return;
        }
        if let Some((cell, mask)) = self.most_constrained() {
            for digit in 1..=self.side as u8 {
                if mask & (1 << (digit - 1)) != 0 {
                    out.push(Fill {
                        cell: cell as u16,
                        digit,
                    });
                }
            }
        }
    }

    fn play(&mut self, mv: &Fill) {
        let i = mv.cell as usize;
        debug_assert_eq!(self.cells[i], 0, "cell already filled");
        debug_assert!(
            self.consistent(i / self.side, i % self.side, mv.digit),
            "inconsistent fill"
        );
        self.cells[i] = mv.digit;
        self.filled += 1;
        // Detect immediate dead ends so is_terminal is cheap and playouts
        // stop early.
        if !self.solved() && self.most_constrained().is_some_and(|(_, mask)| mask == 0) {
            self.dead = true;
        }
    }

    /// Cells filled; a solved `n=3` grid scores 81.
    fn score(&self) -> Score {
        self.filled as Score
    }

    fn moves_played(&self) -> usize {
        self.filled
    }

    /// The filled cells fully determine the position (`dead` is derived),
    /// so the hash XORs one Zobrist key per filled cell — order-
    /// independent, so distinct fill orders reaching the same grid
    /// transpose. Allocation-free O(side²) fold.
    fn state_hash(&self) -> u64 {
        let mut h = mix64(self.filled as u64 ^ SUDOKU_HASH_SALT);
        for (i, &d) in self.cells.iter().enumerate() {
            if d != 0 {
                h ^= mix64(((i as u64) << 8 | d as u64) ^ SUDOKU_HASH_SALT);
            }
        }
        h
    }
}

impl CodedGame for Sudoku {
    /// Codes are (cell, digit) — stable across positions.
    fn move_code(&self, mv: &Fill) -> u64 {
        ((mv.cell as u64) << 8) | mv.digit as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmcs_core::{sample, SearchSpec};

    #[test]
    fn generated_full_grid_is_valid_and_solved() {
        let s = Sudoku::puzzle(3, 0, 1);
        assert!(s.solved());
        assert_eq!(s.score(), 81);
        // Rows, columns, boxes each hold 9 distinct digits.
        for r in 0..9 {
            let mut row: Vec<u8> = (0..9).map(|c| s.cell(r, c)).collect();
            row.sort_unstable();
            assert_eq!(row, (1..=9).collect::<Vec<_>>(), "row {r}");
        }
        for c in 0..9 {
            let mut col: Vec<u8> = (0..9).map(|r| s.cell(r, c)).collect();
            col.sort_unstable();
            assert_eq!(col, (1..=9).collect::<Vec<_>>(), "col {c}");
        }
    }

    #[test]
    fn puzzle_with_holes_reports_filled_count() {
        let s = Sudoku::puzzle(3, 30, 2);
        assert_eq!(s.filled(), 81 - 30);
        assert!(!s.solved());
    }

    #[test]
    fn moves_target_the_most_constrained_cell() {
        let s = Sudoku::puzzle(3, 20, 3);
        let mut moves = Vec::new();
        s.legal_moves(&mut moves);
        assert!(!moves.is_empty());
        // All candidate moves fill the same cell.
        assert!(moves.iter().all(|m| m.cell == moves[0].cell));
    }

    #[test]
    fn random_playouts_fill_cells_monotonically() {
        let s = Sudoku::puzzle(3, 40, 4);
        let r = sample(&s, &mut Rng::seeded(1));
        assert!(r.score >= s.filled() as Score);
        assert!(r.score <= 81);
    }

    #[test]
    fn nmcs_solves_easy_puzzles_where_random_often_fails() {
        let s = Sudoku::puzzle(3, 45, 7);
        let mut rng = Rng::seeded(5);
        let tries = 20;
        let random_solved = (0..tries)
            .filter(|_| sample(&s, &mut rng).score == 81)
            .count();
        let nm = SearchSpec::nested(1).seed(5).run(&s);
        assert_eq!(nm.score, 81, "level-1 NMCS should solve a 45-hole puzzle");
        // Not a hard assertion on random failing (fail-first ordering is
        // strong), but NMCS must never do worse.
        assert!(nm.score as usize >= 81 - random_solved.min(1));
    }

    #[test]
    fn dead_positions_have_no_moves() {
        // Force a dead end: two empty cells in one row needing the same
        // digit. Construct: row 0 has 1..7 placed, cells (0,7) and (0,8)
        // empty; place 8 and 9 in both their columns elsewhere so neither
        // fits… simpler: rely on playouts hitting dead ends at n=2 with
        // adversarial clues is fiddly — instead verify the flag directly.
        let mut s = Sudoku::empty(2);
        // Fill so that cell (0,3) has no candidates:
        // row 0: 1 2 3 _; col 3 gets 4 placed below.
        for (c, d) in [(0usize, 1u8), (1, 2), (2, 3)] {
            s.cells[c] = d;
            s.filled += 1;
        }
        s.cells[4 + 3] = 4;
        s.filled += 1;
        // Recompute: most constrained is (0,3) with zero candidates.
        let mc = s.most_constrained().unwrap();
        assert_eq!(mc.0, 3);
        assert_eq!(mc.1, 0, "zero candidate mask");
        let mut moves = Vec::new();
        s.legal_moves(&mut moves);
        assert!(moves.is_empty(), "dead position exposes no moves");
    }

    #[test]
    fn sixteen_by_sixteen_works() {
        let s = Sudoku::puzzle(4, 100, 9);
        assert_eq!(s.side(), 16);
        assert_eq!(s.filled(), 256 - 100);
        let r = sample(&s, &mut Rng::seeded(3));
        assert!(r.score >= 156);
    }

    #[test]
    fn search_sequences_replay() {
        let s = Sudoku::puzzle(3, 35, 11);
        let r = SearchSpec::nested(1).seed(2).run(&s);
        let mut replay = s;
        for mv in &r.sequence {
            replay.play(mv);
        }
        assert_eq!(replay.score(), r.score);
    }
}
