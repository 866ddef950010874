//! ASCII rendering of Morpion boards — the Figure 1 analogue.
//!
//! The paper's Figure 1 shows a found world-record grid with the initial
//! circles and the numbered added points. [`render`] reproduces that view
//! in a terminal: initial points as `o`, played points as their move
//! number (1-based, modulo 100 with a width-2 cell), empty grid positions
//! as dots.

use crate::board::Board;
use crate::geom::Point;
use std::collections::HashMap;
use std::fmt::Write;

/// Options for [`render`].
#[derive(Debug, Clone)]
pub struct RenderOptions {
    /// Show move numbers on played points (otherwise `*`).
    pub numbered: bool,
    /// Extra empty rows/columns around the occupied bounding box.
    pub margin: i16,
}

impl Default for RenderOptions {
    fn default() -> Self {
        Self {
            numbered: true,
            margin: 1,
        }
    }
}

/// Renders the board as ASCII art cropped to the occupied area.
pub fn render(board: &Board, opts: &RenderOptions) -> String {
    let (min, max) = board.extent();
    let margin = opts.margin.max(0);
    let x0 = (min.x - margin).max(0);
    let y0 = (min.y - margin).max(0);
    let x1 = (max.x + margin).min(crate::board::GRID - 1);
    let y1 = (max.y + margin).min(crate::board::GRID - 1);

    let move_numbers: HashMap<Point, usize> = board
        .history()
        .iter()
        .enumerate()
        .map(|(i, m)| (m.new_point(), i + 1))
        .collect();

    let mut out = String::new();
    for y in y0..=y1 {
        for x in x0..=x1 {
            let p = Point::new(x, y);
            if x > x0 {
                out.push(' ');
            }
            if let Some(&n) = move_numbers.get(&p) {
                if opts.numbered {
                    let _ = write!(out, "{:>2}", n % 100);
                } else {
                    out.push_str(" *");
                }
            } else if board.occupied(p) {
                out.push_str(" o");
            } else {
                out.push_str(" .");
            }
        }
        out.push('\n');
    }
    out
}

/// Renders with default options.
pub fn render_default(board: &Board) -> String {
    render(board, &RenderOptions::default())
}

impl std::fmt::Display for Board {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&render_default(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::Variant;
    use crate::cross::cross_board;
    use nmcs_core::Game;

    #[test]
    fn initial_cross_renders_36_circles() {
        let b = cross_board(Variant::Disjoint, 4);
        let art = render_default(&b);
        assert_eq!(art.matches('o').count(), 36);
        assert!(!art.contains('*'));
    }

    #[test]
    fn played_points_get_their_move_number() {
        let mut b = cross_board(Variant::Disjoint, 4);
        let mut moves = Vec::new();
        b.legal_moves(&mut moves);
        b.play(&moves[0]);
        let art = render_default(&b);
        assert!(art.contains(" 1"), "first move should render as 1:\n{art}");
        assert_eq!(art.matches('o').count(), 36);
    }

    #[test]
    fn unnumbered_mode_uses_stars() {
        let mut b = cross_board(Variant::Disjoint, 4);
        let mut moves = Vec::new();
        b.legal_moves(&mut moves);
        b.play(&moves[0]);
        let art = render(
            &b,
            &RenderOptions {
                numbered: false,
                margin: 0,
            },
        );
        assert_eq!(art.matches('*').count(), 1);
    }

    #[test]
    fn rows_are_consistent_width() {
        let b = cross_board(Variant::Disjoint, 3);
        let art = render_default(&b);
        let widths: Vec<usize> = art.lines().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{widths:?}");
    }

    #[test]
    fn display_matches_render_default() {
        let b = cross_board(Variant::Touching, 2);
        assert_eq!(b.to_string(), render_default(&b));
    }
}
