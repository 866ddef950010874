//! The standard starting cross and its scaled variants.
//!
//! The official Morpion Solitaire start position is the outline of a Greek
//! cross drawn with segments of four points (36 points total, as in the
//! paper's Figure 1). For scaled-down experiments — which keep search
//! behaviour qualitatively identical while shrinking runtimes by orders of
//! magnitude — the same outline can be generated with shorter segments.

use crate::board::{Board, Variant, GRID};
use crate::geom::Point;

/// The standard cross segment length (four points per outline segment).
pub const STANDARD_ARM: i16 = 4;

/// The segment lengths [`cross_points`] accepts: at least 2, and short
/// enough that the cross's box (side `3n − 2`) leaves eight free cells on
/// each side in the grid window.
pub const ARMS: std::ops::RangeInclusive<i16> = 2..=(GRID - 14) / 3;

/// Returns the points of the cross outline with segment length `n`
/// (`n` in [`ARMS`]), in board coordinates with the pattern's bounding
/// box centred in the grid window.
///
/// `n = 4` is the official 36-point cross; `n = 3` is a 24-point reduced
/// cross used by the scaled experiment mode; `n = 2` is a 12-point ring
/// used in unit tests.
pub fn cross_points(n: i16) -> Vec<Point> {
    assert!(n >= 2, "cross arm must be at least 2, got {n}");
    let s = 3 * n - 2; // side of the bounding box
    assert!(
        s + 16 <= GRID,
        "cross of arm {n} leaves too little margin in the {GRID}x{GRID} window"
    );
    let off = (GRID - s) / 2;

    let mut pts = Vec::new();
    let a = n - 1; // first inner column
    let b = 2 * n - 2; // second inner column
    let last = s - 1;
    for y in 0..s {
        for x in 0..s {
            let on = if y == 0 || y == last {
                // Top and bottom edges of the vertical bar.
                (a..=b).contains(&x)
            } else if y < a || y > b {
                // Vertical bar sides.
                x == a || x == b
            } else if y == a || y == b {
                // Horizontal bar top/bottom edges, with the gap where the
                // vertical bar passes through.
                x <= a || x >= b
            } else {
                // Horizontal bar sides.
                x == 0 || x == last
            };
            if on {
                pts.push(Point::new(x + off, y + off));
            }
        }
    }
    pts
}

/// Builds a board with the cross of segment length `n` as its initial
/// position.
pub fn cross_board(variant: Variant, n: i16) -> Board {
    Board::from_points(variant, cross_points(n))
}

/// The official 36-point starting position in the paper's 5D variant.
pub fn standard_5d() -> Board {
    cross_board(Variant::Disjoint, STANDARD_ARM)
}

/// The official 36-point starting position in the 5T variant.
pub fn standard_5t() -> Board {
    cross_board(Variant::Touching, STANDARD_ARM)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmcs_core::Game;
    use std::collections::HashSet;

    #[test]
    fn standard_cross_has_36_points() {
        assert_eq!(cross_points(4).len(), 36);
    }

    #[test]
    fn reduced_crosses_have_expected_sizes() {
        assert_eq!(cross_points(3).len(), 24);
        assert_eq!(cross_points(2).len(), 12);
    }

    #[test]
    fn cross_points_are_distinct() {
        for n in 2..=6 {
            let pts = cross_points(n);
            let set: HashSet<_> = pts.iter().collect();
            assert_eq!(set.len(), pts.len(), "arm {n}");
        }
    }

    #[test]
    fn cross_is_4_fold_symmetric() {
        for n in [2, 3, 4, 5] {
            let pts = cross_points(n);
            let set: HashSet<_> = pts.iter().copied().collect();
            let s = 3 * n - 2;
            let off = (GRID - s) / 2;
            for p in &pts {
                // Reflect across the vertical and horizontal centre lines.
                let rx = Point::new(2 * off + s - 1 - p.x, p.y);
                let ry = Point::new(p.x, 2 * off + s - 1 - p.y);
                // Transpose across the main diagonal (the bounding box is
                // centred identically on both axes).
                let rt = Point::new(p.y, p.x);
                assert!(set.contains(&rx), "arm {n}: {p} vs x-mirror");
                assert!(set.contains(&ry), "arm {n}: {p} vs y-mirror");
                assert!(set.contains(&rt), "arm {n}: {p} vs transpose");
            }
        }
    }

    #[test]
    fn standard_boards_expose_variant_and_points() {
        let d = standard_5d();
        let t = standard_5t();
        assert_eq!(d.variant(), Variant::Disjoint);
        assert_eq!(t.variant(), Variant::Touching);
        assert_eq!(d.initial_points().len(), 36);
        assert_eq!(t.initial_points().len(), 36);
    }

    #[test]
    fn reduced_cross_boards_have_moves() {
        for n in [2, 3, 4] {
            let b = cross_board(Variant::Disjoint, n);
            assert!(
                !b.is_terminal(),
                "arm {n} cross should have at least one first move"
            );
        }
    }

    #[test]
    fn every_arm_in_range_fits_the_window() {
        assert_eq!((*ARMS.start(), *ARMS.end()), (2, 16));
        for n in ARMS {
            let _ = cross_points(n);
        }
    }

    #[test]
    #[should_panic(expected = "too little margin")]
    fn arm_past_the_range_rejected() {
        let _ = cross_points(*ARMS.end() + 1);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn arm_below_two_rejected() {
        let _ = cross_points(1);
    }
}
