//! Position analysis: Zobrist hashing, D4 symmetry canonicalisation, and
//! game statistics.
//!
//! Record hunting produces thousands of candidate games; many are
//! reflections or rotations of one another (the cross has the full
//! symmetry of the square). [`canonical_hash`] collapses each symmetry
//! class to one identifier so duplicate discoveries are recognised — the
//! paper's own "two new sequences of 80 moves" claim implicitly needs
//! such an equivalence check. [`GameStats`] summarises a finished game
//! for the analysis tables.

use crate::board::{Board, Move};
use crate::geom::{Dir, Point};
use nmcs_core::rng::mix64;
use serde::{Deserialize, Serialize};

/// The eight symmetries of the square (D4), acting on cross-relative
/// coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Symmetry {
    Identity,
    Rot90,
    Rot180,
    Rot270,
    FlipX,
    FlipY,
    FlipMain,
    FlipAnti,
}

/// All eight symmetries.
pub const SYMMETRIES: [Symmetry; 8] = [
    Symmetry::Identity,
    Symmetry::Rot90,
    Symmetry::Rot180,
    Symmetry::Rot270,
    Symmetry::FlipX,
    Symmetry::FlipY,
    Symmetry::FlipMain,
    Symmetry::FlipAnti,
];

impl Symmetry {
    /// Applies the symmetry to a point in coordinates relative to the
    /// pattern centre (so the fixed point of every symmetry is `(0, 0)`).
    #[inline]
    pub fn apply(self, p: (i32, i32)) -> (i32, i32) {
        let (x, y) = p;
        match self {
            Symmetry::Identity => (x, y),
            Symmetry::Rot90 => (-y, x),
            Symmetry::Rot180 => (-x, -y),
            Symmetry::Rot270 => (y, -x),
            Symmetry::FlipX => (-x, y),
            Symmetry::FlipY => (x, -y),
            Symmetry::FlipMain => (y, x),
            Symmetry::FlipAnti => (-y, -x),
        }
    }
}

/// Position-independent Zobrist key of one occupied point in doubled
/// centre-relative coordinates.
#[inline]
fn point_key(p: (i32, i32)) -> u64 {
    mix64((p.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((p.1 as u64) << 32))
}

/// Zobrist-style hash of the set of occupied points (order-independent:
/// XOR of per-point keys), in the board's own orientation.
pub fn position_hash(board: &Board) -> u64 {
    let (c2x, c2y) = doubled_centre(board);
    let mut h = 0u64;
    for p in occupied_points(board) {
        h ^= point_key((2 * p.x as i32 - c2x, 2 * p.y as i32 - c2y));
    }
    h
}

/// The canonical hash: minimum of [`position_hash`] over all eight
/// symmetries. Two games are *equivalent* iff their canonical hashes
/// match (up to Zobrist collision, ~2⁻⁶⁴ per pair).
pub fn canonical_hash(board: &Board) -> u64 {
    let (c2x, c2y) = doubled_centre(board);
    let pts: Vec<(i32, i32)> = occupied_points(board)
        .map(|p| (2 * p.x as i32 - c2x, 2 * p.y as i32 - c2y))
        .collect();
    SYMMETRIES
        .iter()
        .map(|&s| {
            let mut h = 0u64;
            for &p in &pts {
                h ^= point_key(s.apply(p));
            }
            h
        })
        .min()
        .expect("eight symmetries")
}

/// Doubled coordinates of the *initial pattern's* centre (doubling keeps
/// half-integer centres exact). Symmetries are taken about the cross
/// centre, matching how Morpion grids are compared in practice.
fn doubled_centre(board: &Board) -> (i32, i32) {
    let initial = board.initial_points();
    let (mut min_x, mut min_y, mut max_x, mut max_y) = (i16::MAX, i16::MAX, i16::MIN, i16::MIN);
    for p in initial {
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
        max_x = max_x.max(p.x);
        max_y = max_y.max(p.y);
    }
    ((min_x + max_x) as i32, (min_y + max_y) as i32)
}

fn occupied_points(board: &Board) -> impl Iterator<Item = Point> + '_ {
    (0..crate::board::GRID).flat_map(move |y| {
        (0..crate::board::GRID).filter_map(move |x| {
            let p = Point::new(x, y);
            board.occupied(p).then_some(p)
        })
    })
}

/// Summary statistics of a finished (or partial) game.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GameStats {
    pub moves: usize,
    /// Lines played per direction (E, S, SE, NE).
    pub per_direction: [usize; 4],
    /// Bounding box (width, height) of the occupied area.
    pub extent: (i16, i16),
    /// Moves whose new point extended the bounding box.
    pub expanding_moves: usize,
}

impl GameStats {
    /// Computes statistics by replaying the board's history.
    pub fn of(board: &Board) -> Self {
        let mut per_direction = [0usize; 4];
        for mv in board.history() {
            per_direction[mv.dir.index()] += 1;
        }
        let (min, max) = board.extent();

        // Count bounding-box expansions by replaying extents.
        let mut replay =
            crate::board::Board::from_points(board.variant(), board.initial_points().to_vec());
        let (mut rmin, mut rmax) = replay.extent();
        let mut expanding_moves = 0;
        for mv in board.history() {
            let q = mv.new_point();
            if q.x < rmin.x || q.x > rmax.x || q.y < rmin.y || q.y > rmax.y {
                expanding_moves += 1;
                rmin.x = rmin.x.min(q.x);
                rmin.y = rmin.y.min(q.y);
                rmax.x = rmax.x.max(q.x);
                rmax.y = rmax.y.max(q.y);
            }
            replay.play_move(mv);
        }

        Self {
            moves: board.move_count(),
            per_direction,
            extent: (max.x - min.x + 1, max.y - min.y + 1),
            expanding_moves,
        }
    }
}

/// Applies a symmetry to a whole move (start point, direction, slot),
/// returning the move on the transformed board. Directions map through
/// the symmetry; a reversed direction re-anchors the line start at the
/// other end.
pub fn transform_move(mv: &Move, sym: Symmetry, c2: (i32, i32)) -> Move {
    // Transform the 5 line points and re-derive the canonical move.
    let pts: Vec<(i32, i32)> = mv
        .line_points()
        .iter()
        .map(|p| sym.apply((2 * p.x as i32 - c2.0, 2 * p.y as i32 - c2.1)))
        .collect();
    let newp = sym.apply((
        2 * mv.new_point().x as i32 - c2.0,
        2 * mv.new_point().y as i32 - c2.1,
    ));
    // Identify the transformed direction from the first two points and
    // canonicalise (positive x, or straight down).
    let (dx, dy) = ((pts[1].0 - pts[0].0) / 2, (pts[1].1 - pts[0].1) / 2);
    let (dir, reversed) = match (dx, dy) {
        (1, 0) => (Dir::E, false),
        (-1, 0) => (Dir::E, true),
        (0, 1) => (Dir::S, false),
        (0, -1) => (Dir::S, true),
        (1, 1) => (Dir::SE, false),
        (-1, -1) => (Dir::SE, true),
        (1, -1) => (Dir::NE, false),
        (-1, 1) => (Dir::NE, true),
        other => unreachable!("non-unit direction {other:?}"),
    };
    let start2 = if reversed { pts[4] } else { pts[0] };
    let back = |(x, y): (i32, i32)| Point::new(((x + c2.0) / 2) as i16, ((y + c2.1) / 2) as i16);
    let start = back(start2);
    let new_point = back(newp);
    // Slot of the new point along the (possibly re-anchored) line.
    let (ddx, ddy) = dir.delta();
    let pos = if ddx != 0 {
        (new_point.x - start.x) / ddx
    } else {
        (new_point.y - start.y) / ddy
    };
    Move {
        start,
        dir,
        pos: pos as u8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cross::cross_board;
    use crate::Variant;
    use nmcs_core::{Game, Rng};

    fn random_board(seed: u64, moves: usize) -> Board {
        let mut b = cross_board(Variant::Disjoint, 4);
        let mut rng = Rng::seeded(seed);
        for _ in 0..moves {
            if b.play_random(&mut rng, &mut Vec::new()).is_none() {
                break;
            }
        }
        b
    }

    #[test]
    fn symmetries_form_a_group_of_order_8() {
        // Each symmetry is a bijection on a sample orbit; identity fixed.
        let sample = (3, -5);
        let images: std::collections::HashSet<(i32, i32)> =
            SYMMETRIES.iter().map(|s| s.apply(sample)).collect();
        assert_eq!(images.len(), 8, "a generic point has a full orbit");
        assert_eq!(Symmetry::Identity.apply(sample), sample);
        // Rot90 applied four times is the identity.
        let mut p = sample;
        for _ in 0..4 {
            p = Symmetry::Rot90.apply(p);
        }
        assert_eq!(p, sample);
    }

    #[test]
    fn initial_cross_is_fully_symmetric() {
        let b = cross_board(Variant::Disjoint, 4);
        let base = position_hash(&b);
        assert_eq!(canonical_hash(&b), canonical_hash(&b), "deterministic");
        // The cross itself is D4-symmetric: every symmetry hash equals the
        // base hash, so canonical == plain.
        assert_eq!(canonical_hash(&b), base);
    }

    #[test]
    fn position_hash_changes_with_every_move() {
        let mut b = cross_board(Variant::Disjoint, 4);
        let mut seen = std::collections::HashSet::new();
        seen.insert(position_hash(&b));
        let mut rng = Rng::seeded(4);
        for _ in 0..20 {
            assert!(b.play_random(&mut rng, &mut Vec::new()).is_some());
            assert!(
                seen.insert(position_hash(&b)),
                "hash collision along a game"
            );
        }
    }

    #[test]
    fn mirrored_games_share_their_canonical_hash() {
        // Play a game, then play its x-mirror; canonical hashes match
        // although plain hashes differ.
        let b = random_board(7, 25);
        let c2 = doubled_centre(&b);

        let mut mirrored = cross_board(Variant::Disjoint, 4);
        for mv in b.history() {
            let tm = transform_move(mv, Symmetry::FlipX, c2);
            assert!(mirrored.is_legal(&tm), "mirror of a legal move is legal");
            mirrored.play_move(&tm);
        }
        assert_ne!(
            position_hash(&b),
            position_hash(&mirrored),
            "generic game is asymmetric"
        );
        assert_eq!(canonical_hash(&b), canonical_hash(&mirrored));
    }

    #[test]
    fn all_eight_transforms_preserve_legality() {
        let b = random_board(13, 20);
        let c2 = doubled_centre(&b);
        for &sym in &SYMMETRIES {
            let mut tb = cross_board(Variant::Disjoint, 4);
            for mv in b.history() {
                let tm = transform_move(mv, sym, c2);
                assert!(tb.is_legal(&tm), "{sym:?}: transformed move illegal");
                tb.play_move(&tm);
            }
            assert_eq!(tb.move_count(), b.move_count());
            assert_eq!(canonical_hash(&tb), canonical_hash(&b), "{sym:?}");
        }
    }

    #[test]
    fn stats_count_directions_and_extent() {
        let b = random_board(3, 30);
        let stats = GameStats::of(&b);
        assert_eq!(stats.moves, b.move_count());
        assert_eq!(stats.per_direction.iter().sum::<usize>(), b.move_count());
        assert!(
            stats.extent.0 >= 10 && stats.extent.1 >= 10,
            "cross is 10 wide"
        );
        assert!(stats.expanding_moves <= stats.moves);
    }

    #[test]
    fn distinct_games_get_distinct_canonical_hashes() {
        let a = random_board(1, 30);
        let b = random_board(2, 30);
        assert_ne!(canonical_hash(&a), canonical_hash(&b));
    }
}
