//! Persistent, verifiable game records.
//!
//! The paper's headline side-result is two 80-move 5D sequences — a world
//! record at the time. A record is only worth its verification: this
//! module stores sequences in a grid-independent form (coordinates
//! relative to the cross's bounding-box corner), replays them under the
//! full rules, and rejects anything illegal. Known score milestones are
//! kept as documented constants for the benchmark reports.

use crate::board::{Board, Move, Variant};
use crate::cross::{cross_board, ARMS, STANDARD_ARM};
use crate::geom::{Dir, Point};
use serde::{Deserialize, Serialize};

/// Best *human* score at 5D known at paper time (paper §II).
pub const HUMAN_RECORD_5D: usize = 68;
/// Previous best computer score at 5D, by simulated annealing
/// (Hyyrö & Poranen 2007; paper §II).
pub const SA_RECORD_5D: usize = 79;
/// The paper's record: parallel NMCS at level 4 found two 80-move 5D
/// sequences (paper §V–VI).
pub const PAPER_RECORD_5D: usize = 80;
/// Proven upper bound on any 5D game from the standard cross
/// (Demaine et al. 2006, paper reference \[11\]).
pub const UPPER_BOUND_5D: usize = 121;

/// One move of a record, in cross-relative coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecordMove {
    /// Line start relative to the cross bounding-box corner.
    pub x: i16,
    pub y: i16,
    /// Direction index (see [`Dir::index`]).
    pub dir: u8,
    /// Index of the new point within the line, `0..5`.
    pub pos: u8,
}

/// A stored game: variant, cross size, and the move list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GameRecord {
    pub variant: Variant,
    /// Cross segment length (4 = official).
    pub arm: i16,
    pub moves: Vec<RecordMove>,
    /// Free-form provenance note (search level, seed, date…).
    #[serde(default)]
    pub note: String,
}

/// Why a record failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// A cross arm outside [`ARMS`]: no starting position to replay on.
    BadArm { arm: i16 },
    /// Move `index` is illegal on the position reached so far, or its
    /// line starts off the grid.
    IllegalMove { index: usize },
    /// A direction index outside `0..4`.
    BadDirection { index: usize },
    /// A `pos` outside `0..5`.
    BadPosition { index: usize },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::BadArm { arm } => write!(f, "cross arm {arm} is outside {ARMS:?}"),
            RecordError::IllegalMove { index } => write!(f, "move #{index} is illegal"),
            RecordError::BadDirection { index } => write!(f, "move #{index} has a bad direction"),
            RecordError::BadPosition { index } => write!(f, "move #{index} has a bad position"),
        }
    }
}

impl std::error::Error for RecordError {}

impl GameRecord {
    /// Captures the game played on `board` as a portable record.
    pub fn from_board(board: &Board, note: impl Into<String>) -> Self {
        let origin = board.origin();
        let arm = infer_arm(board.initial_points().len());
        Self {
            variant: board.variant(),
            arm,
            moves: board
                .history()
                .iter()
                .map(|m| RecordMove {
                    x: m.start.x - origin.x,
                    y: m.start.y - origin.y,
                    dir: m.dir.index() as u8,
                    pos: m.pos,
                })
                .collect(),
            note: note.into(),
        }
    }

    /// The claimed score (number of moves).
    pub fn score(&self) -> usize {
        self.moves.len()
    }

    /// Replays the record under the full rules, returning the final board.
    pub fn replay(&self) -> Result<Board, RecordError> {
        if !ARMS.contains(&self.arm) {
            return Err(RecordError::BadArm { arm: self.arm });
        }
        let mut board = cross_board(self.variant, self.arm);
        let origin = board.origin();
        for (index, rm) in self.moves.iter().enumerate() {
            if rm.dir > 3 {
                return Err(RecordError::BadDirection { index });
            }
            if rm.pos > 4 {
                return Err(RecordError::BadPosition { index });
            }
            let start = rm.x.checked_add(origin.x).zip(rm.y.checked_add(origin.y));
            let Some((x, y)) = start else {
                return Err(RecordError::IllegalMove { index });
            };
            let mv = Move {
                start: Point::new(x, y),
                dir: Dir::from_index(rm.dir as usize),
                pos: rm.pos,
            };
            if !board.is_legal(&mv) {
                return Err(RecordError::IllegalMove { index });
            }
            board.play_move(&mv);
        }
        Ok(board)
    }

    /// Verifies the record and returns its score.
    pub fn verify(&self) -> Result<usize, RecordError> {
        self.replay().map(|b| b.move_count())
    }
}

fn infer_arm(points: usize) -> i16 {
    // Inverse of the cross size formula: 12(n-1) points for arm n.
    match points {
        36 => STANDARD_ARM,
        24 => 3,
        12 => 2,
        n => {
            debug_assert!(n % 12 == 0, "non-cross initial position in record");
            (n as i16) / 12 + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmcs_core::{sample, Rng};

    fn random_game(seed: u64) -> Board {
        let start = cross_board(Variant::Disjoint, 4);
        let mut rng = Rng::seeded(seed);
        let result = sample(&start, &mut rng);
        let mut b = start;
        for mv in &result.sequence {
            b.play_move(mv);
        }
        b
    }

    #[test]
    fn record_round_trips_through_replay() {
        let board = random_game(1);
        let rec = GameRecord::from_board(&board, "random seed 1");
        assert_eq!(rec.score(), board.move_count());
        let replayed = rec.replay().expect("legal record");
        assert_eq!(replayed.move_count(), board.move_count());
        assert_eq!(replayed.history(), board.history());
    }

    #[test]
    fn verify_accepts_real_games_across_seeds() {
        for seed in 0..10 {
            let board = random_game(seed);
            let rec = GameRecord::from_board(&board, "");
            assert_eq!(rec.verify().unwrap(), board.move_count(), "seed {seed}");
        }
    }

    #[test]
    fn tampered_record_is_rejected() {
        let board = random_game(2);
        let mut rec = GameRecord::from_board(&board, "");
        assert!(rec.moves.len() > 4, "random 5D games exceed 4 moves");
        // Duplicate an early move: replaying it must be illegal.
        let dup = rec.moves[0];
        rec.moves.insert(1, dup);
        match rec.verify() {
            Err(RecordError::IllegalMove { index: 1 }) => {}
            other => panic!("expected IllegalMove at 1, got {other:?}"),
        }
    }

    #[test]
    fn bad_direction_and_position_detected() {
        let board = random_game(3);
        let mut rec = GameRecord::from_board(&board, "");
        rec.moves[0].dir = 7;
        assert_eq!(rec.verify(), Err(RecordError::BadDirection { index: 0 }));
        let mut rec2 = GameRecord::from_board(&board, "");
        rec2.moves[0].pos = 5;
        assert_eq!(rec2.verify(), Err(RecordError::BadPosition { index: 0 }));
    }

    /// A record as it arrives from outside: JSON, verified on replay.
    fn hostile(arm: i16, x: i16) -> Result<usize, RecordError> {
        let json = format!(
            r#"{{"variant":"Disjoint","arm":{arm},"moves":[{{"x":{x},"y":3,"dir":0,"pos":0}}]}}"#
        );
        serde_json::from_str::<GameRecord>(&json).unwrap().verify()
    }

    #[test]
    fn an_arm_too_large_for_the_grid_is_refused() {
        assert_eq!(hostile(40, 0), Err(RecordError::BadArm { arm: 40 }));
    }

    #[test]
    fn an_arm_below_two_is_refused() {
        assert_eq!(hostile(1, 0), Err(RecordError::BadArm { arm: 1 }));
    }

    #[test]
    fn a_start_past_the_coordinate_range_is_an_illegal_move() {
        assert_eq!(
            hostile(4, 32767),
            Err(RecordError::IllegalMove { index: 0 })
        );
    }

    #[test]
    fn a_start_off_the_grid_is_an_illegal_move() {
        // Inside `i16` once placed, but its line's far end is not.
        assert_eq!(
            hostile(4, 32740),
            Err(RecordError::IllegalMove { index: 0 })
        );
    }

    #[test]
    fn serde_json_round_trip() {
        let board = random_game(4);
        let rec = GameRecord::from_board(&board, "serde test");
        let json = serde_json::to_string(&rec).unwrap();
        let back: GameRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(rec, back);
        assert_eq!(back.verify().unwrap(), rec.score());
    }

    #[test]
    fn records_are_grid_size_independent() {
        // A record captured on one board replays on a fresh board even
        // though absolute grid coordinates are never stored.
        let board = random_game(5);
        let rec = GameRecord::from_board(&board, "");
        let replayed = rec.replay().unwrap();
        let (min_a, max_a) = board.extent();
        let (min_b, max_b) = replayed.extent();
        assert_eq!(max_a.x - min_a.x, max_b.x - min_b.x);
        assert_eq!(max_a.y - min_a.y, max_b.y - min_b.y);
    }

    #[test]
    fn milestone_constants_are_ordered() {
        let milestones = [
            HUMAN_RECORD_5D,
            SA_RECORD_5D,
            PAPER_RECORD_5D,
            UPPER_BOUND_5D,
        ];
        assert!(milestones.windows(2).all(|w| w[0] < w[1]), "{milestones:?}");
    }
}
