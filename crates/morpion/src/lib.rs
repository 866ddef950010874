//! # morpion — Morpion Solitaire
//!
//! A complete implementation of Morpion Solitaire, the NP-hard pencil
//! puzzle used as the benchmark domain of *"Parallel Nested Monte-Carlo
//! Search"* (Cazenave & Jouandeau, 2009): both the **5T (touching)** and
//! **5D (disjoint)** rule variants, the official 36-point starting cross
//! (plus scaled variants for fast experiments), incremental move
//! generation tuned for Monte-Carlo playouts, verifiable game records,
//! and ASCII rendering of final grids (the paper's Figure 1 analogue).
//!
//! The board implements [`nmcs_core::Game`], so every search in the
//! workspace — sequential NMCS, the parallel cluster algorithms, and the
//! baselines — runs on it unchanged.
//!
//! ```
//! use morpion::{standard_5d, render_default};
//! use nmcs_core::{Game, SearchSpec};
//!
//! let board = standard_5d();
//! let result = SearchSpec::nested(1).seed(2009).run(&board);
//! assert!(result.score > 20, "level-1 NMCS clears 20 moves easily");
//!
//! let mut replay = board.clone();
//! for mv in &result.sequence { replay.play(mv); }
//! println!("{}", render_default(&replay));
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod analysis;
pub mod board;
pub mod cross;
pub mod geom;
pub mod record;
pub mod render;

pub use analysis::{canonical_hash, position_hash, GameStats, Symmetry, SYMMETRIES};
pub use board::{Board, Move, Variant, GRID};
pub use cross::{cross_board, cross_points, standard_5d, standard_5t, STANDARD_ARM};
pub use geom::{Dir, Point, DIRS};
pub use record::{GameRecord, RecordError, RecordMove};
pub use render::{render, render_default, RenderOptions};
