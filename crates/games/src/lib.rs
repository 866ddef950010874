//! # nmcs-games — additional search domains
//!
//! Domains beyond Morpion Solitaire that exercise the generic
//! [`nmcs_core::Game`] API:
//!
//! * [`samegame`] — SameGame, the tile-collapsing puzzle that is the other
//!   classic NMCS benchmark (Cazenave, IJCAI'09).
//! * [`tsp`] — a rollout-style Travelling Salesman game, the domain of the
//!   parallel-rollout prior work the paper compares against (Guerriero &
//!   Mancini 2005).
//! * [`sudoku`] — Sudoku with fail-first cell ordering, the third domain
//!   of Cazenave's NMCS evaluation (16×16 there; parametric here).
//! * [`toy`] — tiny games with *known optima*, used across the workspace
//!   to validate that every search and every parallel backend actually
//!   finds what it should.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod samegame;
pub mod sudoku;
pub mod toy;
pub mod tsp;

pub use samegame::{SameGame, Tap, CLEAR_BONUS};
pub use sudoku::{Fill, Sudoku};
pub use toy::{NeedleLadder, SumGame};
pub use tsp::{TspGame, TspInstance};
