//! # nmcs-bench — experiment harness
//!
//! Code that regenerates every table and figure of *"Parallel Nested
//! Monte-Carlo Search"* plus the ablations of DESIGN.md. See the `tables`
//! binary (`cargo run --release -p nmcs-bench --bin tables -- --help`) for
//! the command-line interface and `benches/` for the criterion
//! micro-benchmarks.

pub mod calibrate;
pub mod experiments;
pub mod leafexp;
pub mod paper;
pub mod pooldelta;
pub mod report;
pub mod reuseexp;
pub mod serveexp;
pub mod service;
pub mod spec_cli;
pub mod treeexp;

pub use calibrate::{calibrate, fit_model, Calibration};
pub use experiments::{fit_power, Experiments, Scale, CLIENT_SWEEP};
pub use leafexp::{leaf_sweep, leaf_table, LeafRow};
pub use pooldelta::{PoolDelta, PoolProbe};
pub use report::{persist, Table};
pub use reuseexp::{reuse_means, reuse_sweep, reuse_table, ReuseRow};
pub use serveexp::{serve_soak, session_churn, SoakOutcome};
pub use service::{
    dead_letter_table, measure_cell, slo_rows, slo_snapshot, slo_table, throughput_sweep,
    throughput_table, SloRow, ThroughputRow,
};
pub use spec_cli::{run_spec_on, STOCK_GAMES};
pub use treeexp::{tree_sweep, tree_table, TreeRow};
