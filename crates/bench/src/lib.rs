//! # nmcs-bench — paper tables, gates and reports
//!
//! Code that regenerates every table and figure of *"Parallel Nested
//! Monte-Carlo Search"* plus the ablations of DESIGN.md, the CI gates
//! (`--reuse`, `--serve`), the service report and `--spec` replay. See
//! the `tables` binary (`cargo run --release -p nmcs-bench --bin tables
//! -- --help`) for the command-line interface. Nothing here measures
//! throughput: speed is priced by `benches/ledger` alone.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod calibrate;
pub mod experiments;
pub mod paper;
pub mod report;
pub mod reuseexp;
pub mod serveexp;
pub mod service;
pub mod spec_cli;

pub use calibrate::{calibrate, fit_model, Calibration};
pub use experiments::{fit_power, Experiments, Scale, CLIENT_SWEEP};
pub use report::{persist, Table};
pub use reuseexp::{reuse_means, reuse_sweep, reuse_table, ReuseRow};
pub use serveexp::{serve_soak, session_churn, SoakOutcome};
pub use service::{dead_letter_table, slo_rows, slo_snapshot, slo_table, SloRow};
pub use spec_cli::run_spec_on;
