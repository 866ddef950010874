//! # des-sim — deterministic discrete-event cluster simulation
//!
//! The paper's experiments ran on a 33-machine heterogeneous cluster
//! (20×1.86 GHz + 12×2.33 GHz dual-core PCs and a quad-core server) that we
//! do not have. What the experiments *measure*, however — parallel
//! speedups and the Round-Robin vs Last-Minute dispatcher gap — depends
//! only on job service times and on the order of job submissions and
//! completions. This crate provides the deterministic machinery to replay
//! those orderings in virtual time:
//!
//! * [`EventQueue`] — a time-ordered queue with stable FIFO tie-breaking,
//!   so simulations are bit-reproducible;
//! * [`ServiceStation`] — one simulated client process: a speed factor and
//!   an implicit FIFO queue (jobs assigned while busy wait, which is
//!   exactly the weakness of blind Round-Robin dispatch);
//! * [`ClusterSpec`] — cluster shapes, including the paper's homogeneous
//!   64-client configuration and the heterogeneous repartitions of
//!   Table VI;
//! * [`SimStats`] — makespan, utilisation and queueing statistics.
//!
//! The parallel-NMCS trace replay that drives this kernel lives in the
//! `parallel-nmcs` crate; this crate knows nothing about games.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod cluster;
pub mod event;
pub mod station;
pub mod stats;
pub mod timeline;

pub use cluster::{ClientSpec, ClusterSpec};
pub use event::EventQueue;
pub use station::ServiceStation;
pub use stats::SimStats;
pub use timeline::{gantt, Timeline};

/// Virtual time in nanoseconds. Integers keep the simulation exactly
/// associative and reproducible (no float summation-order effects).
pub type Time = u64;

/// One second of virtual time.
pub const SECOND: Time = 1_000_000_000;

/// Formats a virtual duration the way the paper prints times
/// (`1h07m33s`, `33m11s`, `12s`), with sub-second precision below ten
/// seconds where the paper's format would round everything away.
pub fn format_time(t: Time) -> String {
    let total_secs = t / SECOND;
    let h = total_secs / 3600;
    let m = (total_secs % 3600) / 60;
    let s = total_secs % 60;
    if h > 0 {
        format!("{h}h{m:02}m{s:02}s")
    } else if m > 0 {
        format!("{m}m{s:02}s")
    } else if t >= 10 * SECOND {
        format!("{s:02}s")
    } else if t >= SECOND / 10 {
        format!("{:.2}s", t as f64 / SECOND as f64)
    } else if t >= 10_000 {
        format!("{:.2}ms", t as f64 / 1e6)
    } else {
        format!("{t}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_matches_paper_style() {
        assert_eq!(format_time(12 * SECOND), "12s");
        assert_eq!(format_time((33 * 60 + 11) * SECOND), "33m11s");
        assert_eq!(format_time((3600 + 7 * 60 + 33) * SECOND), "1h07m33s");
        assert_eq!(format_time(28 * 3600 * SECOND + 6 * SECOND), "28h00m06s");
    }

    #[test]
    fn format_sub_second_precision() {
        assert_eq!(format_time(9 * SECOND), "9.00s");
        assert_eq!(format_time(1_540_000_000), "1.54s");
        assert_eq!(format_time(820_000_000), "0.82s");
        assert_eq!(format_time(5_250_000), "5.25ms");
        assert_eq!(format_time(10_700_000), "10.70ms");
        assert_eq!(format_time(900), "900ns");
        assert_eq!(format_time(0), "0ns");
    }
}
