//! # parallel-nmcs — Parallel Nested Monte-Carlo Search
//!
//! The primary contribution of *"Parallel Nested Monte-Carlo Search"*
//! (Cazenave & Jouandeau, 2009): a cluster parallelisation of NMCS with
//! four process roles — root, median, dispatcher, client — and two
//! dispatch policies, **Round-Robin** and **Last-Minute**.
//!
//! The workspace executes the paper's algorithm four ways, each with a
//! job of its own; the first three live here:
//!
//! * [`trace::run_reference`] — the sequential reference the tests compare
//!   against; also records the fork-join job [`trace::SearchTrace`].
//! * [`runner::run_threads_traced`] — the paper's design: every role is an
//!   OS thread exchanging messages over `cluster-rt` (the Open MPI substitute).
//! * [`sim::simulate_trace`] — virtual time: replays a trace on a simulated
//!   cluster of any size, driving the *same* [`dispatcher::DispatcherCore`].
//! * `nmcs_core::SearchSpec::{root_parallel, leaf}` — the production path, on
//!   the persistent executor pool, with budgets and cancellation.
//!
//! All four agree bit-for-bit on search decisions because every
//! evaluation job's randomness derives from its logical coordinates
//! ([`nmcs_core::seeds`]). [`model::TraceModel`] generates synthetic
//! paper-scale workloads for the level-4 tables.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod dispatcher;
pub mod model;
pub mod protocol;
pub mod runner;
pub mod sim;
pub mod trace;

pub use dispatcher::{DispatchPolicy, DispatcherCore};
pub use model::TraceModel;
pub use protocol::{Msg, DISPATCHER, ROOT};
pub use runner::{run_threads_traced, ThreadConfig, ThreadReport};
pub use sim::{
    simulate_trace, simulate_trace_recorded, single_client_reference, sweep_cluster_sizes,
    SimOutcome,
};
pub use trace::{
    ClientJob, MedianStepTrace, MedianTrace, ParallelOutcome, RootStepTrace, RunMode, SearchTrace,
};
