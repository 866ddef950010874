//! # parallel-nmcs — Parallel Nested Monte-Carlo Search
//!
//! The primary contribution of *"Parallel Nested Monte-Carlo Search"*
//! (Cazenave & Jouandeau, 2009): a cluster parallelisation of NMCS with
//! four process roles — root, median, dispatcher, client — and two
//! dispatch policies, **Round-Robin** and **Last-Minute**.
//!
//! Three interchangeable executions of the same algorithm:
//!
//! * [`trace::run_reference`] — sequential reference; also records the
//!   fork-join job [`trace::SearchTrace`].
//! * [`runner::run_threads_traced`] — real parallelism: every role is an OS
//!   thread exchanging messages over the `cluster-rt` runtime (the
//!   Open MPI substitute).
//! * [`sim::simulate_trace`] — virtual time: replays a trace on a
//!   simulated cluster of any size/heterogeneity (the 64-core-cluster
//!   substitute), driving the *same* [`dispatcher::DispatcherCore`] as
//!   the threaded backend.
//!
//! All three agree bit-for-bit on search decisions because every
//! evaluation job's randomness derives from its logical coordinates
//! ([`seeds`]). [`model::TraceModel`] generates synthetic paper-scale
//! workloads for the level-4 tables, and [`shared::par_nested`] is the
//! shared-memory worker-pool ablation.

pub mod dispatcher;
pub mod leaf;
pub mod model;
pub mod protocol;
pub mod runner;
pub mod seeds;
pub mod shared;
pub mod sim;
pub mod trace;

pub use dispatcher::{DispatchPolicy, DispatcherCore};
pub use model::TraceModel;
pub use protocol::{Msg, DISPATCHER, ROOT};
pub use runner::{run_threads_traced, ThreadConfig, ThreadReport};
pub use seeds::{client_seed, median_seed};
pub use shared::{par_nested, PoolConfig};
pub use sim::{
    simulate_trace, simulate_trace_recorded, single_client_reference, sweep_cluster_sizes,
    SimOutcome,
};
pub use trace::{
    ClientJob, MedianStepTrace, MedianTrace, ParallelOutcome, RootStepTrace, RunMode, SearchTrace,
};
