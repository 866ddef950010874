//! # pnmcs — Parallel Nested Monte-Carlo Search
//!
//! A full reproduction of *"Parallel Nested Monte-Carlo Search"*
//! (Cazenave & Jouandeau, NIDISC/IPDPS 2009) as a Rust workspace. This
//! facade crate re-exports the public API of every subsystem:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`search`] | `nmcs-core` | the `Game` trait, `sample`, `nested`, baselines, RNG |
//! | [`morpion`] | `morpion` | Morpion Solitaire 5T/5D, records, rendering |
//! | [`games`] | `nmcs-games` | SameGame, rollout-TSP, toy validation games |
//! | [`parallel`] | `parallel-nmcs` | root/median/dispatcher/client roles, RR & LM dispatchers, backends |
//! | [`cluster`] | `cluster-rt` | MPI-like in-process message passing |
//! | [`sim`] | `des-sim` | deterministic discrete-event cluster simulation |
//! | [`engine`] | `nmcs-engine` | concurrent multi-tenant search service: one bounded job queue, blocking workers, backpressure, cancellation |
//! | [`serve`] | `nmcs-serve` | HTTP/1.1 front door for the engine: submit/poll/cancel/metrics routes with admission control |
//!
//! ## Quickstart — one front door for every backend
//!
//! A [`search::SearchSpec`] names a strategy, its configuration, a
//! budget (deadline / playout cap / node cap), and a seed; `run` works
//! the same for every backend and returns one `SearchReport`:
//!
//! ```
//! use pnmcs::search::SearchSpec;
//! use pnmcs::morpion::standard_5d;
//!
//! // A level-1 Nested Monte-Carlo Search on the official 5D cross,
//! // bounded to half a second of wall clock.
//! let report = SearchSpec::nested(1)
//!     .seed(2009)
//!     .deadline_ms(500)
//!     .run(&standard_5d());
//! assert!(report.score > 40, "level 1 comfortably beats random play");
//! ```
//!
//! ## Parallel search through the same door
//!
//! The paper's root-parallel hierarchy and the leaf-parallel batch
//! executor are spec strategies too — identical results for any worker
//! count, cancellable, budgetable:
//!
//! ```
//! use pnmcs::search::SearchSpec;
//! use pnmcs::morpion::{cross_board, Variant};
//!
//! let board = cross_board(Variant::Disjoint, 2); // reduced cross
//! let report = SearchSpec::root_parallel(2, 2)
//!     .seed(7)
//!     .first_move_only()
//!     .run(&board);
//! assert!(report.score > 0);
//! assert!(report.total_work() > 0);
//! ```
//!
//! (The message-passing reproduction itself — root/median/dispatcher/
//! client over `cluster-rt` — lives on as `parallel::run_threads_traced`
//! for the communication-pattern experiments.)
//!
//! ## The search service
//!
//! Many concurrent searches — any game × any algorithm — share one
//! engine (see `examples/engine_service.rs` for the full tour):
//!
//! ```
//! use pnmcs::engine::{Algorithm, Engine, EngineConfig, JobSpec};
//! use pnmcs::games::SumGame;
//!
//! let engine = Engine::start(EngineConfig { workers: 2, queue_capacity: 16 }).expect("valid engine config");
//! let job = engine
//!     .submit(JobSpec::new("doc", SumGame::random(5, 3, 1), Algorithm::nested(1), 7))
//!     .unwrap();
//! assert!(job.join().score().unwrap() > 0);
//! engine.shutdown();
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub use cluster_rt as cluster;
pub use des_sim as sim;
pub use morpion;
pub use nmcs_core as search;
pub use nmcs_engine as engine;
pub use nmcs_games as games;
pub use nmcs_serve as serve;
pub use parallel_nmcs as parallel;
