//! The common result type of the unified search API.
//!
//! Every backend — serial NMCS/NRPA/UCT/baselines, the leaf-parallel
//! batch executor, the root-parallel executor, and the engine's job
//! replicas — reports through one [`SearchReport`], which subsumes the
//! historical zoo of result shapes: `SearchResult` (score + sequence +
//! stats), the threaded backend's `ThreadReport` (wall clock + client
//! work), and the leaf backend's ad-hoc `(outcome, Duration)` tuples.
//! Reports are serde round-trippable so sweep rows can be persisted and
//! replayed from the command line.

use crate::game::Score;
use crate::search::SearchResult;
use crate::stats::SearchStats;
use serde::{Deserialize, Error, Serialize, Value};
use std::time::Duration;

/// Why a search returned before running to natural completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Interruption {
    /// A [`crate::spec::CancelToken`] was cancelled.
    Cancelled,
    /// The wall-clock deadline of the [`crate::spec::Budget`] passed.
    Deadline,
    /// The playout budget was exhausted.
    PlayoutBudget,
    /// The node (expansion) budget was exhausted.
    NodeBudget,
}

/// Outcome of one [`crate::spec::SearchSpec`] run: the best result found,
/// full instrumentation, wall-clock time, and whether (and why) the run
/// was interrupted.
///
/// Invariant: replaying `sequence` from the root position reaches a
/// position whose score is `score` — including for interrupted runs,
/// which return their best-so-far line rather than a truncated
/// inconsistency. The one exception is a parallel strategy in
/// `first_move` mode, which (matching the paper's Tables I–II and the
/// legacy `RunMode::FirstMove`) reports the best *evaluation* score of
/// the single move it plays.
///
/// Reproducibility is a separate promise, and every strategy makes it:
/// re-running the spec on the same game gives the same report, budgets
/// that trip on a playout or node count included. Only a deadline or a
/// cancellation makes where a run stops depend on timing.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchReport<M> {
    /// Best score found.
    pub score: Score,
    /// Moves realising `score`, in play order from the root position.
    pub sequence: Vec<M>,
    /// Instrumentation counters (for parallel backends: the merged
    /// counters of every worker, i.e. `stats.work_units` is the total
    /// evaluation work, the quantity `ThreadReport::total_work` used to
    /// report).
    pub stats: SearchStats,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// Leaf/client evaluation jobs executed by parallel backends
    /// (`0` for serial algorithms).
    pub client_jobs: u64,
    /// `Some` when the run stopped on a budget or cancellation; `None`
    /// when it ran to natural completion.
    pub interrupted: Option<Interruption>,
    /// The seed the run was performed with (echoed from the spec, so a
    /// persisted report is self-describing).
    pub seed: u64,
}

impl<M> SearchReport<M> {
    /// Total abstract work units — the cost-model quantity previously
    /// spread across `SearchStats::work_units` and
    /// `ThreadReport::total_work`.
    pub fn total_work(&self) -> u64 {
        self.stats.work_units
    }

    /// Converts into the [`SearchResult`] triple (used by the engine's
    /// replica records).
    pub fn into_result(self) -> SearchResult<M> {
        SearchResult {
            score: self.score,
            sequence: self.sequence,
            stats: self.stats,
        }
    }
}

impl<M: Clone> SearchReport<M> {
    /// The legacy [`SearchResult`] view without consuming the report.
    pub fn result(&self) -> SearchResult<M> {
        SearchResult {
            score: self.score,
            sequence: self.sequence.clone(),
            stats: self.stats,
        }
    }
}

// Serde is hand-written because the vendored derive does not handle
// generic types; the representation pins `elapsed` to fractional
// milliseconds, matching the tables the bench harness persists.
impl<M: Serialize> Serialize for SearchReport<M> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("score".to_string(), self.score.to_value()),
            ("sequence".to_string(), self.sequence.to_value()),
            ("stats".to_string(), self.stats.to_value()),
            (
                "elapsed_ms".to_string(),
                Value::F64(self.elapsed.as_secs_f64() * 1e3),
            ),
            ("client_jobs".to_string(), self.client_jobs.to_value()),
            ("interrupted".to_string(), self.interrupted.to_value()),
            ("seed".to_string(), self.seed.to_value()),
        ])
    }
}

impl<M: Deserialize> Deserialize for SearchReport<M> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |name: &str| -> Result<&Value, Error> {
            v.get_field(name).ok_or_else(|| Error::missing_field(name))
        };
        let elapsed_ms = f64::from_value(field("elapsed_ms")?)?;
        Ok(SearchReport {
            score: Score::from_value(field("score")?)?,
            sequence: Vec::from_value(field("sequence")?)?,
            stats: SearchStats::from_value(field("stats")?)?,
            elapsed: Duration::from_secs_f64((elapsed_ms / 1e3).max(0.0)),
            client_jobs: u64::from_value(field("client_jobs")?)?,
            interrupted: Option::from_value(v.get_field("interrupted").unwrap_or(&Value::Null))?,
            seed: u64::from_value(field("seed")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SearchReport<u8> {
        SearchReport {
            score: 42,
            sequence: vec![1, 2, 1],
            stats: SearchStats {
                playouts: 3,
                playout_moves: 30,
                nested_moves: 3,
                expansions: 9,
                work_units: 42,
            },
            elapsed: Duration::from_micros(1500),
            client_jobs: 7,
            interrupted: Some(Interruption::Deadline),
            seed: 2009,
        }
    }

    #[test]
    fn serde_round_trip_preserves_every_field() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        let back: SearchReport<u8> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.score, r.score);
        assert_eq!(back.sequence, r.sequence);
        assert_eq!(back.stats, r.stats);
        assert_eq!(back.client_jobs, r.client_jobs);
        assert_eq!(back.interrupted, r.interrupted);
        assert_eq!(back.seed, r.seed);
        assert!((back.elapsed.as_secs_f64() - r.elapsed.as_secs_f64()).abs() < 1e-9);
    }

    #[test]
    fn uninterrupted_round_trip_keeps_none() {
        let mut r = report();
        r.interrupted = None;
        let json = serde_json::to_string(&r).unwrap();
        let back: SearchReport<u8> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.interrupted, None);
    }

    #[test]
    fn report_converts_to_legacy_result() {
        let r = report();
        let res = r.result();
        assert_eq!(res.score, 42);
        assert_eq!(res.sequence, vec![1, 2, 1]);
        assert_eq!(res.stats, r.stats);
        assert_eq!(r.into_result(), res);
    }
}
