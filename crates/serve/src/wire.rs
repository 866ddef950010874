//! The JSON wire format of the job API.
//!
//! Requests reuse the engine's own serde [`SearchSpec`] encoding — the
//! exact JSON a sweep row or `tables --spec` prints — so a spec pasted
//! from an experiment submits unchanged. Responses are hand-encoded
//! [`Value`] trees (the engine's output types carry no serde impls, and
//! the wire shape is a public contract this module owns).

use nmcs_core::{DynGame, SearchSpec};
use nmcs_engine::{JobOutput, JobSpec, JobState, Progress, ReplicaResult, SessionInfo};
use serde::{Deserialize, Serialize, Value};

/// The stock games a job may name. Each position is fully determined by
/// the name plus the spec's seed (mirroring the bench CLI's registry),
/// so `(game, spec)` is a complete, reproducible job description.
pub const GAMES: &[&str] = &[
    "samegame",
    "samegame-small",
    "morpion",
    "morpion-c3",
    "tsp",
    "sum",
    "needle",
];

/// Body of `POST /jobs`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// Tenant name; becomes the job name and the quota key.
    pub tenant: String,
    /// Stock game name (see [`GAMES`]).
    pub game: String,
    /// The unified search spec: algorithm + budget + seed.
    pub spec: SearchSpec,
    /// Root-parallel replicas; defaults to 1.
    #[serde(default)]
    pub replicas: Option<usize>,
    /// Admission lane: `low`, `normal` (default), or `high`.
    #[serde(default)]
    pub priority: Option<String>,
    /// Wall-clock allowance for deadline shedding when the spec's
    /// budget has no deadline of its own, milliseconds.
    #[serde(default)]
    pub ttl_ms: Option<u64>,
}

/// Body of `POST /sessions`: a stock game plus the spec every step of
/// the session will run under (budget = per-step budget; `tree_reuse`
/// on a UCT/tree-parallel algorithm makes the session warm).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpenSessionRequest {
    /// Tenant name; the session-quota key.
    pub tenant: String,
    /// Stock game name (see [`GAMES`]).
    pub game: String,
    /// The unified per-step search spec.
    pub spec: SearchSpec,
}

/// Builds the named stock game's erased starting position. Errors name
/// the unknown game (a 404, not a 400 — the route exists, the resource
/// does not).
pub fn stock_game(name: &str, seed: u64) -> Result<DynGame, String> {
    use morpion::{cross_board, standard_5d, Variant};
    use nmcs_games::{NeedleLadder, SameGame, SumGame, TspGame, TspInstance};

    Ok(match name {
        "samegame" => DynGame::new(SameGame::random(10, 10, 4, seed)),
        "samegame-small" => DynGame::new(SameGame::random(6, 6, 3, seed)),
        "morpion" => DynGame::new(standard_5d()),
        "morpion-c3" => DynGame::new(cross_board(Variant::Disjoint, 3)),
        "tsp" => DynGame::new(TspGame::new(TspInstance::random(12, seed), None)),
        "sum" => DynGame::new(SumGame::random(6, 4, seed)),
        "needle" => DynGame::new(NeedleLadder::new(10)),
        other => {
            return Err(format!(
                "unknown game '{other}' (expected one of {GAMES:?})"
            ));
        }
    })
}

/// Builds the engine job for a submit request: the named stock game
/// seeded from the spec, replicas applied.
pub fn build_job(req: &SubmitRequest) -> Result<JobSpec, String> {
    let game = stock_game(&req.game, req.spec.seed)?;
    let spec = req.spec.clone();
    Ok(JobSpec {
        name: req.tenant.clone(),
        game,
        algorithm: spec.algorithm,
        seed: spec.seed,
        budget: spec.budget,
        replicas: req.replicas.unwrap_or(1).max(1),
        diversify_policies: false,
    })
}

pub fn state_str(state: JobState) -> &'static str {
    match state {
        JobState::Queued => "queued",
        JobState::Running => "running",
        JobState::Completed => "completed",
        JobState::Cancelled => "cancelled",
        JobState::Failed => "failed",
    }
}

fn interruption_str(i: nmcs_core::Interruption) -> &'static str {
    match i {
        nmcs_core::Interruption::Cancelled => "cancelled",
        nmcs_core::Interruption::Deadline => "deadline",
        nmcs_core::Interruption::PlayoutBudget => "playout-budget",
        nmcs_core::Interruption::NodeBudget => "node-budget",
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn ms(d: std::time::Duration) -> Value {
    Value::F64(d.as_secs_f64() * 1e3)
}

/// `202 Accepted` body for a submitted job.
pub fn accepted_value(job: u64, req: &SubmitRequest, replicas: usize) -> Value {
    obj(vec![
        ("job", Value::U64(job)),
        ("tenant", Value::Str(req.tenant.clone())),
        ("game", Value::Str(req.game.clone())),
        ("replicas", Value::U64(replicas as u64)),
        ("state", Value::Str("queued".to_string())),
    ])
}

/// One progress snapshot (also the chunked stream's line payload).
pub fn progress_value(p: &Progress) -> Value {
    obj(vec![
        ("job", Value::U64(p.job)),
        ("state", Value::Str(state_str(p.state).to_string())),
        ("replicas_total", Value::U64(p.replicas_total as u64)),
        ("replicas_done", Value::U64(p.replicas_done as u64)),
        ("best_score", p.best_score.map_or(Value::Null, Value::I64)),
        (
            "best_replica",
            p.best_replica.map_or(Value::Null, |r| Value::U64(r as u64)),
        ),
        ("work_units", Value::U64(p.work_units)),
        ("queued_for_ms", ms(p.queued_for)),
        ("running_for_ms", ms(p.running_for)),
    ])
}

fn replica_value(r: &ReplicaResult) -> Value {
    obj(vec![
        ("replica", Value::U64(r.replica as u64)),
        ("seed_used", Value::U64(r.seed_used)),
        ("score", Value::I64(r.result.score)),
        (
            "sequence",
            Value::Array(
                r.result
                    .sequence
                    .iter()
                    .map(|&m| Value::U64(m as u64))
                    .collect(),
            ),
        ),
        ("playouts", Value::U64(r.result.stats.playouts)),
        ("work_units", Value::U64(r.result.stats.work_units)),
        (
            "interrupted",
            r.interrupted
                .map_or(Value::Null, |i| Value::Str(interruption_str(i).to_string())),
        ),
        ("elapsed_ms", ms(r.elapsed)),
    ])
}

/// Terminal job outcome: the merged best plus every replica (null for
/// replicas cancelled before finishing). The per-replica `sequence` is
/// index-coded against the root position, exactly what
/// `nmcs_core::decode_result` replays — bit-identity to the direct
/// library call is checked on these values.
pub fn output_value(o: &JobOutput) -> Value {
    obj(vec![
        ("job", Value::U64(o.job)),
        ("tenant", Value::Str(o.name.clone())),
        ("state", Value::Str(state_str(o.state).to_string())),
        ("best", o.best.as_ref().map_or(Value::Null, replica_value)),
        (
            "replicas",
            Value::Array(
                o.replicas
                    .iter()
                    .map(|r| r.as_ref().map_or(Value::Null, replica_value))
                    .collect(),
            ),
        ),
        ("elapsed_ms", ms(o.elapsed)),
    ])
}

/// One session snapshot: `201 Created` body of `POST /sessions` and
/// the `GET /sessions/{id}` body.
pub fn session_value(s: &SessionInfo) -> Value {
    obj(vec![
        ("session", Value::U64(s.id)),
        ("tenant", Value::Str(s.tenant.clone())),
        ("steps", Value::U64(s.steps as u64)),
        ("committed", Value::U64(s.committed as u64)),
        ("score", Value::I64(s.score)),
        ("done", Value::Bool(s.done)),
        ("warm", Value::Bool(s.warm)),
        ("bytes", Value::U64(s.bytes as u64)),
        ("busy", Value::Bool(s.busy)),
    ])
}

/// `202 Accepted` body for a session step: the job id to poll plus the
/// session it advances.
pub fn session_job_accepted_value(job: u64, session: u64, tenant: &str) -> Value {
    obj(vec![
        ("job", Value::U64(job)),
        ("session", Value::U64(session)),
        ("tenant", Value::Str(tenant.to_string())),
        ("state", Value::Str("queued".to_string())),
    ])
}

/// Uniform error body; `retry_after_ms` appears on 429/503 responses.
pub fn error_value(message: &str, retry_after_ms: Option<u64>) -> Value {
    let mut fields = vec![("error", Value::Str(message.to_string()))];
    if let Some(ms) = retry_after_ms {
        fields.push(("retry_after_ms", Value::U64(ms)));
    }
    obj(fields)
}

pub fn to_json(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "{}".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_request_round_trips_with_defaults() {
        let json = r#"{
            "tenant": "acme",
            "game": "sum",
            "spec": {"algorithm":{"kind":"nested","level":1},"budget":{},"seed":7}
        }"#;
        let req: SubmitRequest = serde_json::from_str(json).expect("parses");
        assert_eq!(req.tenant, "acme");
        assert_eq!(req.replicas, None);
        assert_eq!(req.priority, None);
        let job = build_job(&req).expect("stock game");
        assert_eq!(job.replicas, 1);
        assert_eq!(job.seed, 7);
        assert_eq!(job.name, "acme");

        let back: SubmitRequest =
            serde_json::from_str(&serde_json::to_string(&req).unwrap()).unwrap();
        assert_eq!(back.spec, req.spec);
    }

    #[test]
    fn every_stock_game_builds() {
        for game in GAMES {
            let req = SubmitRequest {
                tenant: "t".to_string(),
                game: game.to_string(),
                spec: SearchSpec::sample().seed(3).build(),
                replicas: Some(2),
                priority: None,
                ttl_ms: None,
            };
            let job = build_job(&req).unwrap_or_else(|e| panic!("{game}: {e}"));
            assert_eq!(job.replicas, 2);
        }
    }

    #[test]
    fn unknown_game_is_a_clear_error() {
        let req = SubmitRequest {
            tenant: "t".to_string(),
            game: "chess".to_string(),
            spec: SearchSpec::sample().build(),
            replicas: None,
            priority: None,
            ttl_ms: None,
        };
        assert!(build_job(&req).unwrap_err().contains("unknown game"));
    }
}
