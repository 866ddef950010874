//! End-to-end tests of the HTTP front door (`nmcs-serve`), driven over
//! real sockets with a hand-rolled HTTP/1.1 client:
//!
//! * every `AlgorithmSpec` variant submitted over the wire is
//!   bit-identical (score, decoded sequence, playouts, work units,
//!   seed) to the direct `SearchSpec::run` library call — the
//!   `tests/engine_service.rs` criterion extended to the socket;
//! * a proptest re-checks that identity across random seeds;
//! * budget-tripped jobs carry their interruption over the wire and
//!   still match the direct call; cancelled jobs come back terminal
//!   with no fabricated result;
//! * over-quota and unmeetable-deadline submissions get `429` with
//!   `Retry-After` and are never enqueued (the engine's submitted
//!   counter proves it);
//! * `GET /metrics` parses as Prometheus text and the JSON form
//!   round-trips byte-identically through the snapshot types;
//! * `?stream=1` streams parseable NDJSON progress until terminal;
//! * the error paths answer 400/404/405 as documented.

#![allow(
    clippy::disallowed_methods,
    reason = "the test drives the server over real sockets"
)]

use pnmcs::engine::EngineConfig;
use pnmcs::games::SumGame;
use pnmcs::morpion::standard_5d;
use pnmcs::search::metrics::MetricsSnapshot;
use pnmcs::search::nrpa::CodedGame;
use pnmcs::search::{decode_result, SearchResult, SearchSpec, SearchStats};
use pnmcs::serve::{ServeConfig, Server};
use proptest::prelude::*;
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

mod common;
use common::test_workers;

// ---------------------------------------------------------------------
// A minimal HTTP/1.1 client: one request per connection.
// ---------------------------------------------------------------------

type ClientResponse = (u16, Vec<(String, String)>, String);

fn send(addr: SocketAddr, raw: String) -> ClientResponse {
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("set timeout");
    stream.write_all(raw.as_bytes()).expect("write request");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read response");
    parse_response(&buf)
}

fn parse_response(raw: &[u8]) -> ClientResponse {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete response head");
    let head = std::str::from_utf8(&raw[..head_end]).expect("UTF-8 head");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let body_raw = &raw[head_end + 4..];
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v == "chunked");
    let body = if chunked {
        dechunk(body_raw)
    } else {
        body_raw.to_vec()
    };
    (
        status,
        headers,
        String::from_utf8(body).expect("UTF-8 body"),
    )
}

fn dechunk(mut raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    while let Some(pos) = raw.windows(2).position(|w| w == b"\r\n") {
        let size = usize::from_str_radix(
            std::str::from_utf8(&raw[..pos])
                .expect("chunk size line")
                .trim(),
            16,
        )
        .expect("hex chunk size");
        if size == 0 {
            break;
        }
        out.extend_from_slice(&raw[pos + 2..pos + 2 + size]);
        raw = &raw[pos + 2 + size + 2..];
    }
    out
}

fn get(addr: SocketAddr, path: &str) -> ClientResponse {
    send(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> ClientResponse {
    send(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn delete(addr: SocketAddr, path: &str) -> ClientResponse {
    send(
        addr,
        format!("DELETE {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    )
}

// ---------------------------------------------------------------------
// JSON plumbing over the vendored `serde::Value`.
// ---------------------------------------------------------------------

fn json(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"))
}

fn field<'a>(v: &'a Value, k: &str) -> &'a Value {
    v.get_field(k)
        .unwrap_or_else(|| panic!("missing field {k} in {v:?}"))
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::U64(n) => *n,
        Value::I64(n) => u64::try_from(*n).expect("non-negative"),
        other => panic!("expected integer, got {other:?}"),
    }
}

fn as_i64(v: &Value) -> i64 {
    match v {
        Value::I64(n) => *n,
        Value::U64(n) => i64::try_from(*n).expect("in range"),
        other => panic!("expected integer, got {other:?}"),
    }
}

fn as_str(v: &Value) -> &str {
    match v {
        Value::Str(s) => s.as_str(),
        other => panic!("expected string, got {other:?}"),
    }
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

// ---------------------------------------------------------------------
// Server + submit helpers.
// ---------------------------------------------------------------------

fn server(tenant_quota: usize, workers: usize, queue_capacity: usize) -> Server {
    Server::start(ServeConfig {
        engine: EngineConfig {
            workers,
            queue_capacity,
        },
        tenant_quota,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port")
}

fn submit_body(tenant: &str, game: &str, spec: &SearchSpec, extra: &str) -> String {
    let spec_json = serde_json::to_string(spec).expect("spec serialises");
    format!(r#"{{"tenant":"{tenant}","game":"{game}","spec":{spec_json}{extra}}}"#)
}

/// Submits a job and blocks (`?wait=1`) for its terminal output value.
fn submit_and_wait(addr: SocketAddr, body: &str) -> Value {
    let (status, _, resp) = post(addr, "/jobs", body);
    assert_eq!(status, 202, "submit should be accepted: {resp}");
    let accepted = json(&resp);
    assert_eq!(as_str(field(&accepted, "state")), "queued");
    let id = as_u64(field(&accepted, "job"));
    let (status, _, out) = get(addr, &format!("/jobs/{id}?wait=1"));
    assert_eq!(status, 200, "wait should find the job: {out}");
    json(&out)
}

/// The 7 deterministic strategy shapes of the unified API (the
/// `tests/metrics_props.rs` list): every `AlgorithmSpec` variant, with
/// tree-parallel at one worker — its deterministic form.
fn all_specs(seed: u64) -> Vec<SearchSpec> {
    vec![
        SearchSpec::nested(1).seed(seed).build(),
        SearchSpec::nrpa(1).seed(seed).build(),
        SearchSpec::uct().seed(seed).build(),
        SearchSpec::flat_mc(128).seed(seed).build(),
        SearchSpec::leaf(1, 4, 2).seed(seed).build(),
        SearchSpec::root_parallel(2, 2).seed(seed).build(),
        SearchSpec::tree_parallel(1).seed(seed).build(),
    ]
}

/// Asserts the wire output of a completed single-replica job matches
/// the direct library call on the same typed game: same score, same
/// decoded sequence, same playout/work-unit counters, same seed.
fn assert_bit_identical<G>(game: &G, spec: &SearchSpec, output: &Value)
where
    G: CodedGame + Send + Sync,
    G::Move: PartialEq + std::fmt::Debug + Send + Sync,
{
    assert_eq!(as_str(field(output, "state")), "completed", "{output:?}");
    let best = field(output, "best");
    assert_eq!(as_u64(field(best, "seed_used")), spec.seed);
    let codes: Vec<usize> = match field(best, "sequence") {
        Value::Array(xs) => xs.iter().map(|x| as_u64(x) as usize).collect(),
        other => panic!("sequence should be an array, got {other:?}"),
    };
    let coded = SearchResult {
        score: as_i64(field(best, "score")),
        sequence: codes,
        stats: SearchStats::default(),
    };
    let decoded = decode_result(game, &coded);
    let direct = spec.run(game).into_result();
    assert_eq!(decoded.score, direct.score, "score over the wire");
    assert_eq!(decoded.sequence, direct.sequence, "decoded move sequence");
    assert_eq!(
        as_u64(field(best, "playouts")),
        direct.stats.playouts,
        "playout counter"
    );
    assert_eq!(
        as_u64(field(best, "work_units")),
        direct.stats.work_units,
        "work-unit counter"
    );
}

// ---------------------------------------------------------------------
// Bit-identity through the socket.
// ---------------------------------------------------------------------

#[test]
fn every_algorithm_round_trips_bit_identically_through_the_socket() {
    let server = server(64, test_workers(), 32);
    let addr = server.addr();
    let seed = 2026;
    let game = SumGame::random(6, 4, seed);
    for spec in all_specs(seed) {
        let output = submit_and_wait(addr, &submit_body("rt", "sum", &spec, ""));
        assert_bit_identical(&game, &spec, &output);
    }
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The same identity holds for arbitrary seeds — each case runs
    /// every variant through a fresh server.
    #[test]
    fn socket_round_trip_is_bit_identical_for_any_seed(seed in 1u64..u64::MAX / 2) {
        let server = server(64, test_workers(), 32);
        let addr = server.addr();
        let game = SumGame::random(6, 4, seed);
        for spec in all_specs(seed) {
            let output = submit_and_wait(addr, &submit_body("prop", "sum", &spec, ""));
            assert_bit_identical(&game, &spec, &output);
        }
        server.shutdown();
    }
}

#[test]
fn budget_tripped_jobs_round_trip_and_report_the_interruption() {
    let server = server(8, 1, 8);
    let addr = server.addr();
    let game = standard_5d();
    let spec = SearchSpec::nested(1).max_playouts(64).seed(41).build();
    let output = submit_and_wait(addr, &submit_body("budget", "morpion", &spec, ""));
    let best = field(&output, "best");
    assert_eq!(
        as_str(field(best, "interrupted")),
        "playout-budget",
        "the budget trip must be visible over the wire"
    );
    // The interruption is part of the deterministic result: the direct
    // call trips at the same playout and returns the same partial best.
    assert_bit_identical(&game, &spec, &output);
    server.shutdown();
}

#[test]
fn cancelled_jobs_come_back_terminal_with_no_fabricated_result() {
    let server = server(8, 1, 8);
    let addr = server.addr();
    // A blocker pinned to the single worker for ~300 ms guarantees the
    // victim is still queued when the DELETE lands.
    let blocker = SearchSpec::nested(3).deadline_ms(300).seed(1).build();
    let (status, _, resp) = post(addr, "/jobs", &submit_body("cx", "morpion", &blocker, ""));
    assert_eq!(status, 202, "{resp}");
    let blocker_id = as_u64(field(&json(&resp), "job"));

    let victim = SearchSpec::nested(2).deadline_ms(300).seed(2).build();
    let (status, _, resp) = post(addr, "/jobs", &submit_body("cx", "morpion", &victim, ""));
    assert_eq!(status, 202, "{resp}");
    let victim_id = as_u64(field(&json(&resp), "job"));

    let (status, _, resp) = delete(addr, &format!("/jobs/{victim_id}"));
    assert_eq!(status, 200, "{resp}");
    let cancelled = json(&resp);
    assert_eq!(field(&cancelled, "cancelled"), &Value::Bool(true));

    let (status, _, out) = get(addr, &format!("/jobs/{victim_id}?wait=1"));
    assert_eq!(status, 200);
    let output = json(&out);
    assert_eq!(as_str(field(&output, "state")), "cancelled", "{out}");
    assert_eq!(field(&output, "best"), &Value::Null, "no fabricated result");

    let (_, _, out) = get(addr, &format!("/jobs/{blocker_id}?wait=1"));
    assert_eq!(as_str(field(&json(&out), "state")), "completed");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------

#[test]
fn over_quota_submissions_get_429_and_are_never_enqueued() {
    let server = server(1, 1, 8); // quota: one in-flight job per tenant
    let addr = server.addr();
    let long = SearchSpec::nested(2).deadline_ms(400).seed(5).build();
    let (status, _, resp) = post(addr, "/jobs", &submit_body("acme", "morpion", &long, ""));
    assert_eq!(status, 202, "{resp}");
    let first_id = as_u64(field(&json(&resp), "job"));

    // Same tenant, quota exhausted: 429 + Retry-After, never enqueued.
    let cheap = SearchSpec::sample().seed(6).build();
    let (status, headers, resp) = post(addr, "/jobs", &submit_body("acme", "sum", &cheap, ""));
    assert_eq!(status, 429, "{resp}");
    let err = json(&resp);
    assert!(
        as_str(field(&err, "error")).contains("quota"),
        "reason names the quota: {resp}"
    );
    assert!(as_u64(field(&err, "retry_after_ms")) >= 250);
    let retry: u64 = header(&headers, "retry-after")
        .expect("429 carries Retry-After")
        .parse()
        .expect("seconds");
    assert!(retry >= 1);

    // A different tenant is unaffected — the quota is per tenant.
    let out = submit_and_wait(addr, &submit_body("other", "sum", &cheap, ""));
    assert_eq!(as_str(field(&out, "state")), "completed");

    // The engine saw exactly the two accepted jobs, not the shed one.
    let (_, _, metrics) = get(addr, "/metrics?format=json");
    let snapshot = json(&metrics);
    let engine = field(&snapshot, "engine");
    assert_eq!(as_u64(field(engine, "submitted_jobs")), 2);
    assert_eq!(as_u64(field(engine, "rejected_submissions")), 0);

    let (_, _, out) = get(addr, &format!("/jobs/{first_id}?wait=1"));
    assert_eq!(as_str(field(&json(&out), "state")), "completed");
    server.shutdown();
}

#[test]
fn unmeetable_deadlines_are_shed_with_429_and_retry_after() {
    let server = server(64, 1, 16);
    let addr = server.addr();
    let slow = |seed| SearchSpec::nested(2).deadline_ms(150).seed(seed).build();

    // Warm the queue-wait histogram: the second job waits ~150 ms for
    // the single worker, so the p95 estimate becomes real.
    let (s1, _, r1) = post(addr, "/jobs", &submit_body("load", "morpion", &slow(1), ""));
    let (s2, _, r2) = post(addr, "/jobs", &submit_body("load", "morpion", &slow(2), ""));
    assert_eq!((s1, s2), (202, 202), "{r1} / {r2}");
    for resp in [&r1, &r2] {
        let id = as_u64(field(&json(resp), "job"));
        get(addr, &format!("/jobs/{id}?wait=1"));
    }

    // Pin the worker again and park one job in the queue, so depth ≥ 1
    // while the shed candidate arrives.
    let (s3, _, r3) = post(addr, "/jobs", &submit_body("load", "morpion", &slow(3), ""));
    let queued = SearchSpec::sample().seed(4).build();
    let (s4, _, r4) = post(
        addr,
        "/jobs",
        &submit_body("load", "sum", &queued, r#","ttl_ms":60000"#),
    );
    assert_eq!((s3, s4), (202, 202), "{r3} / {r4}");

    // A 1 ms allowance cannot be met behind a ~150 ms p95 queue wait.
    let (status, headers, resp) = post(
        addr,
        "/jobs",
        &submit_body("load", "sum", &queued, r#","ttl_ms":1"#),
    );
    assert_eq!(status, 429, "{resp}");
    let err = json(&resp);
    assert!(
        as_str(field(&err, "error")).contains("deadline"),
        "reason names the deadline: {resp}"
    );
    assert!(as_u64(field(&err, "retry_after_ms")) > 1);
    assert!(header(&headers, "retry-after").is_some());

    // Shed jobs were never enqueued: exactly the four accepted jobs.
    let (_, _, metrics) = get(addr, "/metrics?format=json");
    let engine = field(&json(&metrics), "engine").clone();
    assert_eq!(as_u64(field(&engine, "submitted_jobs")), 4);

    for resp in [&r3, &r4] {
        let id = as_u64(field(&json(resp), "job"));
        get(addr, &format!("/jobs/{id}?wait=1"));
    }
    server.shutdown();
}

// ---------------------------------------------------------------------
// Metrics endpoint.
// ---------------------------------------------------------------------

#[test]
fn metrics_text_parses_and_json_round_trips() {
    let server = server(8, 1, 8);
    let addr = server.addr();
    let spec = SearchSpec::nested(1).seed(9).build();
    submit_and_wait(addr, &submit_body("mx", "samegame-small", &spec, ""));

    // Text form: every non-comment line is `name{labels} value`.
    let (status, headers, text) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(header(&headers, "content-type")
        .expect("content type")
        .starts_with("text/plain"));
    assert!(!text.is_empty());
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no value separator in {line:?}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "value of {line:?} must be numeric"
        );
        assert!(
            series
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic()),
            "series name of {line:?} must start alphabetic"
        );
        assert_eq!(
            series.contains('{'),
            series.ends_with('}'),
            "unbalanced labels in {line:?}"
        );
    }
    assert!(text.contains("pool_workers "));
    assert!(text.contains("engine_tag_collisions_total "));

    // JSON form: the inspector snapshot verbatim, and it round-trips
    // byte-identically through the snapshot types.
    let (status, headers, body) = get(addr, "/metrics?format=json");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "content-type"), Some("application/json"));
    let parsed: MetricsSnapshot = serde_json::from_str(&body).expect("snapshot deserialises");
    assert!(
        parsed.engine.is_some(),
        "served snapshot has the engine section"
    );
    let reencoded = serde_json::to_string(&parsed).expect("snapshot reserialises");
    assert_eq!(reencoded, body, "JSON round-trip is byte-identical");
    server.shutdown();
}

// ---------------------------------------------------------------------
// Streaming and error paths.
// ---------------------------------------------------------------------

#[test]
fn streaming_progress_emits_ndjson_until_terminal() {
    let server = server(8, 1, 8);
    let addr = server.addr();
    let spec = SearchSpec::nested(1).seed(11).build();
    let (status, _, resp) = post(
        addr,
        "/jobs",
        &submit_body("st", "samegame-small", &spec, ""),
    );
    assert_eq!(status, 202, "{resp}");
    let id = as_u64(field(&json(&resp), "job"));

    let (status, headers, body) = get(addr, &format!("/jobs/{id}?stream=1"));
    assert_eq!(status, 200);
    assert_eq!(
        header(&headers, "content-type"),
        Some("application/x-ndjson")
    );
    let lines: Vec<&str> = body.lines().filter(|l| !l.is_empty()).collect();
    assert!(
        lines.len() >= 2,
        "at least one progress line plus the output"
    );
    for line in &lines[..lines.len() - 1] {
        let progress = json(line);
        assert_eq!(as_u64(field(&progress, "job")), id);
        assert!(progress.get_field("state").is_some());
    }
    let last = json(lines.last().expect("final line"));
    assert_eq!(as_str(field(&last, "state")), "completed");
    assert!(
        last.get_field("best").is_some(),
        "stream ends with the output"
    );
    server.shutdown();
}

#[test]
fn a_spec_the_executors_would_assert_on_gets_400_and_is_never_enqueued() {
    // A root-parallel level below 2 and a zero width used to parse, get
    // 202, and then kill the replica on an assert inside a worker.
    let server = server(8, 1, 8);
    let addr = server.addr();
    for (algorithm, reason) in [
        (
            r#"{"kind":"root_parallel","level":1,"threads":2}"#,
            "`level` >= 2",
        ),
        (
            r#"{"kind":"leaf_parallel","level":1,"batch":0,"threads":2}"#,
            "`batch` >= 1",
        ),
        (r#"{"kind":"tree_parallel","threads":0}"#, "`threads` >= 1"),
    ] {
        let body =
            format!(r#"{{"tenant":"t","game":"sum","spec":{{"algorithm":{algorithm},"seed":1}}}}"#);
        let (status, _, resp) = post(addr, "/jobs", &body);
        assert_eq!(status, 400, "{algorithm}: {resp}");
        assert!(
            as_str(field(&json(&resp), "error")).contains(reason),
            "{algorithm}: {resp}"
        );
    }
    let (_, _, metrics) = get(addr, "/metrics?format=json");
    let snapshot = json(&metrics);
    let engine = field(&snapshot, "engine");
    assert_eq!(as_u64(field(engine, "submitted_jobs")), 0);
    assert_eq!(as_u64(field(engine, "failed_jobs")), 0);
    server.shutdown();
}

#[test]
fn an_over_wide_spec_gets_400_and_the_server_keeps_answering() {
    // Each of these once sized a `Vec` before any budget was read; the
    // failed allocation aborted the whole server process.
    let server = server(8, 1, 8);
    let addr = server.addr();
    for (algorithm, field_name) in [
        (
            r#"{"kind":"tree_parallel","threads":1099511627776}"#,
            "`threads`",
        ),
        (
            r#"{"kind":"leaf_parallel","level":1,"batch":4,"threads":1099511627776}"#,
            "`threads`",
        ),
        (
            r#"{"kind":"root_parallel","level":2,"threads":1099511627776}"#,
            "`threads`",
        ),
        (
            r#"{"kind":"tree_parallel","threads":1,"leaf_batch":1099511627776}"#,
            "`leaf_batch`",
        ),
        (
            r#"{"kind":"leaf_parallel","level":1,"batch":1099511627776,"threads":2}"#,
            "`batch`",
        ),
        (
            r#"{"kind":"leaf_parallel","level":1,"batch":4611686018427387904,"threads":2}"#,
            "`batch`",
        ),
    ] {
        let body =
            format!(r#"{{"tenant":"t","game":"sum","spec":{{"algorithm":{algorithm},"seed":1}}}}"#);
        let (status, _, resp) = post(addr, "/jobs", &body);
        assert_eq!(status, 400, "{algorithm}: {resp}");
        assert!(
            as_str(field(&json(&resp), "error")).contains(field_name),
            "{algorithm}: {resp}"
        );
        let (status, _, resp) = get(addr, "/healthz");
        assert_eq!(status, 200, "after {algorithm}: {resp}");
    }
    server.shutdown();
}

#[test]
fn error_paths_answer_400_404_405_as_documented() {
    let server = server(8, 1, 8);
    let addr = server.addr();

    let (status, _, resp) = post(addr, "/jobs", "{not json");
    assert_eq!(status, 400, "{resp}");
    assert!(as_str(field(&json(&resp), "error")).contains("bad submit request"));

    let spec = SearchSpec::sample().seed(1).build();
    let (status, _, resp) = post(addr, "/jobs", &submit_body("t", "chess", &spec, ""));
    assert_eq!(status, 404, "{resp}");
    assert!(as_str(field(&json(&resp), "error")).contains("unknown game"));

    let (status, _, resp) = post(addr, "/jobs", &submit_body("", "sum", &spec, ""));
    assert_eq!(status, 400, "empty tenant: {resp}");

    // A deadline no `Duration` holds once panicked the parser and the
    // client read nothing back.
    let body = r#"{"tenant":"t","game":"sum","spec":{"algorithm":{"kind":"sample"},"budget":{"deadline_ms":1e300},"seed":1}}"#;
    let (status, _, resp) = post(addr, "/jobs", body);
    assert_eq!(status, 400, "huge deadline: {resp}");
    assert!(as_str(field(&json(&resp), "error")).contains("`deadline_ms`"));

    // The two pre-paper baselines are library functions, not spec kinds.
    for kind in ["iterated_sampling", "simulated_annealing"] {
        let body = format!(
            r#"{{"tenant":"t","game":"sum","spec":{{"algorithm":{{"kind":"{kind}"}},"seed":1}}}}"#
        );
        let (status, _, resp) = post(addr, "/jobs", &body);
        assert_eq!(status, 400, "{kind}: {resp}");
        let error = as_str(field(&json(&resp), "error")).to_string();
        assert!(error.contains(&format!("`{kind}`")), "{resp}");
    }

    let (status, _, _) = get(addr, "/jobs/999999");
    assert_eq!(status, 404, "unknown job id");

    let (status, _, _) = delete(addr, "/metrics");
    assert_eq!(status, 405, "wrong method on a known route");

    let (status, _, _) = get(addr, "/no/such/route");
    assert_eq!(status, 404);

    let (status, _, body) = get(addr, "/healthz");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    server.shutdown();
}

// ---------------------------------------------------------------------
// Pipelining: bytes that arrive behind a request belong to the next one.
// ---------------------------------------------------------------------

/// Reads exactly one `Content-Length` response off a keep-alive
/// connection, leaving whatever follows it in the socket. A read
/// timeout (the server sat on a request it had already received) fails
/// the test here instead of after the server's own 30 s `read_timeout`.
fn read_one_response(stream: &mut TcpStream) -> ClientResponse {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("response head in time");
        assert_eq!(n, 1, "connection closed before a complete response head");
        raw.push(byte[0]);
    }
    let length: usize = std::str::from_utf8(&raw)
        .expect("UTF-8 head")
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.trim().parse().expect("numeric length"))
        .expect("Content-Length");
    let head_len = raw.len();
    raw.resize(head_len + length, 0);
    stream
        .read_exact(&mut raw[head_len..])
        .expect("response body in time");
    parse_response(&raw)
}

fn keep_alive_connection(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to server");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

#[test]
fn two_requests_in_one_write_get_two_responses_in_order() {
    let server = server(8, 1, 8);
    let mut stream = keep_alive_connection(server.addr());
    let healthz = "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n";
    let missing = "GET /jobs/999999 HTTP/1.1\r\nHost: test\r\n\r\n";
    stream
        .write_all(format!("{healthz}{missing}").as_bytes())
        .expect("write both requests at once");
    let (status, _, body) = read_one_response(&mut stream);
    assert_eq!((status, body.as_str()), (200, "ok\n"), "first response");
    let (status, _, _) = read_one_response(&mut stream);
    assert_eq!(status, 404, "second response, in request order");
    drop(stream);
    server.shutdown();
}

#[test]
fn a_post_with_body_followed_by_a_get_in_the_same_segment_are_both_answered() {
    let server = server(8, 1, 8);
    let mut stream = keep_alive_connection(server.addr());
    let spec = SearchSpec::sample().seed(3).build();
    let body = submit_body("pipe", "sum", &spec, "");
    // The GET rides in the bytes right behind the declared body — and
    // asks for the job the POST is about to create (ids start at 1).
    let raw = format!(
        "POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}\
         GET /jobs/1?wait=1 HTTP/1.1\r\nHost: test\r\n\r\n",
        body.len()
    );
    stream
        .write_all(raw.as_bytes())
        .expect("write both at once");
    let (status, _, resp) = read_one_response(&mut stream);
    assert_eq!(status, 202, "{resp}");
    assert_eq!(as_u64(field(&json(&resp), "job")), 1);
    let (status, _, out) = read_one_response(&mut stream);
    assert_eq!(status, 200, "{out}");
    assert_eq!(as_str(field(&json(&out), "state")), "completed");
    drop(stream);
    server.shutdown();
}

#[test]
fn garbage_after_a_valid_request_gets_400_after_the_first_answer() {
    let server = server(8, 1, 8);
    let mut stream = keep_alive_connection(server.addr());
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\nnot-http\r\n\r\n")
        .expect("write request and garbage at once");
    let (status, _, body) = read_one_response(&mut stream);
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, headers, resp) = read_one_response(&mut stream);
    assert_eq!(status, 400, "{resp}");
    assert_eq!(header(&headers, "connection"), Some("close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("server closes");
    assert!(rest.is_empty(), "nothing follows the 400");
    server.shutdown();
}

/// `raw` is a POST whose body this server cannot frame, with a complete
/// request hidden in that body. It must get one `400`, a closed
/// connection, and no answer to the hidden request — while a keep-alive
/// client on another connection is served before and after.
fn assert_unframeable_post_is_refused(raw: &str) {
    let server = server(8, 1, 8);
    let healthz = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n";
    let mut bystander = keep_alive_connection(server.addr());
    bystander.write_all(healthz).expect("bystander request");
    assert_eq!(read_one_response(&mut bystander).0, 200);

    let mut stream = keep_alive_connection(server.addr());
    stream.write_all(raw.as_bytes()).expect("write request");
    let (status, headers, resp) = read_one_response(&mut stream);
    assert_eq!(status, 400, "{resp}");
    assert_eq!(header(&headers, "connection"), Some("close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("server closes");
    assert!(
        rest.is_empty(),
        "the body was answered as a request: {}",
        String::from_utf8_lossy(&rest)
    );

    bystander.write_all(healthz).expect("bystander request");
    let (status, _, body) = read_one_response(&mut bystander);
    assert_eq!(
        (status, body.as_str()),
        (200, "ok\n"),
        "bystander unaffected"
    );
    drop(bystander);
    server.shutdown();
}

#[test]
fn a_chunked_post_gets_400_and_its_body_is_not_read_as_a_request() {
    let hidden = "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n";
    assert_unframeable_post_is_refused(&format!(
        "POST /jobs HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n\
         {:x}\r\n{hidden}\r\n0\r\n\r\n",
        hidden.len()
    ));
}

#[test]
fn disagreeing_content_lengths_get_400_and_the_body_is_not_read_as_a_request() {
    let hidden = "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n";
    assert_unframeable_post_is_refused(&format!(
        "POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\nContent-Length: {}\r\n\r\n\
         {hidden}",
        hidden.len()
    ));
}
