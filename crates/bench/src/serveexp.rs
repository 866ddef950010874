//! The serve soak: many concurrent HTTP clients against one
//! [`nmcs_serve::Server`], mixed game domains, with every acceptance
//! invariant of the front door checked in-process:
//!
//! * every **accepted** job's wire result is bit-identical (score,
//!   index-coded sequence, playout and work-unit counters) to the
//!   direct `SearchSpec::run` library call with the same seed;
//! * every **shed** submission (`429` — tenant quota, priority lane, or
//!   unmeetable deadline) carries `Retry-After` and is never enqueued:
//!   at the end the engine's `submitted_jobs` counter equals the exact
//!   number of `202` responses the clients saw;
//! * `GET /metrics` parses line-by-line as Prometheus text with no
//!   series (metric name and label set) repeated, and the JSON form
//!   round-trips byte-identically through the snapshot types.
//!
//! The full soak holds ≥ 200 connections open at once (a barrier after
//! connect guarantees the concurrency actually happens); `--soak-small`
//! shrinks that to a CI-friendly couple dozen. Worker count follows
//! `NMCS_TEST_WORKERS` so CI exercises both the contended single-worker
//! shape and the parallel one.

use crate::report::Table;
use nmcs_core::metrics::MetricsSnapshot;
use nmcs_core::SearchSpec;
use nmcs_engine::EngineConfig;
use nmcs_serve::{wire, ServeConfig, Server};
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Aggregated outcome of one soak run.
#[derive(Debug, Clone, Copy)]
pub struct SoakOutcome {
    /// Client connections held open concurrently at the barrier.
    pub connections: usize,
    /// Jobs the server answered `202` for (then completed and matched).
    pub accepted: u64,
    /// Submissions that stayed shed (`429`) after every retry.
    pub shed: u64,
    /// `429` responses that a later retry turned into a `202`.
    pub retried: u64,
    /// Accepted jobs whose wire result diverged from the direct call.
    pub mismatches: u64,
}

const DOMAINS: &[&str] = &["sum", "samegame-small", "tsp", "needle"];

fn spec_for(client: usize, seed: u64) -> SearchSpec {
    match client % 3 {
        0 => SearchSpec::sample().seed(seed).build(),
        1 => SearchSpec::nested(1).seed(seed).build(),
        _ => SearchSpec::flat_mc(32).seed(seed).build(),
    }
}

/// The direct library call the wire result must match: the same stock
/// game the server builds for `domain` (an erased `DynGame`, so the
/// sequence comes back index-coded exactly like the engine's).
fn direct_coded(domain: &str, spec: &SearchSpec) -> (i64, Vec<usize>, u64, u64) {
    let game = wire::stock_game(domain, spec.seed).expect("soak domains are stock games");
    let r = spec.run(&game).into_result();
    (r.score, r.sequence, r.stats.playouts, r.stats.work_units)
}

// ---------------------------------------------------------------------
// A blocking keep-alive HTTP/1.1 client.
// ---------------------------------------------------------------------

type HttpReply = (u16, Vec<(String, String)>, String);

fn read_reply(stream: &mut TcpStream) -> Result<HttpReply, String> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("EOF before response head".to_string());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|e| e.to_string())?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .ok_or("missing content-length")?;
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("EOF mid-body".to_string());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok((
        status,
        headers,
        String::from_utf8(body).map_err(|e| e.to_string())?,
    ))
}

fn request(stream: &mut TcpStream, raw: &str) -> Result<HttpReply, String> {
    stream
        .write_all(raw.as_bytes())
        .map_err(|e| e.to_string())?;
    read_reply(stream)
}

fn post_jobs(stream: &mut TcpStream, body: &str) -> Result<HttpReply, String> {
    post_path(stream, "/jobs", body)
}

fn post_path(stream: &mut TcpStream, path: &str, body: &str) -> Result<HttpReply, String> {
    request(
        stream,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: soak\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

fn delete_path(stream: &mut TcpStream, path: &str) -> Result<HttpReply, String> {
    request(
        stream,
        &format!("DELETE {path} HTTP/1.1\r\nHost: soak\r\n\r\n"),
    )
}

fn get_path(stream: &mut TcpStream, path: &str) -> Result<HttpReply, String> {
    request(
        stream,
        &format!("GET {path} HTTP/1.1\r\nHost: soak\r\n\r\n"),
    )
}

#[expect(
    clippy::disallowed_methods,
    reason = "the soak drives the HTTP edge from outside: these sockets are the test clients"
)]
fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    // Under a 200-way connect storm the accept queue can briefly fill;
    // a couple of spaced retries ride that out.
    let mut last = String::new();
    for _ in 0..5 {
        match TcpStream::connect(addr) {
            Ok(s) => {
                let _ = s.set_read_timeout(Some(Duration::from_secs(120)));
                return Ok(s);
            }
            Err(e) => last = e.to_string(),
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    Err(format!("connect failed: {last}"))
}

fn field<'a>(v: &'a Value, k: &str) -> Option<&'a Value> {
    v.get_field(k)
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// One client's conversation.
// ---------------------------------------------------------------------

struct ClientTally {
    accepted: u64,
    shed: u64,
    retried: u64,
    mismatch: Option<String>,
}

fn run_client(addr: SocketAddr, client: usize, seed: u64, barrier: &Barrier) -> ClientTally {
    let mut tally = ClientTally {
        accepted: 0,
        shed: 0,
        retried: 0,
        mismatch: None,
    };
    let mut stream = match connect(addr) {
        Ok(s) => s,
        Err(e) => {
            tally.mismatch = Some(format!("client {client}: {e}"));
            barrier.wait();
            return tally;
        }
    };
    // Hold the connection until every client has one open: this is the
    // moment the soak's concurrency claim is actually true.
    barrier.wait();

    let domain = DOMAINS[client % DOMAINS.len()];
    let spec = spec_for(client, seed);
    let tenant = format!("t{}", client % 6);
    // Every 7th client asks for a 1 ms allowance — unmeetable whenever
    // the queue has any backlog, so the deadline shed path gets real
    // traffic without being guaranteed to fire on an idle queue.
    let ttl = if client % 7 == 3 {
        r#","ttl_ms":1"#
    } else {
        ""
    };
    let spec_json = serde_json::to_string(&spec).expect("spec serialises");
    let body = format!(r#"{{"tenant":"{tenant}","game":"{domain}","spec":{spec_json}{ttl}}}"#);

    let mut attempts = 0u32;
    let job_id = loop {
        let (status, headers, resp) = match post_jobs(&mut stream, &body) {
            Ok(r) => r,
            Err(e) => {
                tally.mismatch = Some(format!("client {client}: submit: {e}"));
                return tally;
            }
        };
        match status {
            202 => {
                if attempts > 0 {
                    tally.retried += 1;
                }
                let parsed: Value = match serde_json::from_str(&resp) {
                    Ok(v) => v,
                    Err(e) => {
                        tally.mismatch = Some(format!("client {client}: 202 body: {e}"));
                        return tally;
                    }
                };
                break field(&parsed, "job").and_then(as_u64);
            }
            429 | 503 => {
                // The shed contract: a Retry-After header and a
                // retry_after_ms field, every time.
                let has_header = headers.iter().any(|(k, _)| k == "retry-after");
                let ms = serde_json::from_str::<Value>(&resp)
                    .ok()
                    .and_then(|v| field(&v, "retry_after_ms").and_then(as_u64));
                if status == 429 && (!has_header || ms.is_none()) {
                    tally.mismatch = Some(format!(
                        "client {client}: 429 without retry contract: {resp}"
                    ));
                    return tally;
                }
                attempts += 1;
                if attempts > 3 {
                    tally.shed += 1;
                    return tally;
                }
                std::thread::sleep(Duration::from_millis(ms.unwrap_or(100).min(200)));
            }
            other => {
                tally.mismatch = Some(format!("client {client}: unexpected {other}: {resp}"));
                return tally;
            }
        }
    };
    let Some(job_id) = job_id else {
        tally.mismatch = Some(format!("client {client}: 202 without a job id"));
        return tally;
    };
    tally.accepted = 1;

    let (status, _, out) = match get_path(&mut stream, &format!("/jobs/{job_id}?wait=1")) {
        Ok(r) => r,
        Err(e) => {
            tally.mismatch = Some(format!("client {client}: wait: {e}"));
            return tally;
        }
    };
    if status != 200 {
        tally.mismatch = Some(format!("client {client}: wait got {status}: {out}"));
        return tally;
    }
    if let Err(e) = check_bit_identity(domain, &spec, &out) {
        tally.mismatch = Some(format!("client {client}: {e}"));
    }
    tally
}

fn check_bit_identity(domain: &str, spec: &SearchSpec, out: &str) -> Result<(), String> {
    let v: Value = serde_json::from_str(out).map_err(|e| format!("output body: {e}"))?;
    let state = field(&v, "state").ok_or("output without state")?;
    if state != &Value::Str("completed".to_string()) {
        return Err(format!("job not completed: {out}"));
    }
    let best = field(&v, "best").ok_or("output without best")?;
    let score = field(best, "score")
        .and_then(|s| match s {
            Value::I64(n) => Some(*n),
            Value::U64(n) => i64::try_from(*n).ok(),
            _ => None,
        })
        .ok_or("best without score")?;
    let sequence: Vec<usize> = match field(best, "sequence") {
        Some(Value::Array(xs)) => xs
            .iter()
            .map(|x| as_u64(x).map(|n| n as usize))
            .collect::<Option<_>>()
            .ok_or("non-integer move code")?,
        _ => return Err("best without sequence".to_string()),
    };
    let playouts = field(best, "playouts")
        .and_then(as_u64)
        .ok_or("no playouts")?;
    let work_units = field(best, "work_units")
        .and_then(as_u64)
        .ok_or("no work_units")?;

    let (d_score, d_seq, d_playouts, d_work) = direct_coded(domain, spec);
    if (score, &sequence, playouts, work_units) != (d_score, &d_seq, d_playouts, d_work) {
        return Err(format!(
            "wire result diverged from direct call on {domain}: \
             wire ({score}, {sequence:?}, {playouts}, {work_units}) \
             vs direct ({d_score}, {d_seq:?}, {d_playouts}, {d_work})"
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The soak itself.
// ---------------------------------------------------------------------

fn soak_workers() -> usize {
    std::env::var("NMCS_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&w| w > 0)
        .unwrap_or(4)
}

/// Runs the soak and panics on any violated invariant, so a CI job can
/// gate on the exit code. Returns the outcome plus a rendered table.
#[expect(
    clippy::disallowed_methods,
    reason = "soak clients: driver threads for the HTTP edge, never search work"
)]
pub fn serve_soak(small: bool, seed: u64) -> (SoakOutcome, Table) {
    let connections = if small { 24 } else { 224 };
    let workers = soak_workers();
    let server = Server::start(ServeConfig {
        engine: EngineConfig {
            workers,
            queue_capacity: 64,
        },
        tenant_quota: 16,
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port for the soak");
    let addr = server.addr();

    let accepted = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let retried = Arc::new(AtomicU64::new(0));
    let mismatches = Arc::new(parking_lot::Mutex::new(Vec::<String>::new()));
    let barrier = Arc::new(Barrier::new(connections));

    let handles: Vec<_> = (0..connections)
        .map(|client| {
            let (accepted, shed, retried, mismatches, barrier) = (
                accepted.clone(),
                shed.clone(),
                retried.clone(),
                mismatches.clone(),
                barrier.clone(),
            );
            std::thread::spawn(move || {
                // Each client is a logical worker of the soak, so its
                // seed derives from that coordinate.
                let client_seed = nmcs_core::seeds::tree_worker_seed(seed, client);
                let tally = run_client(addr, client, client_seed, &barrier);
                accepted.fetch_add(tally.accepted, Ordering::Relaxed);
                shed.fetch_add(tally.shed, Ordering::Relaxed);
                retried.fetch_add(tally.retried, Ordering::Relaxed);
                if let Some(m) = tally.mismatch {
                    mismatches.lock().push(m);
                }
            })
        })
        .collect();
    for h in handles {
        let _ = h.join();
    }

    // The post-storm audit, over one fresh connection.
    let mut stream = connect(addr).expect("connect for the metrics audit");
    let (status, _, text) = get_path(&mut stream, "/metrics").expect("GET /metrics");
    assert_eq!(status, 200, "metrics endpoint answers");
    let mut seen = std::collections::BTreeSet::new();
    for line in text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("metrics line without value: {line:?}"));
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric metrics value: {line:?}"
        );
        assert!(
            !name.is_empty() && name.contains('{') == name.ends_with('}'),
            "malformed metrics series: {line:?}"
        );
        assert!(seen.insert(name), "repeated metrics series: {name:?}");
    }
    let series = seen.len();
    assert!(series > 0, "metrics text has series");

    let (status, _, json_body) =
        get_path(&mut stream, "/metrics?format=json").expect("GET /metrics?format=json");
    assert_eq!(status, 200);
    let snapshot: MetricsSnapshot =
        serde_json::from_str(&json_body).expect("metrics JSON deserialises");
    assert_eq!(
        serde_json::to_string(&snapshot).expect("metrics JSON reserialises"),
        json_body,
        "metrics JSON round-trips byte-identically"
    );

    let outcome = SoakOutcome {
        connections,
        accepted: accepted.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
        retried: retried.load(Ordering::Relaxed),
        mismatches: mismatches.lock().len() as u64,
    };

    // The two hard invariants: nothing diverged, nothing shed was ever
    // enqueued (202 count == the engine's own submitted counter).
    let problems = mismatches.lock();
    assert!(
        problems.is_empty(),
        "soak saw {} violations, first: {}",
        problems.len(),
        problems[0]
    );
    drop(problems);
    let engine = snapshot
        .engine
        .expect("served snapshot has an engine section");
    assert_eq!(
        engine.submitted_jobs, outcome.accepted,
        "every 202 was enqueued and nothing else"
    );
    assert_eq!(
        engine.completed_jobs, outcome.accepted,
        "every accepted job completed"
    );
    assert_eq!(
        outcome.accepted + outcome.shed,
        connections as u64,
        "every client either landed a job or stayed shed"
    );

    // Close the audit connection before shutdown: a handler blocked in
    // `read_request` on a live keep-alive socket holds shutdown hostage
    // for the whole read timeout.
    drop(stream);
    server.shutdown();

    let mut t = Table::new(
        format!("Serve soak ({connections} concurrent connections, {workers} workers)"),
        &["measure", "value"],
    );
    t.row(&["connections".to_string(), outcome.connections.to_string()]);
    t.row(&["accepted (202)".to_string(), outcome.accepted.to_string()]);
    t.row(&[
        "shed after retries (429)".to_string(),
        outcome.shed.to_string(),
    ]);
    t.row(&[
        "retried into acceptance".to_string(),
        outcome.retried.to_string(),
    ]);
    t.row(&["bit-identity mismatches".to_string(), "0".to_string()]);
    t.row(&["metrics series parsed".to_string(), series.to_string()]);
    (outcome, t)
}

// ---------------------------------------------------------------------
// The session-churn phase (`tables --serve --sessions`).
// ---------------------------------------------------------------------

/// Drives the session routes through a full churn cycle and panics on
/// any violated invariant: opens far more warm sessions than the byte
/// bound holds (each carries its default transposition-table backing),
/// steps each one, and checks that
///
/// * the `engine_session_bytes` gauge **plateaus** — it never exceeds
///   the configured bound by more than the one just-opened session the
///   next sweep trims, and LRU eviction is observed in the counters;
/// * the per-tenant session quota sheds over-quota opens as `429` with
///   the retry contract, and the shed shows up in
///   `serve_shed_total{reason="session-quota"}`;
/// * `DELETE` unlists (a second delete and a step both `404`), and the
///   serve section's route histograms cover the session routes.
pub fn session_churn(seed: u64) -> Table {
    let workers = soak_workers();
    // Each warm session on the default table budget holds ~3 MiB of
    // backing, so a dozen opens churn well past this bound.
    let bound = 16 * 1024 * 1024;
    let server = Server::start(ServeConfig {
        engine: EngineConfig {
            workers,
            queue_capacity: 64,
        },
        session_quota: 2,
        session_limits: nmcs_engine::SessionLimits {
            max_bytes: bound,
            ..Default::default()
        },
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port for the churn");
    let addr = server.addr();
    let mut stream = connect(addr).expect("connect for the churn");

    let spec = SearchSpec::uct()
        .tree_reuse(true)
        .seed(seed)
        .max_playouts(32)
        .build();
    let spec_json = serde_json::to_string(&spec).expect("spec serialises");
    let open_body = |tenant: &str| {
        format!(r#"{{"tenant":"{tenant}","game":"samegame-small","spec":{spec_json}}}"#)
    };

    let engine_gauges = |stream: &mut TcpStream| -> nmcs_core::metrics::EngineSnapshot {
        let (status, _, body) =
            get_path(stream, "/metrics?format=json").expect("GET /metrics?format=json");
        assert_eq!(status, 200);
        let snapshot: MetricsSnapshot = serde_json::from_str(&body).expect("metrics JSON");
        snapshot
            .engine
            .expect("served snapshot has an engine section")
    };

    // Churn: one tenant per round dodges the per-tenant quota, so the
    // byte bound is the only thing holding the table back.
    let rounds = 12u64;
    let mut peak_bytes = 0u64;
    for round in 0..rounds {
        let tenant = format!("churn{round}");
        let (status, _, body) =
            post_path(&mut stream, "/sessions", &open_body(&tenant)).expect("POST /sessions");
        assert_eq!(status, 201, "open session: {body}");
        let opened: Value = serde_json::from_str(&body).expect("201 body");
        let sid = field(&opened, "session")
            .and_then(as_u64)
            .expect("201 carries a session id");
        assert_eq!(
            field(&opened, "warm"),
            Some(&Value::Bool(true)),
            "tree_reuse spec opens warm: {body}"
        );

        let (status, _, body) = post_path(&mut stream, &format!("/sessions/{sid}/jobs"), "")
            .expect("POST /sessions/id/jobs");
        assert_eq!(status, 202, "step: {body}");
        let accepted: Value = serde_json::from_str(&body).expect("202 body");
        let job = field(&accepted, "job")
            .and_then(as_u64)
            .expect("202 carries a job id");
        let (status, _, out) = get_path(&mut stream, &format!("/jobs/{job}?wait=1")).expect("wait");
        assert_eq!(status, 200, "step completes: {out}");

        let (status, _, body) =
            get_path(&mut stream, &format!("/sessions/{sid}")).expect("GET /sessions/id");
        if status == 200 {
            // The byte bound may have evicted this (now-LRU) session
            // already; when it survives, the step must have committed.
            let info: Value = serde_json::from_str(&body).expect("200 body");
            assert_eq!(
                field(&info, "steps").and_then(as_u64),
                Some(1),
                "one step taken: {body}"
            );
        } else {
            assert_eq!(status, 404, "evicted sessions 404: {body}");
        }

        peak_bytes = peak_bytes.max(engine_gauges(&mut stream).session_bytes);
    }

    // The plateau: churn never pushed the gauge past the bound plus the
    // single just-opened table the next sweep trims.
    let slack = 6 * 1024 * 1024;
    assert!(
        peak_bytes <= bound as u64 + slack,
        "session bytes gauge must plateau near the {bound}-byte bound, peaked at {peak_bytes}"
    );
    let gauges = engine_gauges(&mut stream);
    assert!(
        gauges.sessions_evicted >= 3,
        "churn past the byte bound evicts LRU sessions: {gauges:?}"
    );
    assert!(gauges.sessions >= 1, "newest sessions survive: {gauges:?}");
    assert_eq!(gauges.sessions_opened, rounds, "every open landed");

    // Quota: a single tenant stops at `session_quota` with the full
    // retry contract on the 429.
    let mut hog_ids = Vec::new();
    for _ in 0..2 {
        let (status, _, body) =
            post_path(&mut stream, "/sessions", &open_body("hog")).expect("open under quota");
        assert_eq!(status, 201, "{body}");
        let v: Value = serde_json::from_str(&body).expect("201 body");
        hog_ids.push(field(&v, "session").and_then(as_u64).expect("session id"));
    }
    let (status, headers, body) =
        post_path(&mut stream, "/sessions", &open_body("hog")).expect("over-quota open");
    assert_eq!(status, 429, "third session for one tenant sheds: {body}");
    assert!(
        headers.iter().any(|(k, _)| k == "retry-after"),
        "429 carries Retry-After"
    );
    let shed: Value = serde_json::from_str(&body).expect("429 body");
    assert!(
        field(&shed, "retry_after_ms").and_then(as_u64).is_some(),
        "429 carries retry_after_ms: {body}"
    );

    // Delete: unlists now, 404s forever after.
    let sid = hog_ids[0];
    let (status, _, body) =
        delete_path(&mut stream, &format!("/sessions/{sid}")).expect("DELETE /sessions/id");
    assert_eq!(status, 200, "{body}");
    let (status, _, _) = delete_path(&mut stream, &format!("/sessions/{sid}")).expect("redelete");
    assert_eq!(status, 404, "second delete is a 404");
    let (status, _, _) =
        post_path(&mut stream, &format!("/sessions/{sid}/jobs"), "").expect("step deleted");
    assert_eq!(status, 404, "stepping a deleted session is a 404");

    // The serve text section: session routes in the histograms, the
    // quota shed in the by-reason counters, gauges present and parsing.
    let (status, _, text) = get_path(&mut stream, "/metrics").expect("GET /metrics");
    assert_eq!(status, 200);
    for needle in [
        "serve_route_seconds_count{route=\"POST /sessions\"}",
        "serve_route_seconds_count{route=\"POST /sessions/{id}/jobs\"}",
        "serve_route_seconds_count{route=\"DELETE /sessions/{id}\"}",
        "engine_sessions ",
        "engine_session_bytes ",
    ] {
        assert!(text.contains(needle), "metrics text misses {needle}");
    }
    let quota_sheds = text
        .lines()
        .find(|l| l.starts_with("serve_shed_total{reason=\"session-quota\"}"))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse::<u64>().ok())
        .expect("session-quota shed counter renders");
    assert!(quota_sheds >= 1, "the over-quota open was counted");

    // As in the soak: close the keep-alive connection first, or
    // shutdown waits out the full socket read timeout.
    drop(stream);
    server.shutdown();

    let mut t = Table::new(
        format!(
            "Session churn ({rounds} warm opens vs a {} MiB bound)",
            bound / (1024 * 1024)
        ),
        &["measure", "value"],
    );
    t.row(&["opened".to_string(), gauges.sessions_opened.to_string()]);
    t.row(&[
        "evicted (LRU)".to_string(),
        gauges.sessions_evicted.to_string(),
    ]);
    t.row(&[
        "open at end of churn".to_string(),
        gauges.sessions.to_string(),
    ]);
    t.row(&["peak session bytes".to_string(), peak_bytes.to_string()]);
    t.row(&["byte bound".to_string(), bound.to_string()]);
    t.row(&["quota sheds (429)".to_string(), quota_sheds.to_string()]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_soak_holds_every_invariant() {
        let (outcome, table) = serve_soak(true, 2009);
        assert_eq!(outcome.connections, 24);
        assert_eq!(outcome.mismatches, 0);
        assert!(outcome.accepted > 0, "most clients land jobs");
        assert!(table.render().contains("Serve soak"));
    }
}
