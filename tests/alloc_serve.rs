//! Allocation and lock counts of the HTTP front door's job directory —
//! the dynamic proof that `POST /jobs` neither copies nor locks in
//! proportion to the finished jobs retained, and that a server's heap
//! does not follow the number of jobs it has served.
//!
//! Like `tests/alloc_playout.rs` this is its own test binary because it
//! installs [`alloc_counter::CountingAllocator`] as the global
//! allocator; no other binary is affected. The tests share the
//! process-wide gauges, so they take [`SERIAL`] and run one at a time.
//! The lock counts exist in debug builds only and are per thread.

#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the test drives the server over real sockets and serialises its cases on a std mutex"
)]

use alloc_counter::{count_allocs, live_blocks, live_bytes};
use pnmcs::engine::{Engine, EngineConfig, JobSpec};
use pnmcs::games::SumGame;
use pnmcs::search::SearchSpec;
use pnmcs::serve::registry::JobDirectory;
use pnmcs::serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The default `ServeConfig::retain_terminal`.
const RETAIN: usize = 256;

fn finished_job(engine: &Engine, seed: u64) -> pnmcs::engine::JobHandle {
    let handle = engine
        .submit(JobSpec::from_spec(
            "acme",
            SumGame::random(6, 4, seed),
            SearchSpec::nested(1).seed(seed).build(),
        ))
        .expect("queue has room");
    handle.wait();
    handle
}

/// A one-worker engine and a directory already holding `fill` terminal
/// entries of tenant `acme`, plus one more finished job to insert.
fn filled_directory(fill: usize) -> (Engine, JobDirectory, pnmcs::engine::JobHandle) {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        queue_capacity: 8,
    })
    .expect("engine starts");
    let dir = JobDirectory::new(RETAIN);
    for seed in 0..fill as u64 {
        dir.insert("acme", finished_job(&engine, seed));
    }
    assert_eq!(dir.len(), fill);
    let fresh = finished_job(&engine, fill as u64);
    (engine, dir, fresh)
}

/// `(allocations of one tenant_inflight, allocations of one insert)` on
/// a directory already holding `fill` terminal entries of the same
/// tenant. The inserted job is terminal too, so at `fill == RETAIN` the
/// insert retires it and evicts the oldest entry.
fn submit_path_allocations(fill: usize) -> (u64, u64) {
    let (engine, dir, fresh) = filled_directory(fill);
    let (gauge, inflight) = count_allocs(|| dir.tenant_inflight("acme"));
    assert_eq!(inflight, 0, "every entry is terminal");
    let (insert, ()) = count_allocs(|| dir.insert("acme", fresh));
    assert_eq!(dir.len(), (fill + 1).min(RETAIN), "retention held");
    engine.shutdown();
    (gauge, insert)
}

/// One submit's two directory calls allocate no more on a directory
/// holding a full retention's worth of finished jobs than on an empty
/// one: the gauge nothing at all; the insert the entry's tenant
/// `String`, and at fill 0 also the first slot of the empty live list.
/// At fill 256 the live list reuses the capacity earlier inserts grew,
/// and the terminal list was sized for the bound when the directory
/// was made, so the tenant `String` is all.
///
/// When one `Vec` held every entry, the insert allocated twice at both
/// fills (the `Vec` growing from empty at fill 0, past its 256th slot
/// at fill 256). Before that, when the walks called `try_output()` and
/// dropped the `JobOutput` it built (name, best replica, the replica
/// list, each replica's move sequence: 4 allocations a job), the same
/// calls at fill 256 allocated 1024 times in `tenant_inflight` and
/// 1034 times in `insert` (2 058 a submit; debug and release alike),
/// and at fill 0, 0 and 6.
#[test]
fn a_submit_allocates_the_same_on_an_empty_and_a_full_directory() {
    let _one_at_a_time = serial();
    let empty = submit_path_allocations(0);
    let full = submit_path_allocations(RETAIN);
    assert_eq!(empty, (0, 2), "fill 0: (tenant_inflight, insert)");
    assert_eq!(full, (0, 1), "fill {RETAIN}: (tenant_inflight, insert)");
}

/// `(locks of one tenant_inflight, locks of one insert)` on the
/// directory of [`submit_path_allocations`], counted by the debug-only
/// per-thread [`parking_lot::lock_acquisitions`].
#[cfg(debug_assertions)]
fn submit_path_locks(fill: usize) -> (u64, u64) {
    let (engine, dir, fresh) = filled_directory(fill);
    let before = parking_lot::lock_acquisitions();
    assert_eq!(dir.tenant_inflight("acme"), 0, "every entry is terminal");
    let gauge = parking_lot::lock_acquisitions() - before;
    let before = parking_lot::lock_acquisitions();
    dir.insert("acme", fresh);
    let insert = parking_lot::lock_acquisitions() - before;
    engine.shutdown();
    (gauge, insert)
}

/// The submit path's locks do not follow the finished jobs retained:
/// the gauge takes the directory's lock and asks no handle (every
/// retained entry is in the terminal list), and the insert takes the
/// directory's lock and asks the one live entry, the new job. When one
/// `Vec` held every entry, each walk asked every handle: 257 and 259
/// locks at fill 256.
#[cfg(debug_assertions)]
#[test]
fn a_submit_takes_the_same_locks_on_an_empty_and_a_full_directory() {
    let _one_at_a_time = serial();
    let empty = submit_path_locks(0);
    let full = submit_path_locks(RETAIN);
    assert_eq!(empty, (1, 2), "fill 0: (tenant_inflight, insert)");
    assert_eq!(full, (1, 2), "fill {RETAIN}: (tenant_inflight, insert)");
}

/// One keep-alive client: POST a tiny job, wait for it, repeat.
struct Client {
    stream: TcpStream,
    raw: Vec<u8>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect to server");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set timeout");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            stream,
            raw: Vec::with_capacity(4096),
        }
    }

    /// Sends `request` and returns the body of its `Content-Length`
    /// reply (read into the client's one buffer).
    fn exchange(&mut self, request: &str) -> &str {
        self.stream
            .write_all(request.as_bytes())
            .expect("write request");
        self.raw.clear();
        let mut chunk = [0u8; 1024];
        loop {
            if let Some(head_end) = self.raw.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.raw[..head_end]).expect("UTF-8 head");
                assert!(head.starts_with("HTTP/1.1 20"), "{head}");
                let length: usize = head
                    .lines()
                    .filter_map(|l| l.split_once(':'))
                    .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
                    .map(|(_, v)| v.trim().parse().expect("numeric length"))
                    .expect("Content-Length");
                if self.raw.len() >= head_end + 4 + length {
                    return std::str::from_utf8(&self.raw[head_end + 4..]).expect("UTF-8 body");
                }
            }
            let n = self.stream.read(&mut chunk).expect("reply in time");
            assert!(n > 0, "server closed the connection");
            self.raw.extend_from_slice(&chunk[..n]);
        }
    }

    fn run_job(&mut self, seed: u64) {
        let spec = serde_json::to_string(&SearchSpec::nested(1).seed(seed).build())
            .expect("spec serialises");
        let body = format!(r#"{{"tenant":"acme","game":"sum","spec":{spec}}}"#);
        let accepted = self.exchange(&format!(
            "POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ));
        let rest = &accepted[accepted.find("\"job\":").expect("job id") + 6..];
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        let id: u64 = rest[..digits].parse().expect("numeric id");
        let done = self.exchange(&format!(
            "GET /jobs/{id}?wait=1 HTTP/1.1\r\nHost: test\r\n\r\n"
        ));
        assert!(done.contains(r#""state":"completed""#), "{done}");
    }
}

/// The whole process's heap `(blocks, bytes)` once the server is idle:
/// a `/healthz` round trip orders the sample behind the last job's
/// reply, and a short pause lets the worker that ran it drop its task.
fn idle_heap(client: &mut Client) -> (i64, i64) {
    assert_eq!(
        client.exchange("GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"),
        "ok\n"
    );
    std::thread::sleep(Duration::from_millis(20));
    (live_blocks(), live_bytes())
}

/// Once retention (256 terminal jobs) is full the server holds the same
/// heap after 1 500 jobs as after 300: every block a job brought in is
/// freed when the job is evicted. "The same" is within 64 blocks and
/// 16 KiB over those 1 200 further jobs — a leak of one 16-byte block a
/// job would read 1 200 blocks and 19 KiB; the slack covers the test
/// harness's own threads and the sequence-length spread of the 256
/// retained results. This is what says `serve-jobs`' `peak_rss_mb`
/// following the op count is the measuring harness's per-op samples and
/// not the server.
#[test]
fn the_server_heap_is_flat_in_jobs_served() {
    let _one_at_a_time = serial();
    let server = Server::start(ServeConfig {
        engine: EngineConfig {
            workers: 2,
            queue_capacity: 256,
        },
        ..ServeConfig::default()
    })
    .expect("bind an ephemeral port");
    let mut client = Client::connect(&server);
    for seed in 0..300 {
        client.run_job(seed);
    }
    let (blocks_300, bytes_300) = idle_heap(&mut client);
    for seed in 300..1500 {
        client.run_job(seed);
    }
    let (blocks_1500, bytes_1500) = idle_heap(&mut client);
    assert!(
        (blocks_1500 - blocks_300).abs() <= 64,
        "live blocks after 300 jobs {blocks_300}, after 1500 jobs {blocks_1500}"
    );
    assert!(
        (bytes_1500 - bytes_300).abs() <= 16 * 1024,
        "live bytes after 300 jobs {bytes_300}, after 1500 jobs {bytes_1500}"
    );
    drop(client);
    server.shutdown();
}
