//! The five end-to-end workloads.
//!
//! Every loop is closed: a client waits for its result before issuing
//! the next operation. Search budgets are work-based (levels,
//! iteration counts), never deadlines, so each op's playout count,
//! score and sequence repeat exactly for a given `--seed` and only time
//! varies.
//!
//! A pass is a *cycle* of ops — a fixed list of inputs made from
//! `--seed` — issued again and again: the run length decides how many
//! times, never which ops. Every repeat of an op does the same work and
//! must return the same result, so its timings differ only by what the
//! box did meanwhile (`drive.rs` takes the quiet ones).

use crate::http::Client;
use crate::pin::OneCpu;
use crate::trace::{Open, Tracer, NO_PARENT};
use morpion::{cross_board, standard_5d, Variant};
use nmcs_core::{CodedGame, Game, Score, SearchReport, SearchSession, SearchSpec, UctConfig};
use nmcs_engine::EngineConfig;
use nmcs_games::SameGame;
use nmcs_serve::{wire, ServeConfig, Server};
use serde::Value;
use std::time::{Duration, Instant};

/// Name and reason of each workload, in run order. `BENCHMARK.json`
/// carries the same list (a unit test holds the two together).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "nmcs-morpion",
        "level-1 NMCS games on the paper's 5D cross, one client: domain apply/undo/movegen inside the playout core dominates; pool, tree and service layers are bypassed",
    ),
    (
        "pnmcs-root-parallel",
        "the paper's root/median/client hierarchy at width 2, first-move mode on a reduced cross: ~3000 client jobs in small pool slabs per op, so executor fixed cost, parks and steals show",
    ),
    (
        "uct-cold-samegame",
        "2000-iteration UCT on one of a hundred 6x6 SameGame boards per op: cheap rollouts make select/expand/backup dominant and every search builds a new tree (the tree's write path)",
    ),
    (
        "uct-warm-sessions",
        "warm SearchSession steps on 10x10 SameGame with tree reuse: re-root and transposition-table probe/retain (the tree's read path), opposite of the cold workload",
    ),
    (
        "serve-jobs",
        "tiny level-1 jobs over one keep-alive HTTP connection, held on one CPU: the search is a few percent of the round trip, so parse, JSON, admission, queue and thread hand-offs dominate",
    ),
];

/// Fewest cycles a pass issues, whatever the run length. No cycle has
/// fewer than 50 ops, so a pass has at least 200: a p95 needs ten
/// samples beyond it.
pub const MIN_CYCLES: usize = 4;
/// Untimed ops run during set-up so caches, lazy pools and thread-local
/// scratch are warm before the clock starts.
const WARM_OPS: u64 = 8;
/// How many leading ops are re-run after the clock stops and must come
/// back bit-identical.
const RERUN_OPS: usize = 20;
/// Warm-up inputs do not depend on `--seed`: set-up does the same work
/// in every run, so `setup_s` varies with the code and not the inputs.
const WARM_BASE: u64 = 0x5e70_b5e5_e70b_5e00;
/// Seed of the boards a cycle plays on where they are the same in
/// every run.
const BOARD_BASE: u64 = 0xb0a2_d5b0_a2d5_0000;

/// How long a pass runs: whole cycles until a wall-clock time is up
/// (the measured pass) or a fixed number of cycles (the traced pass
/// repeats the untraced pass's ops exactly).
#[derive(Debug, Clone, Copy)]
pub enum Extent {
    Time(Duration),
    Cycles(usize),
}

/// SplitMix64 finaliser: spreads consecutive `--seed` values so two
/// runs share no inputs.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSample {
    /// Which op of the cycle this is.
    pub slot: u32,
    /// When the op completed, from the start of its pass.
    pub end_ns: u64,
    pub latency_ns: u64,
}

/// What an op returned, as far as the benchmark looks at it.
pub trait Output {
    fn score(&self) -> Score;
    fn playouts(&self) -> u64;
    /// Whether a repeat of the op returned this very output.
    fn same(&self, other: &Self) -> bool;
    fn digest(&self, into: &mut OutputDigest);
}

impl<M: PartialEq + std::fmt::Debug> Output for SearchReport<M> {
    fn score(&self) -> Score {
        self.score
    }
    fn playouts(&self) -> u64 {
        self.stats.playouts
    }
    fn same(&self, other: &Self) -> bool {
        self.score == other.score
            && self.sequence == other.sequence
            && self.stats == other.stats
            && self.seed == other.seed
    }
    fn digest(&self, into: &mut OutputDigest) {
        into.op(self.score, self.stats.playouts, &self.sequence);
    }
}

/// One measured pass.
///
/// It keeps a timing for every op but the output of the cycle's first
/// run only: a repeat is compared with that as it returns (a few words,
/// outside the op's timed interval) and counted in `strays` if it
/// differs. So what the harness holds does not grow with the run and
/// `peak_rss_mb` is the program's.
pub struct Pass<O> {
    started: Instant,
    pub wall: Duration,
    /// How many times the cycle ran.
    pub cycles: usize,
    /// One per completed op, in completion order.
    pub samples: Vec<OpSample>,
    /// By op of the cycle, what its first run returned (`None` if that
    /// run failed).
    pub first: Vec<Option<O>>,
    /// Repeats that did not return what the first run did.
    pub strays: u64,
    /// Ops that failed or were refused while the clock ran.
    pub failed: u64,
}

impl<O: Output> Pass<O> {
    fn start() -> Self {
        Pass {
            started: Instant::now(),
            wall: Duration::ZERO,
            cycles: 0,
            samples: Vec::new(),
            first: Vec::new(),
            strays: 0,
            failed: 0,
        }
    }

    /// Whether to run the cycle once more; asked between cycles only.
    fn another_cycle(&self, extent: Extent) -> bool {
        match extent {
            Extent::Time(d) => self.cycles < MIN_CYCLES || self.started.elapsed() < d,
            Extent::Cycles(n) => self.cycles < n,
        }
    }

    /// The number the next op carries in the trace.
    fn next_op(&self) -> u64 {
        self.samples.len() as u64 + self.failed
    }

    fn completed(&mut self, slot: u64, latency: Duration, output: O) {
        self.samples.push(OpSample {
            slot: slot as u32,
            end_ns: self.started.elapsed().as_nanos() as u64,
            latency_ns: latency.as_nanos() as u64,
        });
        let slot = slot as usize;
        if self.first.len() <= slot {
            self.first.resize_with(slot + 1, || None);
        }
        match &self.first[slot] {
            Some(first) => self.strays += u64::from(!first.same(&output)),
            None => self.first[slot] = Some(output),
        }
    }

    fn end_cycle(&mut self) {
        self.cycles += 1;
        self.wall = self.started.elapsed();
    }

    /// The first run's outputs, in cycle order.
    pub fn outputs(&self) -> impl Iterator<Item = &O> {
        self.first.iter().flatten()
    }

    /// Digest of the outputs (score, playouts, sequence) of the cycle's
    /// ops: equal for equal seeds, whatever the run length or the
    /// machine's speed.
    pub fn cycle_digest(&self) -> u64 {
        let mut digest = OutputDigest::new();
        self.outputs().for_each(|o| o.digest(&mut digest));
        digest.finish()
    }
}

pub trait Workload: Sized {
    const NAME: &'static str;
    type Output: Output;
    /// Builds inputs, starts what must run, and warms it up.
    fn setup(seed: u64) -> Self;
    /// Issues the cycle's ops, in order, as many times as `extent` says.
    fn measure(&mut self, extent: Extent, tracer: &mut Tracer) -> Pass<Self::Output>;
    /// Checks the outputs of the cycle's first run; returns how many
    /// failed. (`Pass::strays` counts the repeats that differed.)
    fn verify(&self, pass: &Pass<Self::Output>) -> u64;
    /// Facts about how the workload ran, printed above the result line.
    fn notes(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }
}

/// FNV-1a over the outputs of one op after another.
pub struct OutputDigest(u64);

impl OutputDigest {
    pub fn new() -> Self {
        OutputDigest(0xcbf2_9ce4_8422_2325)
    }

    pub fn op(&mut self, score: Score, playouts: u64, sequence: &impl std::fmt::Debug) {
        for byte in format!("{score}/{playouts}/{sequence:?};").bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Whether `sequence`, played from `root` through legal moves only,
/// reaches `score`.
pub fn replays<G: Game>(root: &G, sequence: &[G::Move], score: Score) -> bool {
    let mut pos = root.clone();
    let mut legal = Vec::new();
    for mv in sequence {
        pos.legal_moves_into(&mut legal);
        if !legal.contains(mv) {
            return false;
        }
        pos.play(mv);
    }
    pos.score() == score
}

// ---------------------------------------------------------------------
// One-shot library workloads: one `SearchSpec::run` per op
// ---------------------------------------------------------------------

/// A workload whose op is one front-door `SearchSpec::run` on a game
/// built for that op. `op` counts within the cycle.
pub trait OneShot {
    const NAME: &'static str;
    /// Ops in the cycle: about half a second of them.
    const CYCLE_OPS: u64;
    type G: CodedGame + Send + Sync;
    fn game(base: u64, op: u64) -> Self::G;
    fn spec(base: u64, op: u64) -> SearchSpec;
    /// Whether `report` is a correct output for `game`: by default its
    /// sequence replays from the root to its score.
    fn check(game: &Self::G, report: &SearchReport<<Self::G as Game>::Move>) -> bool {
        replays(game, &report.sequence, report.score)
    }
    /// A second spec that must return the same result as `spec` (the
    /// re-run of the leading ops compares against it too).
    fn twin(_base: u64, _op: u64) -> Option<SearchSpec> {
        None
    }
}

pub struct OneShotRun<W: OneShot> {
    base: u64,
    _w: std::marker::PhantomData<W>,
}

impl<W: OneShot> Workload for OneShotRun<W>
where
    <W::G as Game>::Move: Send + Sync,
{
    const NAME: &'static str = W::NAME;
    type Output = SearchReport<<W::G as Game>::Move>;

    fn setup(seed: u64) -> Self {
        for op in 0..WARM_OPS {
            std::hint::black_box(W::spec(WARM_BASE, op).run(&W::game(WARM_BASE, op)));
        }
        OneShotRun {
            base: mix64(seed),
            _w: std::marker::PhantomData,
        }
    }

    fn measure(&mut self, extent: Extent, tracer: &mut Tracer) -> Pass<Self::Output> {
        let mut pass = Pass::start();
        while pass.another_cycle(extent) {
            for slot in 0..W::CYCLE_OPS {
                let op = pass.next_op();
                let span = tracer.open("op", NO_PARENT, op);
                let game = tracer.span("games.build", span.id(), op, || W::game(self.base, slot));
                let spec = W::spec(self.base, slot);
                let t = Instant::now();
                let report = tracer.span("core.spec.run", span.id(), op, || spec.run(&game));
                pass.completed(slot, t.elapsed(), report);
                tracer.close(span);
            }
            pass.end_cycle();
        }
        pass
    }

    /// Every report is checked against its game, the leading ones by a
    /// re-run as well.
    fn verify(&self, pass: &Pass<Self::Output>) -> u64 {
        let mut bad = 0;
        for (i, report) in pass.outputs().enumerate() {
            let op = i as u64;
            let game = W::game(self.base, op);
            let mut ok = report.interrupted.is_none() && W::check(&game, report);
            if i < RERUN_OPS {
                ok &= report.same(&W::spec(self.base, op).run(&game));
                if let Some(twin) = W::twin(self.base, op) {
                    let other = twin.run(&game);
                    ok &= report.score == other.score && report.sequence == other.sequence;
                }
            }
            bad += u64::from(!ok);
        }
        bad
    }
}

pub struct NmcsMorpion;
impl OneShot for NmcsMorpion {
    const NAME: &'static str = "nmcs-morpion";
    /// Whole games differ more than the other workloads' ops, so more of
    /// them stand for the workload (0.8 s).
    const CYCLE_OPS: u64 = 100;
    type G = morpion::Board;
    fn game(_: u64, _: u64) -> morpion::Board {
        standard_5d()
    }
    fn spec(base: u64, op: u64) -> SearchSpec {
        SearchSpec::nested(1).seed(base.wrapping_add(op)).build()
    }
}

pub struct PnmcsRootParallel;
impl OneShot for PnmcsRootParallel {
    const NAME: &'static str = "pnmcs-root-parallel";
    const CYCLE_OPS: u64 = 50;
    type G = morpion::Board;
    fn game(_: u64, _: u64) -> morpion::Board {
        cross_board(Variant::Disjoint, 3)
    }
    fn spec(base: u64, op: u64) -> SearchSpec {
        SearchSpec::root_parallel(2, 2)
            .first_move_only()
            .seed(base.wrapping_add(op))
            .build()
    }
    /// First-move mode (the paper's Tables I–II) plays one move and
    /// reports the best evaluation behind it, so there is no line to
    /// replay: the move must be legal and the score a reachable one.
    fn check(game: &morpion::Board, report: &SearchReport<morpion::Move>) -> bool {
        let mut legal = Vec::new();
        game.legal_moves_into(&mut legal);
        matches!(&report.sequence[..], [mv] if legal.contains(mv)) && report.score > game.score()
    }
    /// Root-parallel results do not depend on the worker count.
    fn twin(base: u64, op: u64) -> Option<SearchSpec> {
        Some(
            SearchSpec::root_parallel(2, 1)
                .first_move_only()
                .seed(base.wrapping_add(op))
                .build(),
        )
    }
}

pub struct UctColdSamegame;
impl OneShot for UctColdSamegame {
    const NAME: &'static str = "uct-cold-samegame";
    const CYCLE_OPS: u64 = 100;
    type G = SameGame;
    /// The boards are the same in every run and `--seed` moves the
    /// search seeds, as on `nmcs-morpion`'s one board: a hundred boards
    /// drawn afresh made the cycle 9 % cheaper or dearer from one seed
    /// to the next.
    fn game(_: u64, op: u64) -> SameGame {
        SameGame::random(6, 6, 3, BOARD_BASE.wrapping_add(op))
    }
    fn spec(base: u64, op: u64) -> SearchSpec {
        SearchSpec::uct_with(UctConfig {
            iterations: 2_000,
            ..UctConfig::default()
        })
        .seed(base.wrapping_add(op))
        .build()
    }
}

// ---------------------------------------------------------------------
// uct-warm-sessions: op = one SearchSession::step
// ---------------------------------------------------------------------

/// Sessions in the cycle of `uct-warm-sessions`, each on a board of its
/// own: about 400 steps, 1.3 s. (With eight sessions ten seeds spread
/// 12 % on `ops_per_s`, with sixteen 7–9 %, with thirty-two no less.)
const CYCLE_SESSIONS: u64 = 16;

pub struct UctWarmSessions {
    base: u64,
}

/// One step, and which session of the cycle took it.
pub struct Step {
    session: u64,
    report: SearchReport<<SameGame as Game>::Move>,
}

impl Output for Step {
    fn score(&self) -> Score {
        self.report.score
    }
    fn playouts(&self) -> u64 {
        self.report.stats.playouts
    }
    fn same(&self, other: &Self) -> bool {
        self.session == other.session && self.report.same(&other.report)
    }
    fn digest(&self, into: &mut OutputDigest) {
        self.report.digest(into);
    }
}

impl UctWarmSessions {
    /// The boards are the same in every run; `--seed` moves the search
    /// seeds only, as on `nmcs-morpion`'s one board. A session costs
    /// 70–160 ms by its board, so boards drawn afresh per seed would
    /// make the cycle itself cheaper or dearer from one seed to the
    /// next.
    fn board(session: u64) -> SameGame {
        SameGame::random(10, 10, 4, BOARD_BASE.wrapping_add(session))
    }

    fn open(&self, session: u64) -> SearchSession<SameGame> {
        let spec = SearchSpec::uct_with(UctConfig {
            iterations: 500,
            ..UctConfig::default()
        })
        .tree_reuse(true)
        .seed(self.base.wrapping_add(session))
        .build();
        SearchSession::new(Self::board(session), spec, None)
    }
}

impl Workload for UctWarmSessions {
    const NAME: &'static str = "uct-warm-sessions";
    type Output = Step;

    fn setup(seed: u64) -> Self {
        // One whole session on the fixed warm-up board.
        let mut warm = UctWarmSessions { base: WARM_BASE }.open(0);
        while !warm.is_done() {
            std::hint::black_box(warm.step(None));
        }
        UctWarmSessions { base: mix64(seed) }
    }

    fn measure(&mut self, extent: Extent, tracer: &mut Tracer) -> Pass<Step> {
        let mut pass = Pass::start();
        while pass.another_cycle(extent) {
            let mut slot = 0;
            for session in 0..CYCLE_SESSIONS {
                let open = || self.open(session);
                let mut s = tracer.span("core.session.open", NO_PARENT, pass.next_op(), open);
                while !s.is_done() {
                    let op = pass.next_op();
                    let span = tracer.open("op", NO_PARENT, op);
                    let t = Instant::now();
                    let report = tracer.span("core.session.step", span.id(), op, || s.step(None));
                    pass.completed(slot, t.elapsed(), Step { session, report });
                    tracer.close(span);
                    slot += 1;
                }
            }
            pass.end_cycle();
        }
        pass
    }

    /// Each step's line must replay from the position before the step,
    /// and its head is the move the session committed; the first
    /// session's leading steps are re-run as well.
    fn verify(&self, pass: &Pass<Step>) -> u64 {
        let steps: Vec<&Step> = pass.outputs().collect();
        let mut bad = 0;
        for of_one_session in steps.chunk_by(|a, b| a.session == b.session) {
            let session = of_one_session[0].session;
            let mut pos = Self::board(session);
            let mut again = (session == 0).then(|| self.open(session));
            for (k, Step { report, .. }) in of_one_session.iter().enumerate() {
                let mut ok = report.interrupted.is_none()
                    && !report.sequence.is_empty()
                    && replays(&pos, &report.sequence, report.score);
                if let Some(again) = again.as_mut().filter(|_| k < RERUN_OPS) {
                    ok &= report.same(&again.step(None));
                }
                bad += u64::from(!ok);
                // After a step that does not replay, the position is unknown.
                match report.sequence.first() {
                    Some(mv) if ok => pos.play(mv),
                    _ => break,
                }
            }
        }
        bad
    }
}

// ---------------------------------------------------------------------
// serve-jobs: op = POST /jobs then GET /jobs/{id}?wait=1
// ---------------------------------------------------------------------

/// `serve-jobs` has one closed-loop client. Two (= nproc) were tried:
/// six runnable threads on two shared cores made the run-to-run spread
/// of every timing two to three times wider, at no gain in what the
/// workload shows. Client, server and engine share one CPU (`pin.rs`
/// says why).
///
/// Stock games the jobs rotate over. All three score upward from zero,
/// so `mean_score` is positive (the TSP stock game scores a negative
/// tour length and is left out for that reason).
pub const SERVE_GAMES: [&str; 3] = ["samegame-small", "sum", "needle"];
/// Jobs in the cycle of `serve-jobs`: four hundred rounds of the three
/// games, about 0.2 s. (The server builds a job's board from the job's
/// seed, so here `--seed` moves the boards too; over a hundred rounds
/// `mean_score` spread 3.6 % from seed to seed.)
const SERVE_CYCLE_OPS: u64 = 1200;
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        engine: EngineConfig {
            workers: 2,
            queue_capacity: 256,
        },
        ..ServeConfig::default()
    }
}

pub fn serve_game(op: u64) -> &'static str {
    SERVE_GAMES[(op % SERVE_GAMES.len() as u64) as usize]
}

pub fn serve_spec(base: u64, op: u64) -> SearchSpec {
    SearchSpec::nested(1).seed(base.wrapping_add(op)).build()
}

pub fn submit_body(tenant: &str, game: &str, spec: &SearchSpec) -> String {
    let spec = serde_json::to_string(spec).expect("a spec serialises");
    format!("{{\"tenant\":\"{tenant}\",\"game\":\"{game}\",\"spec\":{spec}}}")
}

/// The `"job":<id>` field of a 202 body, without a JSON parse on the
/// timed path.
pub fn job_id(body: &str) -> Option<u64> {
    let rest = &body[body.find("\"job\":")? + 6..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    rest[..digits].parse().ok()
}

/// What a terminal job body says about its best replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResult {
    pub score: Score,
    pub sequence: Vec<usize>,
    pub playouts: u64,
}

pub fn parse_result(body: &str) -> Option<WireResult> {
    use serde::Deserialize;
    let v: Value = serde_json::from_str(body).ok()?;
    if v.get_field("state") != Some(&Value::Str("completed".to_string())) {
        return None;
    }
    let best = v.get_field("best")?;
    Some(WireResult {
        score: Score::from_value(best.get_field("score")?).ok()?,
        sequence: Vec::<usize>::from_value(best.get_field("sequence")?).ok()?,
        playouts: u64::from_value(best.get_field("playouts")?).ok()?,
    })
}

/// One submit→terminal round trip. `Err` is a failed op (transport
/// error, non-2xx, or an unreadable body).
pub fn round_trip(
    client: &mut Client,
    body: &str,
    tracer: &mut Tracer,
    parent: Open,
    op: u64,
) -> Result<(Duration, WireResult), String> {
    let t = Instant::now();
    let post = tracer.open("serve.post", parent.id(), op);
    let accepted = client.post("/jobs", body);
    tracer.close(post);
    let accepted = accepted.map_err(|e| format!("POST /jobs: {e}"))?;
    if !accepted.is_success() {
        return Err(format!("POST /jobs: {} {}", accepted.status, accepted.body));
    }
    let id = job_id(&accepted.body).ok_or("202 without a job id")?;
    let wait = tracer.open("serve.wait", parent.id(), op);
    let done = client.get(&format!("/jobs/{id}?wait=1"));
    tracer.close(wait);
    let latency = t.elapsed();
    let done = done.map_err(|e| format!("GET /jobs/{id}: {e}"))?;
    if !done.is_success() {
        return Err(format!("GET /jobs/{id}: {} {}", done.status, done.body));
    }
    let result = parse_result(&done.body).ok_or_else(|| format!("bad result: {}", done.body))?;
    Ok((latency, result))
}

pub struct ServeJobs {
    base: u64,
    /// Declared before the server, so it closes first: the server's
    /// connection thread sees EOF and `Server`'s drop joins it promptly.
    client: Client,
    _server: Server,
    /// Last, so the calling thread gets its CPUs back once the server's
    /// threads have ended.
    pin: Option<OneCpu>,
}

impl Output for WireResult {
    fn score(&self) -> Score {
        self.score
    }
    fn playouts(&self) -> u64 {
        self.playouts
    }
    fn same(&self, other: &Self) -> bool {
        self == other
    }
    fn digest(&self, into: &mut OutputDigest) {
        into.op(self.score, self.playouts, &self.sequence);
    }
}

impl Workload for ServeJobs {
    const NAME: &'static str = "serve-jobs";
    type Output = WireResult;

    fn setup(seed: u64) -> Self {
        let pin = OneCpu::pin();
        let server = Server::start(serve_config()).expect("bind 127.0.0.1:0");
        let mut client = Client::connect(server.addr()).expect("connect to own server");
        let mut off = Tracer::disabled();
        for op in 0..WARM_OPS * 8 {
            let body = submit_body("warm", serve_game(op), &serve_spec(WARM_BASE, op));
            let parent = off.open("op", NO_PARENT, op);
            round_trip(&mut client, &body, &mut off, parent, op).expect("warm-up op");
        }
        ServeJobs {
            base: mix64(seed),
            client,
            _server: server,
            pin,
        }
    }

    fn notes(&self) -> Vec<(&'static str, String)> {
        let cpu = self.pin.as_ref().map(|p| p.cpu.to_string());
        vec![("pinned_cpu", cpu.unwrap_or_else(|| "none".to_string()))]
    }

    fn measure(&mut self, extent: Extent, tracer: &mut Tracer) -> Pass<WireResult> {
        let mut pass = Pass::start();
        while pass.another_cycle(extent) {
            for slot in 0..SERVE_CYCLE_OPS {
                let op = pass.next_op();
                let body = submit_body("client", serve_game(slot), &serve_spec(self.base, slot));
                let span = tracer.open("op", NO_PARENT, op);
                match round_trip(&mut self.client, &body, tracer, span, op) {
                    Ok((latency, result)) => pass.completed(slot, latency, result),
                    Err(why) => {
                        eprintln!("serve-jobs op {op} failed: {why}");
                        pass.failed += 1;
                    }
                }
                tracer.close(span);
            }
            pass.end_cycle();
        }
        pass
    }

    /// Every job's result must equal the direct library call on the
    /// same stock game: score, index-coded sequence and playout count.
    fn verify(&self, pass: &Pass<WireResult>) -> u64 {
        let mut bad = 0;
        for (op, got) in pass.first.iter().enumerate() {
            let Some(got) = got else { continue };
            let spec = serve_spec(self.base, op as u64);
            let game = wire::stock_game(serve_game(op as u64), spec.seed).expect("stock game");
            let direct = spec.run(&game);
            let ok = (got.score, &got.sequence, got.playouts)
                == (direct.score, &direct.sequence, direct.stats.playouts)
                && replays(&game, &direct.sequence, direct.score);
            bad += u64::from(!ok);
        }
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_is_read_without_a_json_parse() {
        let body = r#"{"job":417,"tenant":"t","game":"sum","replicas":1,"state":"queued"}"#;
        assert_eq!(job_id(body), Some(417));
        assert_eq!(job_id(r#"{"error":"nope"}"#), None);
        assert_eq!(job_id(r#"{"job":null}"#), None);
    }

    #[test]
    fn terminal_bodies_parse_and_unfinished_ones_do_not() {
        let done = r#"{"job":1,"tenant":"t","state":"completed","best":{"replica":0,"seed_used":5,"score":12,"sequence":[0,2,1],"playouts":9,"work_units":30,"interrupted":null,"elapsed_ms":0.1},"replicas":[],"elapsed_ms":0.2}"#;
        assert_eq!(
            parse_result(done),
            Some(WireResult {
                score: 12,
                sequence: vec![0, 2, 1],
                playouts: 9
            })
        );
        assert_eq!(parse_result(&done.replace("completed", "cancelled")), None);
        assert_eq!(parse_result("{}"), None);
    }

    #[test]
    fn submit_body_is_what_the_server_decodes() {
        let spec = serve_spec(7, 3);
        let body = submit_body("client-0", "sum", &spec);
        let req: wire::SubmitRequest = serde_json::from_str(&body).expect("server-side decode");
        assert_eq!(
            (req.tenant.as_str(), req.game.as_str()),
            ("client-0", "sum")
        );
        assert_eq!(req.spec, spec);
    }

    #[test]
    fn seeds_are_spread_and_op_inputs_are_stable() {
        assert_ne!(mix64(1), mix64(2));
        assert_eq!(mix64(1), mix64(1));
        assert!(
            mix64(1).abs_diff(mix64(2)) > 1 << 32,
            "consecutive seeds share no ops"
        );
        assert_eq!(UctColdSamegame::spec(5, 9), UctColdSamegame::spec(5, 9));
        assert_ne!(
            UctColdSamegame::spec(5, 9).seed,
            UctColdSamegame::spec(5, 10).seed
        );
    }

    #[test]
    fn replay_rejects_illegal_moves_and_wrong_scores() {
        let board = standard_5d();
        let report = SearchSpec::sample().seed(3).run(&board);
        assert!(replays(&board, &report.sequence, report.score));
        assert!(!replays(&board, &report.sequence, report.score + 1));
        let mut twice = report.sequence.clone();
        twice.insert(1, report.sequence[0]);
        assert!(
            !replays(&board, &twice, report.score),
            "a move cannot be played twice"
        );
    }

    fn result(score: Score) -> WireResult {
        WireResult {
            score,
            sequence: vec![1, 2],
            playouts: 10,
        }
    }

    #[test]
    fn time_extent_honours_the_cycle_floor_and_cycle_extent_is_exact() {
        let mut pass = Pass::<WireResult>::start();
        let zero = Extent::Time(Duration::ZERO);
        for done in 0..MIN_CYCLES {
            assert!(pass.another_cycle(zero), "{done} cycles done");
            assert_eq!(pass.another_cycle(Extent::Cycles(2)), done < 2);
            pass.end_cycle();
        }
        assert!(!pass.another_cycle(zero));
        assert!(pass.another_cycle(Extent::Time(Duration::from_secs(3600))));
    }

    #[test]
    fn a_pass_keeps_first_outputs_and_counts_repeats_that_differ() {
        let mut pass = Pass::start();
        let t = Duration::from_micros(5);
        // First cycle: op 1 fails, ops 0 and 2 complete.
        pass.completed(0, t, result(7));
        pass.failed += 1;
        pass.completed(2, t, result(9));
        pass.end_cycle();
        assert_eq!(pass.next_op(), 3);
        // Second cycle: op 1 completes for the first time, op 2 strays.
        pass.completed(0, t, result(7));
        pass.completed(1, t, result(8));
        pass.completed(2, t, result(4));
        pass.end_cycle();
        assert_eq!((pass.cycles, pass.samples.len(), pass.strays), (2, 5, 1));
        let scores: Vec<Score> = pass.outputs().map(Output::score).collect();
        assert_eq!(
            scores,
            [7, 8, 9],
            "what each op returned first, in cycle order"
        );
        assert_eq!(pass.samples[3].slot, 1);
        assert!(pass.samples.windows(2).all(|w| w[0].end_ns <= w[1].end_ns));
        let mut other = Pass::start();
        (0..3).for_each(|slot| other.completed(slot, t, result(7 + slot as Score)));
        assert_eq!(pass.cycle_digest(), other.cycle_digest());
    }
}
