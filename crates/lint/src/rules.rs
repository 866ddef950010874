//! The invariant catalog, as deny-by-default token-sequence rules.
//!
//! Each rule documents the contract it guards (see ROADMAP "Standing
//! facts"), the paths it applies to, and where it deliberately stays
//! quiet. All rules skip `#[cfg(test)]` regions and test-context paths
//! (`tests/`, `benches/`, `examples/`, fixtures) unless noted — tests
//! are allowed to spawn threads, read clocks, and unwrap.

use crate::lexer::{TokKind, Token};
use crate::Finding;

/// One catalog entry (for `--list-rules` and the README table).
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
}

/// The enforced catalog. `stale-waiver` and `waiver-syntax` are the
/// waiver machinery's own diagnostics: they cannot be waived.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "clock-discipline",
        summary: "Instant::now()/SystemTime only in ctx.rs, metrics.rs (monotonic_now), \
                  and bench — wall clocks feed observability, never results",
    },
    RuleInfo {
        id: "spawn-discipline",
        summary: "no thread::spawn/Builder outside core exec/pool.rs and the engine worker \
                  pool — all parallelism flows through ExecutorPool",
    },
    RuleInfo {
        id: "seed-discipline",
        summary: "no entropy sources, no ad-hoc seed arithmetic — seeds derive only from \
                  logical coordinates via core::seeds",
    },
    RuleInfo {
        id: "panic-discipline",
        summary: "no .unwrap()/.expect() on engine worker/queue/scheduler or executor \
                  paths — a panic there takes a worker (or the pool) down",
    },
    RuleInfo {
        id: "tag-identity",
        summary: "every AlgorithmSpec variant field must be mentioned in tag() — \
                  result-affecting knobs are identity bits",
    },
    RuleInfo {
        id: "hot-path",
        summary: "functions reachable from `nmcs-lint: hot-entry` roots (playout/rollout \
                  core) must not allocate, take locks, read clocks, or print — the \
                  call-graph pass in hotpath.rs, dynamically cross-checked by the \
                  counting allocator in tests/alloc_playout.rs",
    },
    RuleInfo {
        id: "socket-discipline",
        summary: "no std::net sockets anywhere — network I/O exists only at the serve \
                  crate's HTTP edge, and even there every site carries a waiver naming \
                  the boundary it implements",
    },
    RuleInfo {
        id: "lock-discipline",
        summary: "no std::sync::{Mutex,RwLock,Condvar} outside tests — locks go through \
                  vendored parking_lot so the lock-order detector sees them",
    },
    RuleInfo {
        id: "stale-waiver",
        summary: "a waiver whose finding no longer exists is itself an error (not waivable)",
    },
    RuleInfo {
        id: "waiver-syntax",
        summary: "malformed waiver: unknown rule id or missing reason=\"…\" (not waivable)",
    },
];

/// True when `id` names a waivable catalog rule.
pub fn is_waivable_rule(id: &str) -> bool {
    RULES
        .iter()
        .any(|r| r.id == id && r.id != "stale-waiver" && r.id != "waiver-syntax")
}

/// Everything a rule needs about one file.
pub(crate) struct FileCtx<'a> {
    /// Workspace-relative path, forward slashes.
    pub rel: &'a str,
    /// Significant tokens (comments stripped).
    pub toks: &'a [Token],
    /// Parallel to `toks`: inside a `#[cfg(test)]` item.
    pub in_test: &'a [bool],
    /// Path-level test context (tests/, benches/, examples/, fixtures).
    pub is_test_path: bool,
}

impl FileCtx<'_> {
    fn ident(&self, i: usize) -> Option<&str> {
        match &self.toks.get(i)?.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    fn punct(&self, i: usize) -> Option<char> {
        match self.toks.get(i)?.kind {
            TokKind::Punct(c) => Some(c),
            _ => None,
        }
    }

    /// `::` at positions i, i+1.
    fn path_sep(&self, i: usize) -> bool {
        self.punct(i) == Some(':') && self.punct(i + 1) == Some(':')
    }

    fn line(&self, i: usize) -> u32 {
        self.toks[i].line
    }
}

fn starts_with_any(rel: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p))
}

fn finding(ctx: &FileCtx, rule: &'static str, i: usize, message: String) -> Finding {
    Finding {
        rule,
        file: ctx.rel.to_string(),
        line: ctx.line(i),
        message,
        waived: false,
    }
}

/// Runs every catalog rule over one file.
pub(crate) fn run_all(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    clock_discipline(ctx, &mut out);
    spawn_discipline(ctx, &mut out);
    seed_discipline(ctx, &mut out);
    panic_discipline(ctx, &mut out);
    tag_identity(ctx, &mut out);
    socket_discipline(ctx, &mut out);
    lock_discipline(ctx, &mut out);
    out
}

// ---------------------------------------------------------------------
// R1: clock discipline
// ---------------------------------------------------------------------

/// Modules allowed to read the wall clock directly: the budget machinery
/// (`ctx.rs`), the metrics registry (which exports `monotonic_now` as
/// the sanctioned accessor for everyone else), and the bench crate
/// (timing is its whole job).
const CLOCK_ALLOWED: &[&str] = &[
    "crates/core/src/ctx.rs",
    "crates/core/src/metrics.rs",
    "crates/bench/",
];

fn clock_discipline(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.is_test_path || starts_with_any(ctx.rel, CLOCK_ALLOWED) {
        return;
    }
    for i in 0..ctx.toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        if ctx.ident(i) == Some("Instant") && ctx.path_sep(i + 1) && ctx.ident(i + 3) == Some("now")
        {
            out.push(finding(
                ctx,
                "clock-discipline",
                i,
                "raw `Instant::now()` outside the clock-allowlisted modules; use \
                 `nmcs_core::metrics::monotonic_now()` so the call site is visibly \
                 observability-only"
                    .to_string(),
            ));
        }
        if ctx.ident(i) == Some("SystemTime") {
            out.push(finding(
                ctx,
                "clock-discipline",
                i,
                "`SystemTime` is banned everywhere outside bench/tests: wall-clock time \
                 must never influence a search"
                    .to_string(),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// R2: spawn discipline
// ---------------------------------------------------------------------

/// The two sanctioned spawn sites: the core executor pool and the engine
/// worker pool. Everything else inherits parallelism from them.
const SPAWN_ALLOWED: &[&str] = &["crates/core/src/exec/pool.rs", "crates/engine/src/pool.rs"];

fn spawn_discipline(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.is_test_path || starts_with_any(ctx.rel, SPAWN_ALLOWED) {
        return;
    }
    for i in 0..ctx.toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        if ctx.ident(i) == Some("thread")
            && ctx.path_sep(i + 1)
            && matches!(ctx.ident(i + 3), Some("spawn") | Some("Builder"))
        {
            out.push(finding(
                ctx,
                "spawn-discipline",
                i,
                format!(
                    "`thread::{}` outside the executor/engine pools; route the work \
                     through `ExecutorPool` so it shares the warm workers and the \
                     determinism contracts",
                    ctx.ident(i + 3).unwrap_or_default()
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// R3: seed discipline
// ---------------------------------------------------------------------

/// The modules that define seed derivations (and the deterministic RNG).
const SEED_ALLOWED: &[&str] = &["crates/core/src/seeds.rs", "crates/core/src/rng.rs"];

/// Identifiers that smuggle entropy into a run.
const ENTROPY_IDENTS: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "OsRng",
    "getrandom",
    "RandomState",
    "from_os_rng",
];

/// Methods that mark ad-hoc seed arithmetic when called on a seed-named
/// value (`seed.wrapping_add(i)` instead of `seeds::median_seed(...)`).
const SEED_MIX_METHODS: &[&str] = &[
    "wrapping_add",
    "wrapping_mul",
    "wrapping_sub",
    "rotate_left",
    "rotate_right",
];

fn seed_discipline(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.is_test_path || starts_with_any(ctx.rel, SEED_ALLOWED) {
        return;
    }
    for i in 0..ctx.toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        let Some(id) = ctx.ident(i) else { continue };
        if ENTROPY_IDENTS.contains(&id) {
            out.push(finding(
                ctx,
                "seed-discipline",
                i,
                format!(
                    "entropy source `{id}`: seeds must derive from logical coordinates \
                     (`seeds::*`), never from the environment"
                ),
            ));
            continue;
        }
        let seedish = id.to_ascii_lowercase().contains("seed");
        if !seedish {
            continue;
        }
        if ctx.punct(i + 1) == Some('.') {
            if let Some(m) = ctx.ident(i + 2) {
                if SEED_MIX_METHODS.contains(&m) {
                    out.push(finding(
                        ctx,
                        "seed-discipline",
                        i,
                        format!(
                            "ad-hoc seed arithmetic `{id}.{m}(…)`: derive the seed from \
                             its logical coordinates via the `seeds` module instead"
                        ),
                    ));
                }
            }
        } else if ctx.punct(i + 1) == Some('^') {
            out.push(finding(
                ctx,
                "seed-discipline",
                i,
                format!(
                    "ad-hoc seed arithmetic `{id} ^ …`: derive the seed from its logical \
                     coordinates via the `seeds` module instead"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// R4: panic discipline
// ---------------------------------------------------------------------

/// Paths where a panic takes down a worker thread (or wedges a joiner):
/// the whole engine service layer and the core executor. Only these
/// paths are checked — library code returning `Result` may unwrap at
/// API boundaries documented to do so.
const PANIC_CHECKED: &[&str] = &["crates/engine/src/", "crates/core/src/exec"];

fn panic_discipline(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.is_test_path || !starts_with_any(ctx.rel, PANIC_CHECKED) {
        return;
    }
    for i in 0..ctx.toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        if ctx.punct(i) != Some('.') {
            continue;
        }
        if let Some(m @ ("unwrap" | "expect")) = ctx.ident(i + 1) {
            if ctx.punct(i + 2) == Some('(') {
                out.push(finding(
                    ctx,
                    "panic-discipline",
                    i + 1,
                    format!(
                        "`.{m}()` on an engine/executor path: return a typed error, or \
                         fence it and waive with the reason the panic is impossible"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// R5: tag-identity consistency
// ---------------------------------------------------------------------

/// Returns the index range of the balanced `{ … }` group whose opening
/// brace is the first `{` at or after `start`. Range excludes braces.
fn brace_group(ctx: &FileCtx, start: usize) -> Option<(usize, usize)> {
    let mut i = start;
    while ctx.punct(i) != Some('{') {
        if i >= ctx.toks.len() {
            return None;
        }
        i += 1;
    }
    let open = i;
    let mut depth = 0usize;
    for j in open..ctx.toks.len() {
        match ctx.punct(j) {
            Some('{') => depth += 1,
            Some('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some((open + 1, j));
                }
            }
            _ => {}
        }
    }
    None
}

fn tag_identity(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.rel != "crates/core/src/spec.rs" {
        return;
    }
    // Locate `enum AlgorithmSpec { … }`.
    let enum_range = (0..ctx.toks.len()).find_map(|i| {
        (ctx.ident(i) == Some("enum") && ctx.ident(i + 1) == Some("AlgorithmSpec"))
            .then(|| brace_group(ctx, i + 2))
            .flatten()
    });
    // Locate `fn tag … { … }`.
    let tag_range = (0..ctx.toks.len()).find_map(|i| {
        (ctx.ident(i) == Some("fn") && ctx.ident(i + 1) == Some("tag"))
            .then(|| brace_group(ctx, i + 2))
            .flatten()
    });
    let (Some((es, ee)), Some((ts, te))) = (enum_range, tag_range) else {
        out.push(Finding {
            rule: "tag-identity",
            file: ctx.rel.to_string(),
            line: 1,
            message: "could not locate `enum AlgorithmSpec` and `fn tag` — the \
                      tag-identity cross-reference cannot run; fix the rule or the code"
                .to_string(),
            waived: false,
        });
        return;
    };
    let tag_idents: std::collections::HashSet<&str> =
        (ts..te).filter_map(|i| ctx.ident(i)).collect();

    // (a) Every variant field ident must be mentioned in tag(). Fields
    // are idents directly followed by `:` (not `::`) at depth 1 inside a
    // variant's brace group (depth 1 relative to the enum body).
    let mut depth = 0usize;
    for i in es..ee {
        match ctx.punct(i) {
            Some('{') => depth += 1,
            Some('}') => depth = depth.saturating_sub(1),
            _ => {}
        }
        if depth != 1 {
            continue;
        }
        let Some(field) = ctx.ident(i) else { continue };
        if ctx.punct(i + 1) != Some(':') || ctx.punct(i + 2) == Some(':') {
            continue;
        }
        if !tag_idents.contains(field) {
            out.push(finding(
                ctx,
                "tag-identity",
                i,
                format!(
                    "`AlgorithmSpec` field `{field}` is never mentioned in `tag()`: every \
                     result-affecting knob must be an identity bit (bind it `_` with a \
                     comment only if provably identity-free)"
                ),
            ));
        }
    }

    // (b) Every serde field key in `impl Serialize for AlgorithmSpec`
    // must be mentioned in tag() — catches a knob serialised for replay
    // but forgotten in the identity digest.
    let ser_range = (0..ctx.toks.len()).find_map(|i| {
        (ctx.ident(i) == Some("impl")
            && ctx.ident(i + 1) == Some("Serialize")
            && ctx.ident(i + 2) == Some("for")
            && ctx.ident(i + 3) == Some("AlgorithmSpec"))
        .then(|| brace_group(ctx, i + 4))
        .flatten()
    });
    if let Some((ss, se)) = ser_range {
        for i in ss..se {
            let TokKind::Str(key) = &ctx.toks[i].kind else {
                continue;
            };
            if ctx.punct(i + 1) != Some('.') || ctx.ident(i + 2) != Some("to_string") {
                continue;
            }
            if key == "kind" || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                continue;
            }
            if !tag_idents.contains(key.as_str()) {
                out.push(finding(
                    ctx,
                    "tag-identity",
                    i,
                    format!(
                        "serde field \"{key}\" of `AlgorithmSpec` is never mentioned in \
                         `tag()`: a knob that round-trips for replay must be an identity bit"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// R6: socket discipline
// ---------------------------------------------------------------------

/// Socket types whose mere mention (as `net::…`) marks network I/O. No
/// path is allowlisted: the serve crate's HTTP edge waives each site
/// individually, so every socket in the workspace is accounted for by a
/// written reason rather than a directory exemption.
const SOCKET_TYPES: &[&str] = &[
    "TcpListener",
    "TcpStream",
    "UdpSocket",
    "UnixListener",
    "UnixStream",
    "UnixDatagram",
];

fn socket_discipline(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.is_test_path {
        return;
    }
    for i in 0..ctx.toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        if ctx.ident(i) != Some("net") || !ctx.path_sep(i + 1) {
            continue;
        }
        let report = |out: &mut Vec<Finding>, at: usize, t: &str| {
            out.push(finding(
                ctx,
                "socket-discipline",
                at,
                format!(
                    "raw socket `{t}`: network I/O lives only at the serve crate's HTTP \
                     edge, and each site there must carry a waiver naming the boundary \
                     it implements"
                ),
            ));
        };
        // Grouped import: `use std::net::{SocketAddr, TcpStream, …};`
        if ctx.punct(i + 3) == Some('{') {
            let mut j = i + 4;
            while j < ctx.toks.len() && ctx.punct(j) != Some('}') {
                if let Some(t) = ctx.ident(j) {
                    if SOCKET_TYPES.contains(&t) {
                        report(out, j, t);
                    }
                }
                j += 1;
            }
        } else if let Some(t) = ctx.ident(i + 3) {
            // Single import or qualified use: `std::net::TcpStream`.
            if SOCKET_TYPES.contains(&t) {
                report(out, i + 3, t);
            }
        }
    }
}

// ---------------------------------------------------------------------
// R7: lock discipline
// ---------------------------------------------------------------------

/// Lock types that must come from vendored `parking_lot`, where the
/// debug-build lock-order detector can see every acquisition.
const STD_LOCKS: &[&str] = &[
    "Mutex",
    "RwLock",
    "Condvar",
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
];

fn lock_discipline(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.is_test_path {
        return;
    }
    for i in 0..ctx.toks.len() {
        if ctx.in_test[i] {
            continue;
        }
        // Qualified use: `… sync :: Mutex`.
        if ctx.ident(i) == Some("sync") && ctx.path_sep(i + 1) {
            if let Some(t) = ctx.ident(i + 3) {
                if STD_LOCKS.contains(&t) {
                    out.push(finding(
                        ctx,
                        "lock-discipline",
                        i + 3,
                        format!(
                            "`std::sync::{t}` bypasses the lock-order deadlock detector; \
                             use vendored `parking_lot::{t}`"
                        ),
                    ));
                }
            }
        }
        // Import: `use std :: sync :: { …, Mutex, … };`
        if ctx.ident(i) == Some("use")
            && ctx.ident(i + 1) == Some("std")
            && ctx.path_sep(i + 2)
            && ctx.ident(i + 4) == Some("sync")
        {
            let mut j = i + 5;
            while j < ctx.toks.len() && ctx.punct(j) != Some(';') {
                if let Some(t) = ctx.ident(j) {
                    // Skip the `sync::Mutex` shape already reported above.
                    if STD_LOCKS.contains(&t) && !(j == i + 7 && ctx.path_sep(i + 5)) {
                        out.push(finding(
                            ctx,
                            "lock-discipline",
                            j,
                            format!(
                                "importing `std::sync::{t}` bypasses the lock-order \
                                 deadlock detector; import it from vendored `parking_lot`"
                            ),
                        ));
                    }
                }
                j += 1;
            }
        }
    }
}
