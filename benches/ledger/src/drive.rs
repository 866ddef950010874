//! One run of one workload in this process: set-up, the measured pass,
//! output checks, and — in the traced pass — the per-layer probes.

use crate::layers;
use crate::names::{END_TO_END, PER_LAYER};
use crate::stats::{percentile_sorted, sorted};
use crate::trace::{self, Tracer};
use crate::workloads::{
    Extent, NmcsMorpion, OneShotRun, OpSample, Output, Pass, PnmcsRootParallel, ServeJobs,
    UctColdSamegame, UctWarmSessions, Workload,
};
use serde::Value;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Set-up runs this many times before the timed pass and as many times
/// after it; `setup_s` is the fastest of them.
const SETUP_REPEATS: usize = 8;
/// What one run reports: the contract's four keys plus free-form facts
/// (`info`) printed above the result line.
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order of the metric tables.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub info: Vec<(&'static str, String)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::F64(value)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::U64(self.attempted)),
            ("failed".to_string(), Value::U64(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The timing metrics of one pass.
///
/// This box shares its cores: single-thread speed flips between two
/// levels about 1.6x apart every few seconds, two busy threads see it
/// worse, and some half hours are slow throughout; no code change causes
/// or cures that. Means and medians over a whole pass land between the
/// levels and repeat badly. But a pass runs the same cycle of ops again
/// and again, so each op of the cycle has one timing per repeat that
/// differ only by what the box did meanwhile. The op's *quiet* timing is
/// the [`QUIET_SHARE`] quantile of them — the time it takes while nothing
/// else holds the cores, found wherever in the pass the quiet moments
/// fell — and the metrics are those of one cycle of quiet ops.
#[derive(Debug, PartialEq)]
struct Timings {
    /// Ops of the cycle over the sum of their quiet periods (a period
    /// runs from the previous op's end to this op's end, so it counts
    /// what the client does between two ops as well).
    ops_per_s: f64,
    playouts_per_s: f64,
    /// Median over the cycle's ops of their quiet latencies.
    p50_ms: f64,
}

/// Which of an op's repeats counts as quiet: the one a tenth of the way
/// up from the fastest. Not the fastest itself, which is the luckiest
/// interleaving of the threads and the barest cache, not the usual one,
/// and spread most from run to run; and not much higher, or a busy
/// neighbour reaches it (with one spinning two seconds in five, ten runs
/// of `pnmcs-root-parallel` spread 3.6 % at a tenth, 7.6 % at three
/// tenths and 11 % at the median).
const QUIET_SHARE: f64 = 0.1;

fn quiet(mut repeats: Vec<u64>) -> f64 {
    repeats.sort_unstable();
    repeats[((repeats.len() - 1) as f64 * QUIET_SHARE) as usize] as f64
}

fn timings<O: Output>(pass: &Pass<O>) -> Timings {
    let cycle_playouts = pass.outputs().map(Output::playouts).sum();
    timings_of(&pass.samples, cycle_playouts)
}

/// `samples` are in completion order.
fn timings_of(samples: &[OpSample], cycle_playouts: u64) -> Timings {
    let cycle_ops = samples
        .iter()
        .map(|s| s.slot as usize + 1)
        .max()
        .unwrap_or(0);
    let mut latency_ns = vec![Vec::new(); cycle_ops];
    let mut period_ns = vec![Vec::new(); cycle_ops];
    let mut opened = 0;
    for s in samples {
        let slot = s.slot as usize;
        latency_ns[slot].push(s.latency_ns);
        period_ns[slot].push(s.end_ns - opened);
        opened = s.end_ns;
    }
    assert!(
        latency_ns.iter().all(|repeats| !repeats.is_empty()),
        "a pass completes every op of its cycle at least once"
    );
    let cycle_s: f64 = period_ns.into_iter().map(|r| quiet(r) / 1e9).sum();
    let quiet_ms: Vec<f64> = latency_ns.into_iter().map(|r| quiet(r) / 1e6).collect();
    Timings {
        ops_per_s: cycle_ops as f64 / cycle_s,
        playouts_per_s: cycle_playouts as f64 / cycle_s,
        p50_ms: percentile_sorted(&sorted(&quiet_ms), 0.50)
            .expect("a cycle holds at least 50 ops")
            .0,
    }
}

/// p95 latency over every op of the pass as it ran, slow spells and
/// all: what the tail was, not what the code alone would make it.
fn p95_ms(samples: &[OpSample]) -> f64 {
    let latency_ms: Vec<f64> = samples.iter().map(|s| s.latency_ns as f64 / 1e6).collect();
    percentile_sorted(&sorted(&latency_ms), 0.95)
        .expect("a pass holds at least 200 ops, ten beyond its p95")
        .0
}

fn common_info<W: Workload>(workload: &W, pass: &Pass<W::Output>) -> Vec<(&'static str, String)> {
    let n = pass.samples.len() as f64;
    let wall = pass.wall.as_secs_f64();
    let cycle_playouts: u64 = pass.outputs().map(Output::playouts).sum();
    let mut info = vec![
        ("ops", pass.samples.len().to_string()),
        ("cycles", pass.cycles.to_string()),
        ("cycle_ops", pass.first.len().to_string()),
        ("cycle_playouts", cycle_playouts.to_string()),
        ("timed_wall_s", format!("{wall:.3}")),
        ("whole_pass_ops_per_s", format!("{:.3}", n / wall)),
        ("cycle_digest", format!("{:016x}", pass.cycle_digest())),
    ];
    info.extend(workload.notes());
    info
}

fn timed_setups<W: Workload>(seed: u64, setup_s: &mut Vec<f64>) -> W {
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous instance down outside the timed set-up.
        drop(workload.take());
        let t = Instant::now();
        workload = Some(W::setup(seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    workload.expect("SETUP_REPEATS > 0")
}

fn untraced<W: Workload>(seed: u64, seconds: u64) -> RunResult {
    let mut setup_s = Vec::new();
    let mut workload: W = timed_setups(seed, &mut setup_s);
    let pass = workload.measure(
        Extent::Time(Duration::from_secs(seconds)),
        &mut Tracer::disabled(),
    );
    let peak_rss = peak_rss_mb();
    let check_failures = workload.verify(&pass) + pass.strays;
    let mut info = common_info(&workload, &pass);
    drop(workload);
    // Again after the pass, some seconds later, so at least one set-up
    // is likely to fall in a quiet spell.
    drop(timed_setups::<W>(seed, &mut setup_s));

    let n = pass.samples.len() as f64;
    let t = timings(&pass);
    let scores: Vec<f64> = pass.outputs().map(|o| o.score() as f64).collect();
    let value = |name: &str| match name {
        "setup_s" => sorted(&setup_s)[0],
        "ops_per_s" => t.ops_per_s,
        "playouts_per_s" => t.playouts_per_s,
        "op_p50_ms" => t.p50_ms,
        "ok_share" => 1.0 - (pass.failed + check_failures) as f64 / (n + pass.failed as f64),
        "mean_score" => scores.iter().sum::<f64>() / scores.len() as f64,
        "peak_rss_mb" => peak_rss,
        other => unreachable!("no formula for end-to-end metric {other}"),
    };
    info.push(("op_p95_ms", format!("{:.4}", p95_ms(&pass.samples))));
    info.push(("setup_samples_s", format!("{setup_s:.3?}")));
    RunResult {
        attempted: pass.samples.len() as u64 + pass.failed,
        failed: pass.failed + check_failures,
        metrics: END_TO_END
            .iter()
            .map(|def| (def.name, value(def.name), def.unit))
            .collect(),
        info,
    }
}

/// Where the traced pass writes its spans, relative to the directory
/// the benchmark is run from (the repo root).
pub const TRACE_DIR: &str = "benches/ledger/out";

fn traced<W: Workload>(seed: u64, seconds: u64) -> RunResult {
    let mut workload = W::setup(seed);
    // The same ops twice: untraced for half the run length, then traced
    // op for op, so the overhead compares equal work.
    let half = Duration::from_secs(seconds).div_f64(2.0);
    let plain = workload.measure(Extent::Time(half), &mut Tracer::disabled());
    let mut tracer = Tracer::recording();
    let pass = workload.measure(Extent::Cycles(plain.cycles), &mut tracer);
    let check_failures = workload.verify(&pass) + pass.strays;
    let mut info = common_info(&workload, &pass);
    drop(workload);

    // Only the workload's ops are spans named `op`, so the share is
    // theirs whatever the probes record afterwards.
    let harness_self_share = layers::harness_self_share(tracer.spans());
    let mut values = layers::run_all(seed, &mut tracer);
    values.insert(
        "trace.overhead_share",
        timings(&plain).ops_per_s / timings(&pass).ops_per_s - 1.0,
    );
    values.insert("pass.op_p95_ms", p95_ms(&plain.samples));
    values.insert("trace.harness_self_share", harness_self_share);
    let spans = tracer.spans();
    values.insert("trace.spans", spans.len() as f64);

    let path = format!("{TRACE_DIR}/trace-{}.json", W::NAME);
    std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            trace::write_json(W::NAME, spans, &mut out)?;
            out.flush()
        })
        .unwrap_or_else(|e| panic!("write {path}: {e}"));

    let ladder_mismatches = values["ladder.mismatches"] as u64;
    info.push(("trace_file", path));
    RunResult {
        attempted: pass.samples.len() as u64 + pass.failed,
        failed: pass.failed + check_failures + ladder_mismatches,
        metrics: PER_LAYER
            .iter()
            .map(|def| {
                let value = *values
                    .get(def.name)
                    .unwrap_or_else(|| panic!("no probe produced {}", def.name));
                (def.name, value, def.unit)
            })
            .collect(),
        info,
    }
}

fn run<W: Workload>(seed: u64, seconds: u64, trace: bool) -> RunResult {
    // Read before a workload narrows the process to one CPU.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut result = if trace {
        traced::<W>(seed, seconds)
    } else {
        untraced::<W>(seed, seconds)
    };
    result.info.insert(0, ("nproc", nproc.to_string()));
    result
}

/// Runs workload `name`; `None` for a name the benchmark does not have.
pub fn run_workload(name: &str, seed: u64, seconds: u64, trace: bool) -> Option<RunResult> {
    Some(match name {
        "nmcs-morpion" => run::<OneShotRun<NmcsMorpion>>(seed, seconds, trace),
        "pnmcs-root-parallel" => run::<OneShotRun<PnmcsRootParallel>>(seed, seconds, trace),
        "uct-cold-samegame" => run::<OneShotRun<UctColdSamegame>>(seed, seconds, trace),
        "uct-warm-sessions" => run::<UctWarmSessions>(seed, seconds, trace),
        "serve-jobs" => run::<ServeJobs>(seed, seconds, trace),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `cycles` runs of a `cycle_ops`-op cycle, back to back; op `slot`
    /// of cycle `c` takes `latency_ns(c, slot)`.
    fn pass(cycles: u64, cycle_ops: u64, latency_ns: impl Fn(u64, u64) -> u64) -> Vec<OpSample> {
        let mut end_ns = 0;
        let mut samples = Vec::new();
        for c in 0..cycles {
            for slot in 0..cycle_ops {
                end_ns += latency_ns(c, slot);
                samples.push(OpSample {
                    slot: slot as u32,
                    end_ns,
                    latency_ns: latency_ns(c, slot),
                });
            }
        }
        samples
    }

    #[test]
    fn a_steady_pass_reports_its_plain_rate_and_latency() {
        let steady = pass(20, 50, |_, _| 1_000_000);
        let t = timings_of(&steady, 500);
        assert!((t.ops_per_s - 1000.0).abs() < 1e-6);
        assert!((t.playouts_per_s - 10_000.0).abs() < 1e-6);
        assert_eq!(t.p50_ms, 1.0);
        assert_eq!(p95_ms(&steady), 1.0);
    }

    #[test]
    fn quiet_repeats_are_found_wherever_they_fall() {
        // Every op runs 1.6x slow except in three cycles of twenty, which
        // are not next to each other: the quiet level is reported.
        let quiet_cycles = [2, 9, 17];
        let ran = pass(20, 50, |c, slot| {
            let own = 1_000_000 + slot * 10_000;
            if quiet_cycles.contains(&c) {
                own
            } else {
                own * 8 / 5
            }
        });
        let t = timings_of(&ran, 500);
        let cycle_s = (0..50).map(|slot| 1e-3 + slot as f64 * 1e-5).sum::<f64>();
        assert!((t.ops_per_s - 50.0 / cycle_s).abs() < 1e-6, "{t:?}");
        assert_eq!(t.p50_ms, 1.24, "median over the cycle's own ops");
        // The tail is reported as it ran.
        assert!(
            p95_ms(&pass(20, 50, |c, _| if c < 18 {
                1_600_000
            } else {
                1_000_000
            })) > 1.5
        );
    }

    #[test]
    fn the_quiet_repeat_is_a_tenth_of_the_way_up() {
        assert_eq!(quiet((1..=101).rev().collect()), 11.0);
        assert_eq!(quiet(vec![7, 5, 9, 8]), 5.0, "four repeats: the fastest");
        assert_eq!(quiet(vec![3]), 3.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            attempted: 3,
            failed: 1,
            metrics: vec![("ops_per_s", 2.5, "1/s")],
            info: Vec::new(),
        };
        let json = serde_json::to_string(&r.to_json()).unwrap();
        assert_eq!(
            json,
            r#"{"correct":false,"attempted":3,"failed":1,"metrics":{"ops_per_s":{"value":2.5,"unit":"1/s"}}}"#
        );
    }
}
