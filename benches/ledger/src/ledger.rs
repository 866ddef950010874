//! Full sets of runs, the ledger file they produce, and the comparison
//! of two ledgers.
//!
//! A set runs every workload in a fresh child process of this binary,
//! so peak memory, the process-wide executor pool and the global
//! metrics registry never leak from one workload into the next.

use crate::names::{MetricDef, END_TO_END};
use crate::stats::{median, quartiles, relative_iqr, verdict, Better, Verdict};
use crate::workloads::WORKLOADS;
use serde::Value;
use std::process::{Command, ExitCode, Stdio};

const SCHEMA: &str = "nmcs-ledger/1";
const MANIFEST: &str = "BENCHMARK.json";

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn text(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get_field(key) {
        Some(Value::Array(rows)) => rows,
        _ => &[],
    }
}

fn manifest() -> Option<Value> {
    serde_json::from_str(&std::fs::read_to_string(MANIFEST).ok()?).ok()
}

/// First line of a helper command's output, or "unknown" (the driver's
/// checkout, for one, is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload in a child process and returns its section of the
/// ledger: the result line plus the `# key value` facts above it.
fn child(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload}: child exited with {}\n{stdout}",
            output.status
        ));
    }
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: no output"))?;
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let info = lines
        .iter()
        .filter_map(|l| l.strip_prefix("# "))
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), text(v)))
        .collect();
    for line in &lines {
        println!("  {line}");
    }
    let Value::Object(mut fields) = result else {
        return Err(format!("{workload}: result line is not an object"));
    };
    fields.push(("info".to_string(), Value::Object(info)));
    Ok(Value::Object(fields))
}

fn failures(section: &Value) -> u64 {
    let failed = section.get_field("failed").and_then(number).unwrap_or(1.0) as u64;
    let correct = section.get_field("correct") == Some(&Value::Bool(true));
    failed + u64::from(!correct && failed == 0)
}

/// `values[workload][metric]`: one value per run, in run order.
fn collect(ledger: &Value, pass: &str, workload: &str, metric: &str) -> Vec<f64> {
    array(ledger, "runs")
        .iter()
        .flat_map(|run| array(run, "workloads"))
        .filter(|w| w.get_field("name") == Some(&text(workload)))
        .filter_map(|w| {
            number(
                w.get_field(pass)?
                    .get_field("metrics")?
                    .get_field(metric)?
                    .get_field("value")?,
            )
        })
        .collect()
}

/// Medians, quartiles and spread of every end-to-end metric over the
/// runs of `ledger`, and the regression bound those spreads ask for:
/// max(3 × relative IQR, 0.03) over the workloads.
fn print_spreads(ledger: &Value) {
    println!(
        "\n{:<16} {:<22} {:>14} {:>14} {:>14} {:>8}",
        "metric", "workload", "median", "q1", "q3", "iqr/med"
    );
    for def in &END_TO_END {
        let mut widest = 0.0f64;
        for (workload, _) in WORKLOADS {
            let values = collect(ledger, "untraced", workload, def.name);
            let (Some(m), Some((q1, q3))) = (median(&values), quartiles(&values)) else {
                continue;
            };
            let spread = relative_iqr(&values);
            widest = widest.max(spread);
            println!(
                "{:<16} {:<22} {m:>14.4} {q1:>14.4} {q3:>14.4} {spread:>8.4}",
                def.name, workload
            );
        }
        println!(
            "{:<16} bound from these runs: max(3 x {widest:.4}, 0.03) = {:.3}",
            def.name,
            (3.0 * widest).max(0.03)
        );
    }
}

pub fn run_sets(
    seeds: &[u64],
    seconds: Option<u64>,
    traced: bool,
    out: Option<&str>,
) -> Result<ExitCode, String> {
    let seconds = seconds
        .or_else(|| {
            manifest()?
                .get_field("run_seconds")
                .and_then(number)
                .map(|s| s as u64)
        })
        .unwrap_or(10);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let git_rev = tool_line("git", &["rev-parse", "HEAD"]);
    let rustc = tool_line("rustc", &["--version"]);
    println!("ledger: nproc {nproc}, git {git_rev}, {rustc}, {seconds} s per run");

    let mut failed = 0u64;
    let mut runs = Vec::new();
    for &seed in seeds {
        let mut sections = Vec::new();
        for (workload, _) in WORKLOADS {
            println!("{workload} (seed {seed})");
            let untraced = child(workload, seed, seconds, false)?;
            failed += failures(&untraced);
            let mut fields = vec![("name", text(workload)), ("untraced", untraced)];
            if traced {
                println!("{workload} (seed {seed}, traced)");
                let section = child(workload, seed, seconds, true)?;
                failed += failures(&section);
                fields.push(("traced", section));
            }
            sections.push(obj(fields));
        }
        runs.push(obj(vec![
            ("seed", Value::U64(seed)),
            ("workloads", Value::Array(sections)),
        ]));
    }
    let ledger = obj(vec![
        ("schema", text(SCHEMA)),
        ("git_rev", text(git_rev)),
        ("rustc", text(rustc)),
        ("nproc", Value::U64(nproc as u64)),
        ("seconds", Value::U64(seconds)),
        ("runs", Value::Array(runs)),
    ]);
    if seeds.len() > 1 {
        print_spreads(&ledger);
    }
    if let Some(path) = out {
        let json = serde_json::to_string_pretty(&ledger).map_err(|e| e.to_string())?;
        std::fs::write(path, json + "\n").map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if failed > 0 {
        eprintln!("ledger: {failed} failed operations or checks");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn load(path: &str) -> Result<Value, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let ledger: Value = serde_json::from_str(&raw).map_err(|e| format!("parse {path}: {e}"))?;
    if ledger.get_field("schema") != Some(&text(SCHEMA)) {
        return Err(format!("{path}: not a {SCHEMA} file"));
    }
    Ok(ledger)
}

/// The regression bound of each end-to-end metric, from the manifest.
fn bound(manifest: &Value, def: &MetricDef) -> Option<f64> {
    array(manifest, "end_to_end")
        .iter()
        .find(|row| row.get_field("name") == Some(&text(def.name)))
        .and_then(|row| row.get_field("bound"))
        .and_then(number)
}

/// `(seed, workload) → cycle digest` of a ledger's untraced runs.
fn digests(ledger: &Value) -> Vec<((u64, String), String)> {
    let mut out = Vec::new();
    for run in array(ledger, "runs") {
        let seed = run.get_field("seed").and_then(number).unwrap_or(0.0) as u64;
        for w in array(run, "workloads") {
            let digest = w
                .get_field("untraced")
                .and_then(|u| u.get_field("info"))
                .and_then(|i| i.get_field("cycle_digest"));
            if let (Some(Value::Str(name)), Some(Value::Str(d))) = (w.get_field("name"), digest) {
                out.push(((seed, name.clone()), d.clone()));
            }
        }
    }
    out
}

/// Judges ledger `change` against ledger `parent`: one row per
/// end-to-end metric and workload, by the bound `BENCHMARK.json` fixes.
/// Exits nonzero on a regression, a failed operation, or outputs that
/// differ on a seed both ledgers ran.
pub fn compare(parent: &str, change: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(parent)?, load(change)?);
    let manifest =
        manifest().ok_or(format!("{MANIFEST} not found here; run from the repo root"))?;
    println!(
        "{:<16} {:<22} {:>13} {:>13} {:>8} {:>7} {:>7}  verdict",
        "metric", "workload", "parent", "change", "worse%", "iqr%", "bound%"
    );
    let mut regressed = 0;
    for def in &END_TO_END {
        let bound =
            bound(&manifest, def).ok_or(format!("{MANIFEST}: no bound for {}", def.name))?;
        for (workload, _) in WORKLOADS {
            let va = collect(&a, "untraced", workload, def.name);
            let vb = collect(&b, "untraced", workload, def.name);
            let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
                return Err(format!("{}/{workload}: missing from a ledger", def.name));
            };
            let worse = match def.better {
                Better::Lower => (mb - ma) / ma.abs(),
                Better::Higher => (ma - mb) / ma.abs(),
            };
            let spread = relative_iqr(&va).max(relative_iqr(&vb));
            let v = verdict(&va, &vb, def.better, bound);
            regressed += u32::from(v == Verdict::Regressed);
            println!(
                "{:<16} {:<22} {ma:>13.4} {mb:>13.4} {:>8.2} {:>7.2} {:>7.2}  {}",
                def.name,
                workload,
                worse * 100.0,
                spread * 100.0,
                bound * 100.0,
                v.label()
            );
        }
    }
    let db = digests(&b);
    let mut shared = 0;
    let mut differing = 0;
    for (key, da) in digests(&a) {
        if let Some((_, d)) = db.iter().find(|(k, _)| *k == key) {
            shared += 1;
            if *d != da {
                differing += 1;
                println!("outputs differ: seed {} {}: {da} vs {d}", key.0, key.1);
            }
        }
    }
    println!("outputs of the cycle's ops, per shared seed and workload: {shared} compared, {differing} differ");
    let failed: u64 = [&a, &b]
        .iter()
        .flat_map(|l| array(l, "runs"))
        .flat_map(|run| array(run, "workloads"))
        .filter_map(|w| w.get_field("untraced"))
        .map(failures)
        .sum();
    println!("regressed: {regressed}; failed operations or checks: {failed}");
    Ok(if regressed > 0 || differing > 0 || failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
