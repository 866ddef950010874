//! `tables` — regenerates the paper's tables and figures.
//!
//! ```text
//! tables                         # everything at paper scale (default)
//! tables --table 2               # just Table II
//! tables --table 6               # Table VI (heterogeneous)
//! tables --figure 1              # Figure 1 analogue
//! tables --ablations             # A1/A2/A4/A5
//! tables --scale real --table 2  # real recorded level-2 traces
//! tables --seed 42 --out target/experiments
//! tables --spec '{"algorithm":{"kind":"nested","level":2},"budget":{"deadline_ms":200},"seed":42}' --game samegame
//! tables --serve [--soak-small]  # HTTP front-door soak (nonzero exit on any violated invariant)
//! tables --serve --sessions      # soak plus the session-churn phase (quota, TTL table, eviction plateau)
//! tables --reuse                 # equal-budget warm-tree reuse-on vs reuse-off comparison
//! tables --service               # latency-SLO + dead-letter report through the engine
//! ```
//!
//! `--spec` runs any `SearchSpec` JSON at any width (see
//! `nmcs_bench::spec_cli`); `--game` picks the stock game it runs on.
//! Throughput and overhead are not measured here: `benches/ledger` is
//! the workspace's one measurement system.

use nmcs_bench::experiments::{Experiments, Scale};
use nmcs_core::SearchSpec;
use nmcs_serve::wire;
use parallel_nmcs::{DispatchPolicy, RunMode};
use std::path::PathBuf;

struct Args {
    table: Option<u32>,
    figure: bool,
    ablations: bool,
    reuse: bool,
    service: bool,
    spec: Option<SearchSpec>,
    game: String,
    serve: bool,
    soak_small: bool,
    sessions: bool,
    scale: Scale,
    seed: u64,
    out: PathBuf,
    all: bool,
}

fn usage() -> String {
    format!(
        "tables [--table N] [--figure 1] [--ablations] [--reuse] [--service] \
         [--serve [--soak-small] [--sessions]] [--spec JSON [--game {}]] \
         [--scale paper|real] [--seed S] [--out DIR]",
        wire::GAMES.join("|")
    )
}

/// Parses the command line; `Err` carries what was wrong with it.
fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        table: None,
        figure: false,
        ablations: false,
        reuse: false,
        service: false,
        spec: None,
        game: "samegame".to_string(),
        serve: false,
        soak_small: false,
        sessions: false,
        scale: Scale::Paper,
        seed: 2009,
        out: PathBuf::from("target/experiments"),
        all: true,
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--table" => {
                let n: u32 = number(&mut it, "--table")?;
                if !(1..=6).contains(&n) {
                    return Err(format!("no table {n} (1..=6)"));
                }
                args.table = Some(n);
                args.all = false;
            }
            "--figure" => {
                let n: u32 = number(&mut it, "--figure")?;
                if n != 1 {
                    return Err(format!("no figure {n} (1)"));
                }
                args.figure = true;
                args.all = false;
            }
            "--ablations" => {
                args.ablations = true;
                args.all = false;
            }
            "--reuse" => {
                args.reuse = true;
                args.all = false;
            }
            "--service" => {
                args.service = true;
                args.all = false;
            }
            "--spec" => {
                let json = value(&mut it, "--spec")?;
                let spec = serde_json::from_str(&json)
                    .map_err(|e| format!("--spec JSON did not parse: {e}"))?;
                args.spec = Some(spec);
                args.all = false;
            }
            "--serve" => {
                args.serve = true;
                args.all = false;
            }
            "--soak-small" => args.soak_small = true,
            "--sessions" => args.sessions = true,
            "--game" => {
                args.game = value(&mut it, "--game")?;
                if !wire::GAMES.contains(&args.game.as_str()) {
                    return Err(format!(
                        "unknown game '{}' ({})",
                        args.game,
                        wire::GAMES.join("|")
                    ));
                }
            }
            "--scale" => {
                args.scale = match value(&mut it, "--scale")?.as_str() {
                    "paper" => Scale::Paper,
                    "real" => Scale::Real,
                    other => return Err(format!("unknown scale '{other}' (paper|real)")),
                };
            }
            "--seed" => args.seed = number(&mut it, "--seed")?,
            "--out" => args.out = PathBuf::from(value(&mut it, "--out")?),
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn number<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let raw = value(it, flag)?;
    raw.parse()
        .map_err(|_| format!("{flag} needs a number, got '{raw}'"))
}

/// Refuses the command line: the problem and the usage line on stderr,
/// exit code 2.
fn refuse(problem: &str) -> ! {
    eprintln!("tables: {problem}");
    eprintln!("usage: {}", usage());
    std::process::exit(2);
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|problem| refuse(&problem));

    // The soak needs no calibration: it drives the HTTP front
    // door and panics (nonzero exit) on any violated invariant.
    if args.serve {
        let (_, table) = nmcs_bench::serve_soak(args.soak_small, args.seed);
        println!("{}", table.render());
        if args.sessions {
            println!("{}", nmcs_bench::session_churn(args.seed).render());
        }
        return;
    }

    // The reuse comparison needs no calibration: both arms are
    // deterministic width-1 UCT sessions, and the sweep itself asserts
    // the reuse-on mean never falls below reuse-off.
    if args.reuse {
        let rows = nmcs_bench::reuse_sweep(args.seed);
        println!("{}", nmcs_bench::reuse_table(&rows).render());
        nmcs_bench::persist(&args.out, "warm_reuse", &rows).expect("persist reuse rows");
        return;
    }

    // Spec replay needs no calibration: run, render, done.
    if let Some(spec) = &args.spec {
        let table =
            nmcs_bench::run_spec_on(spec, &args.game).unwrap_or_else(|problem| refuse(&problem));
        println!("{}", table.render());
        return;
    }

    // Calibration takes minutes and only the table, figure and ablation
    // modes read it, so it runs when the first of them asks for it.
    let e = std::cell::LazyCell::new(|| {
        eprintln!("calibrating on this machine…");
        let e = Experiments::new(args.seed, args.out.clone());
        eprintln!(
            "calibration: {:.0} ns/work-unit, mean playout {:.1} moves, level ratio x{:.0}\n",
            e.cal.ns_per_unit, e.cal.mean_playout_len, e.cal.level_ratio
        );
        e
    });

    let run_table = |n: u32| match (n, args.scale) {
        (1, _) => println!("{}", e.table1().render()),
        (2, Scale::Paper) => {
            println!(
                "{}",
                e.paper_sweep(2, DispatchPolicy::RoundRobin, RunMode::FirstMove, 3)
                    .render()
            );
            println!(
                "{}",
                e.paper_sweep(2, DispatchPolicy::RoundRobin, RunMode::FirstMove, 4)
                    .render()
            );
        }
        (3, Scale::Paper) => {
            println!(
                "{}",
                e.paper_sweep(3, DispatchPolicy::RoundRobin, RunMode::FullGame, 3)
                    .render()
            );
            println!(
                "{}",
                e.paper_sweep(3, DispatchPolicy::RoundRobin, RunMode::FullGame, 4)
                    .render()
            );
        }
        (4, Scale::Paper) => {
            println!(
                "{}",
                e.paper_sweep(4, DispatchPolicy::LastMinute, RunMode::FirstMove, 3)
                    .render()
            );
            println!(
                "{}",
                e.paper_sweep(4, DispatchPolicy::LastMinute, RunMode::FirstMove, 4)
                    .render()
            );
        }
        (5, Scale::Paper) => {
            println!(
                "{}",
                e.paper_sweep(5, DispatchPolicy::LastMinute, RunMode::FullGame, 3)
                    .render()
            );
            println!(
                "{}",
                e.paper_sweep(5, DispatchPolicy::LastMinute, RunMode::FullGame, 4)
                    .render()
            );
        }
        (6, _) => {
            println!("{}", e.table6(3).render());
            println!("{}", e.table6(4).render());
        }
        (2, Scale::Real) => {
            println!(
                "{}",
                e.real_sweep(DispatchPolicy::RoundRobin, RunMode::FirstMove)
                    .render()
            )
        }
        (3, Scale::Real) => {
            println!(
                "{}",
                e.real_sweep(DispatchPolicy::RoundRobin, RunMode::FullGame)
                    .render()
            )
        }
        (4, Scale::Real) => {
            println!(
                "{}",
                e.real_sweep(DispatchPolicy::LastMinute, RunMode::FirstMove)
                    .render()
            )
        }
        (5, Scale::Real) => {
            println!(
                "{}",
                e.real_sweep(DispatchPolicy::LastMinute, RunMode::FullGame)
                    .render()
            )
        }
        (n, _) => unreachable!("parse_args admits tables 1..=6, got {n}"),
    };

    if args.all {
        for t in 1..=6 {
            run_table(t);
        }
        let (art, _) = e.figure1();
        println!("{art}");
        println!("{}", e.ablation_order().render());
        println!("{}", e.ablation_latency().render());
        println!("{}", e.ablation_memory(5).render());
        println!("{}", e.ablation_baselines().render());
        println!("{}", e.ablation_nrpa().render());
        return;
    }
    if let Some(t) = args.table {
        run_table(t);
    }
    if args.figure {
        let (art, _) = e.figure1();
        println!("{art}");
    }
    if args.ablations {
        println!("{}", e.ablation_order().render());
        println!("{}", e.ablation_latency().render());
        println!("{}", e.ablation_memory(5).render());
        println!("{}", e.ablation_baselines().render());
        println!("{}", e.ablation_nrpa().render());
    }
    if args.service {
        // The latency-SLO report: a mixed workload (plus one injected
        // panic and one guaranteed budget trip) through the engine,
        // read back through `Engine::inspector`.
        let snapshot = nmcs_bench::slo_snapshot(24, args.seed);
        let rows = nmcs_bench::slo_rows(&snapshot, 250.0);
        println!("{}", nmcs_bench::slo_table(&rows).render());
        println!("{}", nmcs_bench::dead_letter_table(&snapshot).render());
        nmcs_bench::persist(&args.out, "service_slo", &rows).expect("persist SLO rows");
    }
}
