//! Experiment runners — one per table/figure of the paper, plus the
//! ablations listed in DESIGN.md §4.
//!
//! Two scales:
//!
//! * **Paper scale** (default): synthetic traces whose structure
//!   (branching, game length) and client-job cost profile are *measured*
//!   on the real Morpion 5D domain at affordable levels, then anchored to
//!   the paper's single-client times. Regenerates the level-3/level-4
//!   64-client tables in seconds.
//! * **Real scale**: records actual level-2 parallel searches on the
//!   standard cross (client jobs are real playouts) and replays them in
//!   the simulator with this machine's measured `ns_per_unit`. Slower to
//!   generate, entirely measurement-driven.

use crate::calibrate::{calibrate, Calibration};
use crate::paper;
use crate::report::{fmt_speedup, persist, Table};
use des_sim::{format_time, ClusterSpec, Time, SECOND};
use morpion::{render_default, standard_5d, GameRecord};
use nmcs_core::metrics::monotonic_now;
use nmcs_core::rng::derive_seed;
use nmcs_core::{nested_with, sample, Game, NestedConfig, Rng, SearchResult};
use parallel_nmcs::trace::run_reference;
use parallel_nmcs::{simulate_trace, DispatchPolicy, RunMode, SearchTrace, TraceModel};
use serde::Serialize;
use std::path::PathBuf;

/// Domain-separation tag of the demand-profile sample game (arbitrary
/// odd constant, same scheme as `nmcs_core::seeds`).
const TAG_DEMAND_PROFILE: u64 = 0x6465_6d61_6e64_0001;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Calibrated synthetic workloads at the paper's scale (default).
    Paper,
    /// Real recorded level-2 traces on the standard cross.
    Real,
}

/// Shared context: calibration results and output directory.
pub struct Experiments {
    pub seed: u64,
    pub out_dir: PathBuf,
    pub cal: Calibration,
}

/// The client counts of Tables II–V.
pub const CLIENT_SWEEP: &[usize] = &[64, 32, 16, 8, 4, 1];

impl Experiments {
    /// Calibrates on construction (a few seconds of measurement).
    pub fn new(seed: u64, out_dir: PathBuf) -> Self {
        let cal = calibrate(seed);
        Self { seed, out_dir, cal }
    }

    // ------------------------------------------------------------------
    // Workload construction
    // ------------------------------------------------------------------

    /// Measures the client-job cost profile for a given client level:
    /// positions at increasing depths along a seeded random game, each
    /// evaluated with a `client_level` search, returning
    /// `(depth, work_units)` samples.
    pub fn measure_demand_profile(&self, client_level: u32, samples: usize) -> Vec<(u64, u64)> {
        let board = standard_5d();
        let mut rng = Rng::seeded(derive_seed(self.seed, &[TAG_DEMAND_PROFILE]));
        // A fixed random game provides the positions.
        let game = sample(&board, &mut rng);
        let total = game.sequence.len();
        let step = (total / samples.max(1)).max(1);
        let cfg = NestedConfig::paper();
        let mut out = Vec::new();
        let mut pos = board;
        for (depth, mv) in game.sequence.iter().enumerate() {
            if depth % step == 0 && depth + 2 < total {
                let r = SearchResult::unbounded(|ctx| {
                    nested_with(&pos, client_level, &cfg, &mut rng, ctx)
                });
                out.push((depth as u64, r.stats.work_units.max(1)));
            }
            pos.play(mv);
        }
        out
    }

    /// Builds the paper-scale synthetic workload model for a given *root*
    /// level (3 or 4): structure constants from the Morpion domain,
    /// client-job demand profile measured at `level − 2`.
    pub fn paper_model(&self, root_level: u32) -> TraceModel {
        assert!(root_level == 3 || root_level == 4);
        let client_level = root_level - 2;
        // Level-1 profiles are cheap to measure densely; level-2 sparsely.
        let n_samples = if client_level == 1 { 10 } else { 4 };
        let profile = self.measure_demand_profile(client_level, n_samples);
        let game_len = 72; // level-3/4 5D games reach the low 70s–80
        let (demand0, gamma) = fit_power(&profile, game_len as f64);
        TraceModel {
            game_len,
            branching0: 28.0, // the standard cross's 28 first moves
            demand0,
            gamma,
            sigma: 0.35, // matches the run-to-run std devs the paper reports
        }
    }

    /// A synthetic paper-scale trace for the given root level and mode.
    pub fn paper_trace(&self, root_level: u32, mode: RunMode) -> SearchTrace {
        self.paper_model(root_level).synthesize(mode, self.seed)
    }

    /// A real recorded trace: level-2 parallel search on the standard
    /// cross (client jobs are actual playouts). FirstMove ≈ 2 s to
    /// record; FullGame ≈ 1–2 min.
    pub fn real_trace(&self, mode: RunMode) -> SearchTrace {
        let board = standard_5d();
        let (_, trace) = run_reference(&board, 2, self.seed, mode);
        trace
    }

    /// Cluster with ns_per_unit anchored so one speed-1.0 client matches
    /// `anchor_secs` for `trace` (the paper's single-client measurement).
    fn anchored_cluster(trace: &SearchTrace, anchor_secs: u64) -> f64 {
        (anchor_secs as f64 * SECOND as f64) / trace.total_work.max(1) as f64
    }

    // ------------------------------------------------------------------
    // Tables
    // ------------------------------------------------------------------

    /// Table I — sequential algorithm times. Measures levels 1–2 for real
    /// on this machine and reports the structural ratios next to the
    /// paper's level-3/4 values.
    pub fn table1(&self) -> Table {
        let board = standard_5d();
        let cfg = NestedConfig::paper();
        let mut t = Table::new(
            "Table I — sequential NMCS (measured levels 1-2; paper levels 3-4)",
            &[
                "level",
                "first move",
                "one rollout",
                "rollout/first",
                "source",
            ],
        );

        let mut prev_rollout: Option<f64> = None;
        for level in 1..=2u32 {
            // First move: the cost of evaluating every initial move with a
            // level-1 search below the root = step 1 of SearchResult::unbounded(|ctx| nested_with(level, ctx)).
            let t0 = monotonic_now();
            let mut moves = Vec::new();
            board.legal_moves(&mut moves);
            let mut rng = Rng::seeded(self.seed);
            for mv in &moves {
                let mut child = board.clone();
                child.play(mv);
                let _ = SearchResult::unbounded(|ctx| {
                    nested_with(&child, level - 1, &cfg, &mut rng, ctx)
                });
            }
            let first = t0.elapsed().as_secs_f64();

            let t1 = monotonic_now();
            let _ = SearchResult::unbounded(|ctx| nested_with(&board, level, &cfg, &mut rng, ctx));
            let rollout = t1.elapsed().as_secs_f64();

            if let Some(prev) = prev_rollout {
                let ratio = rollout / prev;
                t.row(&[
                    format!("{level} vs {}", level - 1),
                    String::new(),
                    format!("x{ratio:.0} vs previous level"),
                    String::new(),
                    "measured".into(),
                ]);
            }
            prev_rollout = Some(rollout);
            let fmt_secs = |v: f64| {
                if v < 1.0 {
                    format!("{:.1}ms", v * 1e3)
                } else {
                    format!("{v:.2}s")
                }
            };
            t.row(&[
                level.to_string(),
                fmt_secs(first),
                fmt_secs(rollout),
                format!("{:.1}", rollout / first.max(1e-9)),
                "measured".into(),
            ]);
        }
        t.row(&[
            "3".into(),
            format_time(paper::T1_L3_FIRST_MOVE * SECOND),
            format_time(paper::T1_L3_ROLLOUT * SECOND),
            format!(
                "{:.1}",
                paper::T1_L3_ROLLOUT as f64 / paper::T1_L3_FIRST_MOVE as f64
            ),
            "paper".into(),
        ]);
        t.row(&[
            "4".into(),
            format_time(paper::T1_L4_FIRST_MOVE * SECOND),
            format_time(paper::T1_L4_ROLLOUT * SECOND),
            format!(
                "{:.1}",
                paper::T1_L4_ROLLOUT as f64 / paper::T1_L4_FIRST_MOVE as f64
            ),
            "paper".into(),
        ]);
        t.row(&[
            "4 vs 3".into(),
            format!(
                "x{:.0}",
                paper::T1_L4_FIRST_MOVE as f64 / paper::T1_L3_FIRST_MOVE as f64
            ),
            String::new(),
            String::new(),
            "paper".into(),
        ]);
        let _ = persist(&self.out_dir, "table1", &t);
        t
    }

    /// Tables II–V — a speedup sweep for one policy and mode at one
    /// level, with the paper's column alongside.
    #[allow(
        clippy::too_many_arguments,
        reason = "title, trace, policy, anchor, paper column and file name are independent inputs of one table"
    )]
    pub fn speedup_table(
        &self,
        title: &str,
        trace: &SearchTrace,
        policy: DispatchPolicy,
        anchor_secs: u64,
        paper_col: &[(usize, u64)],
        persist_as: &str,
    ) -> Table {
        let nspu = Self::anchored_cluster(trace, anchor_secs);
        let mut t = Table::new(
            title,
            &[
                "clients",
                "time",
                "speedup",
                "paper time",
                "paper speedup",
                "mean util",
            ],
        );
        let paper_t1 = paper::paper_time(paper_col, 1);

        // The paper's 64-client row mixes 1.86 and 2.33 GHz machines; the
        // 32-and-below rows use the slow machines only.
        let mut single_ref: Option<Time> = None;
        let mut raw: Vec<(usize, Time, f64)> = Vec::new();
        for &n in CLIENT_SWEEP {
            let cluster = if n == 64 {
                ClusterSpec::paper_64().with_ns_per_unit(nspu)
            } else {
                ClusterSpec::homogeneous(n).with_ns_per_unit(nspu)
            };
            let out = simulate_trace(trace, &cluster, policy);
            if n == 1 {
                single_ref = Some(out.makespan);
            }
            raw.push((n, out.makespan, out.stats.mean_utilisation));
        }
        let single = single_ref.expect("sweep includes 1 client");
        for (n, makespan, util) in &raw {
            let speedup = single as f64 / *makespan as f64;
            let ptime = paper::paper_time(paper_col, *n)
                .map(|pt| format_time(pt * SECOND))
                .unwrap_or_else(|| "—".into());
            let pspeed = match (paper::paper_time(paper_col, *n), paper_t1) {
                (Some(pt), Some(p1)) => fmt_speedup(p1 as f64 / pt as f64),
                _ => "—".into(),
            };
            t.row(&[
                n.to_string(),
                format_time(*makespan),
                fmt_speedup(speedup),
                ptime,
                pspeed,
                format!("{:.0}%", util * 100.0),
            ]);
        }
        let _ = persist(&self.out_dir, persist_as, &t);
        t
    }

    /// Convenience: run one of Tables II–V at paper scale.
    pub fn paper_sweep(
        &self,
        table_no: u32,
        policy: DispatchPolicy,
        mode: RunMode,
        level: u32,
    ) -> Table {
        let trace = self.paper_trace(level, mode);
        let (anchor, paper_col): (u64, &[(usize, u64)]) = match (table_no, level) {
            (2, 3) => (paper::T2_RR_FIRST_L3[5].1, paper::T2_RR_FIRST_L3),
            (2, 4) => (paper::T2_RR_FIRST_L4[3].1, paper::T2_RR_FIRST_L4),
            (3, 3) => (paper::T3_RR_ROLLOUT_L3[5].1, paper::T3_RR_ROLLOUT_L3),
            (3, 4) => (paper::T2_RR_FIRST_L4[3].1 * 9, paper::T3_RR_ROLLOUT_L4),
            (4, 3) => (paper::T4_LM_FIRST_L3[5].1, paper::T4_LM_FIRST_L3),
            (4, 4) => (paper::T4_LM_FIRST_L4[3].1, paper::T4_LM_FIRST_L4),
            (5, 3) => (paper::T5_LM_ROLLOUT_L3[5].1, paper::T5_LM_ROLLOUT_L3),
            (5, 4) => (paper::T4_LM_FIRST_L4[3].1 * 9, paper::T5_LM_ROLLOUT_L4),
            _ => panic!("no sweep table {table_no} level {level}"),
        };
        let mode_name = match mode {
            RunMode::FirstMove => "first move",
            RunMode::FullGame => "rollout",
        };
        self.speedup_table(
            &format!(
                "Table {} — {} {} times, level {} (paper scale)",
                ["", "", "II", "III", "IV", "V"][table_no as usize],
                policy.short_name(),
                mode_name,
                level
            ),
            &trace,
            policy,
            anchor,
            paper_col,
            &format!("table{table_no}_l{level}"),
        )
    }

    /// Table VI — heterogeneous repartitions, LM vs RR.
    pub fn table6(&self, level: u32) -> Table {
        let trace = self.paper_trace(level, RunMode::FirstMove);
        let anchor = match level {
            3 => paper::T2_RR_FIRST_L3[5].1,
            _ => paper::T2_RR_FIRST_L4[3].1,
        };
        let nspu = Self::anchored_cluster(&trace, anchor);
        let mut t = Table::new(
            format!("Table VI — heterogeneous first-move times, level {level} (paper scale)"),
            &["repartition", "alg", "time", "paper time", "LM gain"],
        );
        for (name, cluster) in [
            (
                "16x4+16x2",
                ClusterSpec::hetero_16x4_16x2().with_ns_per_unit(nspu),
            ),
            (
                "8x4+8x2",
                ClusterSpec::hetero_8x4_8x2().with_ns_per_unit(nspu),
            ),
        ] {
            let lm = simulate_trace(&trace, &cluster, DispatchPolicy::LastMinute);
            let rr = simulate_trace(&trace, &cluster, DispatchPolicy::RoundRobin);
            let gain = rr.makespan as f64 / lm.makespan as f64;
            for (alg, out) in [("LM", &lm), ("RR", &rr)] {
                let ptime = paper::T6
                    .iter()
                    .find(|r| r.0 == name && r.1 == alg && r.2 == level)
                    .map(|r| format_time(r.3 * SECOND))
                    .unwrap_or_else(|| "—".into());
                t.row(&[
                    name.into(),
                    alg.into(),
                    format_time(out.makespan),
                    ptime,
                    if alg == "LM" {
                        format!("{gain:.2}x")
                    } else {
                        String::new()
                    },
                ]);
            }
        }
        let _ = persist(&self.out_dir, &format!("table6_l{level}"), &t);
        t
    }

    /// Real-scale variant of the sweep tables: level-2 recorded traces,
    /// replayed at this machine's measured speed.
    ///
    /// Level-2 client jobs are single playouts (≈20 µs) — far below any
    /// network latency, which is precisely why the paper only distributes
    /// levels 3+. The sweep therefore uses zero latency to isolate the
    /// compute scaling; the latency ablation (A2) quantifies the
    /// granularity effect separately.
    pub fn real_sweep(&self, policy: DispatchPolicy, mode: RunMode) -> Table {
        let trace = self.real_trace(mode);
        let nspu = self.cal.ns_per_unit;
        let mut t = Table::new(
            format!(
                "Real-scale sweep — {} {:?}, level 2 on the standard cross \
                 (measured trace, zero latency)",
                policy.short_name(),
                mode
            ),
            &["clients", "virtual time", "speedup", "mean util"],
        );
        let outs: Vec<(usize, Time, f64)> = CLIENT_SWEEP
            .iter()
            .map(|&n| {
                let cluster = ClusterSpec::homogeneous(n)
                    .with_ns_per_unit(nspu)
                    .with_latency(0);
                let out = simulate_trace(&trace, &cluster, policy);
                (n, out.makespan, out.stats.mean_utilisation)
            })
            .collect();
        let single = outs
            .iter()
            .find(|(n, _, _)| *n == 1)
            .map(|(_, m, _)| *m)
            .expect("sweep includes 1 client");
        for (n, makespan, util) in &outs {
            t.row(&[
                n.to_string(),
                format_time(*makespan),
                fmt_speedup(single as f64 / *makespan as f64),
                format!("{:.0}%", util * 100.0),
            ]);
        }
        let _ = persist(
            &self.out_dir,
            &format!("real_sweep_{}_{:?}", policy.short_name(), mode),
            &t,
        );
        t
    }

    // ------------------------------------------------------------------
    // Figure 1 and ablations
    // ------------------------------------------------------------------

    /// Figure 1 — runs a real level-2 search on the standard 5D cross,
    /// verifies the resulting record, renders the grid, and persists the
    /// record JSON.
    pub fn figure1(&self) -> (String, usize) {
        let board = standard_5d();
        let cfg = NestedConfig::paper();
        let mut rng = Rng::seeded(self.seed);
        let result = SearchResult::unbounded(|ctx| nested_with(&board, 2, &cfg, &mut rng, ctx));
        let mut replay = board;
        for mv in &result.sequence {
            replay.play(mv);
        }
        let record = GameRecord::from_board(&replay, format!("level-2 NMCS, seed {}", self.seed));
        let verified = record.verify().expect("search output must verify");
        assert_eq!(verified as i64, result.score);
        let _ = persist(&self.out_dir, "figure1_record", &record);
        let art = format!(
            "Figure 1 analogue — {} moves found by level-2 NMCS (seed {}).\n\
             Paper milestones: human 68, simulated annealing 79, paper's level-4 record 80.\n\n{}",
            verified,
            self.seed,
            render_default(&replay)
        );
        (art, verified)
    }

    /// Ablation A1 — Last-Minute job-ordering policies on a heterogeneous
    /// cluster (paper's longest-first vs FIFO vs shortest-first vs RR).
    pub fn ablation_order(&self) -> Table {
        let trace = self.paper_trace(3, RunMode::FirstMove);
        let nspu = Self::anchored_cluster(&trace, paper::T2_RR_FIRST_L3[5].1);
        let cluster = ClusterSpec::hetero_16x4_16x2().with_ns_per_unit(nspu);
        let mut t = Table::new(
            "Ablation A1 — dispatcher job ordering (heterogeneous 16x4+16x2, level 3)",
            &["policy", "time", "vs LM"],
        );
        let lm = simulate_trace(&trace, &cluster, DispatchPolicy::LastMinute).makespan;
        for policy in [
            DispatchPolicy::LastMinute,
            DispatchPolicy::LastMinuteFifo,
            DispatchPolicy::LastMinuteShortest,
            DispatchPolicy::RoundRobin,
        ] {
            let out = simulate_trace(&trace, &cluster, policy);
            t.row(&[
                policy.to_string(),
                format_time(out.makespan),
                format!("{:+.1}%", (out.makespan as f64 / lm as f64 - 1.0) * 100.0),
            ]);
        }
        let _ = persist(&self.out_dir, "ablation_order", &t);
        t
    }

    /// Ablation A2 — sensitivity to message latency at 64 clients.
    pub fn ablation_latency(&self) -> Table {
        let trace = self.paper_trace(3, RunMode::FirstMove);
        let nspu = Self::anchored_cluster(&trace, paper::T2_RR_FIRST_L3[5].1);
        let mut t = Table::new(
            "Ablation A2 — latency sensitivity (64 clients, LM, level 3)",
            &["one-way latency", "time", "speedup vs 1 client"],
        );
        for lat_us in [0u64, 100, 1_000, 10_000, 100_000] {
            let lat = lat_us * 1_000;
            let c64 = ClusterSpec::paper_64()
                .with_ns_per_unit(nspu)
                .with_latency(lat);
            let c1 = ClusterSpec::homogeneous(1)
                .with_ns_per_unit(nspu)
                .with_latency(lat);
            let out = simulate_trace(&trace, &c64, DispatchPolicy::LastMinute);
            let single = simulate_trace(&trace, &c1, DispatchPolicy::LastMinute);
            t.row(&[
                format!("{lat_us}us"),
                format_time(out.makespan),
                fmt_speedup(single.makespan as f64 / out.makespan as f64),
            ]);
        }
        let _ = persist(&self.out_dir, "ablation_latency", &t);
        t
    }

    /// Ablation A4 — the memorised best sequence of the sequential NMCS
    /// (paper §III) vs the greedy per-step argmax (parallel pseudocode).
    pub fn ablation_memory(&self, trials: u64) -> Table {
        let board = standard_5d();
        let mut t = Table::new(
            "Ablation A4 — memorised sequence vs greedy argmax (Morpion 5D)",
            &["level", "memorised mean", "greedy mean", "memory gain"],
        );
        for level in [1u32, 2] {
            let runs = if level == 1 { trials } else { trials.min(3) };
            let mut mem_sum = 0.0;
            let mut greedy_sum = 0.0;
            for s in 0..runs {
                let mem = SearchResult::unbounded(|ctx| {
                    nested_with(
                        &board,
                        level,
                        &NestedConfig::paper(),
                        &mut Rng::seeded(self.seed + s),
                        ctx,
                    )
                });
                let gre = SearchResult::unbounded(|ctx| {
                    nested_with(
                        &board,
                        level,
                        &NestedConfig::greedy(),
                        &mut Rng::seeded(self.seed + s),
                        ctx,
                    )
                });
                mem_sum += mem.score as f64;
                greedy_sum += gre.score as f64;
            }
            let mem = mem_sum / runs as f64;
            let gre = greedy_sum / runs as f64;
            t.row(&[
                level.to_string(),
                format!("{mem:.1}"),
                format!("{gre:.1}"),
                format!("{:+.1}", mem - gre),
            ]);
        }
        let _ = persist(&self.out_dir, "ablation_memory", &t);
        t
    }

    /// Ablation A5 — NMCS vs the baselines at matched playout budgets.
    pub fn ablation_baselines(&self) -> Table {
        use nmcs_core::baselines::{flat_monte_carlo_with, iterated_sampling_with};
        use nmcs_core::{simulated_annealing_with, uct_with, AnnealingConfig, UctConfig};
        let board = standard_5d();
        let mut rng = Rng::seeded(self.seed);
        // Budget: the playout count of one level-1 NMCS.
        let l1 = SearchResult::unbounded(|ctx| {
            nested_with(&board, 1, &NestedConfig::paper(), &mut rng, ctx)
        });
        let budget = l1.stats.playouts as usize;
        let mut t = Table::new(
            "Ablation A5 — NMCS vs baselines at matched playout budget (Morpion 5D)",
            &["algorithm", "score", "playouts"],
        );
        let flat = SearchResult::unbounded(|ctx| {
            flat_monte_carlo_with(&board, budget, &mut Rng::seeded(self.seed + 1), ctx)
        });
        let iter = SearchResult::unbounded(|ctx| {
            iterated_sampling_with(&board, 1, &mut Rng::seeded(self.seed + 2), ctx)
        });
        let sa = SearchResult::unbounded(|ctx| {
            simulated_annealing_with(
                &board,
                &AnnealingConfig {
                    iterations: budget,
                    ..Default::default()
                },
                &mut Rng::seeded(self.seed + 3),
                ctx,
            )
        });
        let mcts = SearchResult::unbounded(|ctx| {
            uct_with(
                &board,
                &UctConfig {
                    iterations: budget,
                    ..Default::default()
                },
                &mut Rng::seeded(self.seed + 4),
                ctx,
            )
        });
        t.row(&[
            "flat Monte-Carlo".into(),
            flat.score.to_string(),
            flat.stats.playouts.to_string(),
        ]);
        t.row(&[
            "iterated sampling".into(),
            iter.score.to_string(),
            iter.stats.playouts.to_string(),
        ]);
        t.row(&[
            "simulated annealing".into(),
            sa.score.to_string(),
            sa.stats.playouts.to_string(),
        ]);
        t.row(&[
            "UCT (single-player)".into(),
            mcts.score.to_string(),
            mcts.stats.playouts.to_string(),
        ]);
        t.row(&[
            "NMCS level 1".into(),
            l1.score.to_string(),
            l1.stats.playouts.to_string(),
        ]);
        let _ = persist(&self.out_dir, "ablation_baselines", &t);
        t
    }
}

impl Experiments {
    /// Extension X1 — NRPA (Rosin 2011) vs NMCS at matched playout
    /// budgets on Morpion 5D: the successor algorithm the paper's record
    /// eventually lost to.
    pub fn ablation_nrpa(&self) -> Table {
        use nmcs_core::{nrpa_with, NrpaConfig};
        let board = standard_5d();
        let mut t = Table::new(
            "Extension X1 — NRPA vs NMCS (Morpion 5D, matched playouts)",
            &["algorithm", "score", "playouts"],
        );
        let l1 = SearchResult::unbounded(|ctx| {
            nested_with(
                &board,
                1,
                &NestedConfig::paper(),
                &mut Rng::seeded(self.seed),
                ctx,
            )
        });
        // NRPA(2) with iterations^2 ≈ l1 playout count.
        let iters = (l1.stats.playouts as f64).sqrt().ceil() as usize;
        let cfg = NrpaConfig {
            iterations: iters,
            alpha: 1.0,
        };
        let r2 = SearchResult::unbounded(|ctx| {
            nrpa_with(&board, 2, &cfg, &mut Rng::seeded(self.seed), ctx)
        });
        let cfg3 = NrpaConfig {
            iterations: 10,
            alpha: 1.0,
        };
        let r3 = SearchResult::unbounded(|ctx| {
            nrpa_with(&board, 3, &cfg3, &mut Rng::seeded(self.seed), ctx)
        });
        t.row(&[
            "NMCS level 1".into(),
            l1.score.to_string(),
            l1.stats.playouts.to_string(),
        ]);
        t.row(&[
            format!("NRPA level 2 (N={iters})"),
            r2.score.to_string(),
            r2.stats.playouts.to_string(),
        ]);
        t.row(&[
            "NRPA level 3 (N=10)".into(),
            r3.score.to_string(),
            r3.stats.playouts.to_string(),
        ]);
        let _ = persist(&self.out_dir, "ablation_nrpa", &t);
        t
    }
}

/// Least-squares power-law fit `demand ≈ demand0 · ((T − m)/T)^gamma` in
/// log-log space.
pub fn fit_power(profile: &[(u64, u64)], game_len: f64) -> (f64, f64) {
    let pts: Vec<(f64, f64)> = profile
        .iter()
        .filter(|(m, _)| (*m as f64) < game_len - 1.0)
        .map(|(m, d)| {
            (
                (((game_len - *m as f64) / game_len).max(1e-9)).ln(),
                (*d as f64).max(1.0).ln(),
            )
        })
        .collect();
    if pts.len() < 2 {
        let mean =
            profile.iter().map(|(_, d)| *d as f64).sum::<f64>() / profile.len().max(1) as f64;
        return (mean.max(1.0), 0.0);
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return ((sy / n).exp(), 0.0);
    }
    let gamma = (n * sxy - sx * sy) / denom;
    let intercept = (sy - gamma * sx) / n;
    (intercept.exp().max(1.0), gamma.clamp(0.0, 8.0))
}

/// Serializable summary of a whole paper-scale run (used by tests and the
/// EXPERIMENTS.md generator).
#[derive(Debug, Serialize)]
pub struct ShapeSummary {
    pub speedup_64_rr_first_l3: f64,
    pub speedup_64_lm_first_l3: f64,
    pub lm_gain_hetero_l4: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Experiments {
        Experiments::new(2009, std::env::temp_dir().join("pnmcs_experiments_test"))
    }

    #[test]
    fn fit_power_recovers_known_exponent() {
        let t = 50.0;
        let profile: Vec<(u64, u64)> = (0..40)
            .map(|m| {
                let frac = (t - m as f64) / t;
                (m, (1000.0 * frac.powf(2.5)).round() as u64)
            })
            .collect();
        let (d0, g) = fit_power(&profile, t);
        assert!((g - 2.5).abs() < 0.1, "gamma {g}");
        assert!((d0 - 1000.0).abs() / 1000.0 < 0.1, "demand0 {d0}");
    }

    #[test]
    fn fit_power_degenerate_inputs() {
        let (d0, g) = fit_power(&[(0, 500)], 10.0);
        assert_eq!(g, 0.0);
        assert!((d0 - 500.0).abs() < 1e-9);
        let (d0b, _) = fit_power(&[], 10.0);
        assert!(d0b >= 1.0);
    }

    #[test]
    #[ignore = "several seconds of measurement; run with --ignored"]
    fn paper_scale_shape_holds() {
        let e = ctx();
        // Level-3 first-move: 64-client speedup should land in the
        // paper's band (they report ~56 with the frequency correction
        // noting ~51 against a slow client).
        let trace = e.paper_trace(3, RunMode::FirstMove);
        let nspu = Experiments::anchored_cluster(&trace, paper::T2_RR_FIRST_L3[5].1);
        let c64 = ClusterSpec::paper_64().with_ns_per_unit(nspu);
        let c1 = ClusterSpec::homogeneous(1).with_ns_per_unit(nspu);
        let t64 = simulate_trace(&trace, &c64, DispatchPolicy::RoundRobin).makespan;
        let t1 = simulate_trace(&trace, &c1, DispatchPolicy::RoundRobin).makespan;
        let speedup = t1 as f64 / t64 as f64;
        assert!(
            (30.0..67.0).contains(&speedup),
            "64-client speedup {speedup} far from the paper's ~56"
        );
    }
}
