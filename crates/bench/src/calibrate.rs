//! Calibration: anchors the simulator's virtual time to measured reality.
//!
//! Three measurements feed the experiment harness:
//!
//! 1. **`ns_per_unit`** — wall nanoseconds per abstract work unit on this
//!    machine, measured by timing instrumented searches. Converts trace
//!    demands into virtual service times for "real-scale" tables.
//! 2. **Per-level cost ratio** — how much a level-`k+1` search costs
//!    relative to level `k` (the paper reports ≈207× between levels 3 and
//!    4; we measure ≈190–210× between levels 1 and 2 on the same domain).
//!    Used to extrapolate the synthetic level-4 workload.
//! 3. **Trace-model fit** — game length, branching profile and demand
//!    decay measured from a real recorded trace, parameterising
//!    [`parallel_nmcs::TraceModel`] for paper-scale synthetic workloads.

use morpion::standard_5d;
use nmcs_core::metrics::monotonic_now;
use nmcs_core::{nested_with, sample, NestedConfig, Rng, SearchResult};
use parallel_nmcs::{SearchTrace, TraceModel};
use serde::{Deserialize, Serialize};

/// Results of the on-machine calibration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Calibration {
    /// Wall nanoseconds per work unit (speed-1.0 client ≡ this machine).
    pub ns_per_unit: f64,
    /// Measured mean playout length on the standard 5D cross.
    pub mean_playout_len: f64,
    /// Measured mean level-1 search cost in work units.
    pub level1_work: u64,
    /// Measured level-2 / level-1 cost ratio (the per-level multiplier).
    pub level_ratio: f64,
}

/// Measures `ns_per_unit` and the level cost structure on Morpion 5D.
///
/// Costs a couple of seconds (dominated by one level-2 search).
pub fn calibrate(seed: u64) -> Calibration {
    let board = standard_5d();
    let mut rng = Rng::seeded(seed);

    // Playout throughput.
    let n = 2_000;
    let mut work = 0u64;
    let mut moves = 0u64;
    let t0 = monotonic_now();
    for _ in 0..n {
        let r = sample(&board, &mut rng);
        work += r.stats.work_units;
        moves += r.stats.playout_moves;
    }
    let playout_ns = t0.elapsed().as_nanos() as f64;
    let ns_per_unit = playout_ns / work as f64;
    let mean_playout_len = moves as f64 / n as f64;

    // Level-1 and level-2 costs (work units are machine-independent).
    let cfg = NestedConfig::paper();
    let l1 = SearchResult::unbounded(|ctx| nested_with(&board, 1, &cfg, &mut rng, ctx));
    let l2 = SearchResult::unbounded(|ctx| nested_with(&board, 2, &cfg, &mut rng, ctx));
    let level_ratio = l2.stats.work_units as f64 / l1.stats.work_units as f64;

    Calibration {
        ns_per_unit,
        mean_playout_len,
        level1_work: l1.stats.work_units,
        level_ratio,
    }
}

/// Fits a [`TraceModel`] to a recorded real trace: game length from the
/// deepest job, branching from first-step widths, demand scale and decay
/// from a least-squares fit of `log demand` against `log((T − m)/T)`.
pub fn fit_model(trace: &SearchTrace, sigma: f64) -> TraceModel {
    let mut max_depth = 0u64;
    let mut samples: Vec<(u64, u64)> = Vec::new(); // (depth, demand)
    let mut first_widths: Vec<usize> = Vec::new();
    for step in &trace.steps {
        first_widths.push(step.medians.len());
        for m in &step.medians {
            for st in &m.steps {
                for j in &st.jobs {
                    max_depth = max_depth.max(j.moves_played);
                    samples.push((j.moves_played, j.demand));
                }
            }
        }
    }
    // The deepest job evaluates a position one move short of the end.
    let game_len = max_depth.max(4) as usize;
    let branching0 = first_widths.first().copied().unwrap_or(1) as f64;

    // Fit demand(m) = demand0 * ((T-m)/T)^gamma by linear regression in
    // log-log space, ignoring depths at the very end of the game.
    let t = game_len as f64;
    let pts: Vec<(f64, f64)> = samples
        .iter()
        .filter(|(m, _)| (*m as f64) < t - 1.0)
        .map(|(m, d)| ((((t - *m as f64) / t).ln()), (*d as f64).max(1.0).ln()))
        .collect();
    let (demand0, gamma) = if pts.len() >= 2 {
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            (
                samples.iter().map(|(_, d)| *d).sum::<u64>() as f64 / samples.len() as f64,
                0.0,
            )
        } else {
            let gamma = (n * sxy - sx * sy) / denom;
            let intercept = (sy - gamma * sx) / n;
            (intercept.exp(), gamma)
        }
    } else {
        (1.0, 0.0)
    };

    TraceModel {
        game_len,
        branching0,
        demand0: demand0.max(1.0),
        gamma: gamma.clamp(0.0, 8.0),
        sigma,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmcs_games::SumGame;
    use parallel_nmcs::trace::run_reference;
    use parallel_nmcs::RunMode;

    #[test]
    fn calibration_values_are_plausible() {
        let c = calibrate(1);
        assert!(
            c.ns_per_unit > 1.0 && c.ns_per_unit < 100_000.0,
            "{}",
            c.ns_per_unit
        );
        assert!(
            c.mean_playout_len > 15.0 && c.mean_playout_len < 80.0,
            "{}",
            c.mean_playout_len
        );
        assert!(c.level1_work > 1_000);
        assert!(
            c.level_ratio > 50.0 && c.level_ratio < 1_000.0,
            "per-level ratio {} out of band (paper: ~207)",
            c.level_ratio
        );
    }

    #[test]
    fn fit_recovers_decaying_demand() {
        // Build a synthetic trace through the real generator and refit.
        let model = TraceModel {
            game_len: 30,
            branching0: 6.0,
            demand0: 5_000.0,
            gamma: 3.0,
            sigma: 0.0,
        };
        let trace = model.synthesize(RunMode::FirstMove, 3);
        let fit = fit_model(&trace, 0.3);
        assert!(
            (fit.gamma - 3.0).abs() < 0.6,
            "gamma {} should be near 3",
            fit.gamma
        );
        assert!(
            fit.demand0 / 5_000.0 > 0.5 && fit.demand0 / 5_000.0 < 2.0,
            "demand0 {}",
            fit.demand0
        );
        assert_eq!(fit.game_len, 30);
    }

    #[test]
    fn fit_handles_tiny_real_traces() {
        let g = SumGame::random(4, 3, 2);
        let (_, trace) = run_reference(&g, 2, 1, RunMode::FullGame);
        let fit = fit_model(&trace, 0.35);
        assert!(fit.game_len >= 4);
        assert!(fit.branching0 >= 1.0);
        assert!(fit.demand0 >= 1.0);
    }
}
