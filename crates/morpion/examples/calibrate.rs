//! Quick calibration: playout and NMCS costs on the standard 5D cross.
use morpion::standard_5d;
use nmcs_core::metrics::monotonic_now;
use nmcs_core::{nested_with, sample, NestedConfig, Rng, SearchResult};

fn main() {
    let board = standard_5d();
    let mut rng = Rng::seeded(1);

    let t = monotonic_now();
    let n = 20_000;
    let mut total = 0i64;
    let mut best = 0i64;
    for _ in 0..n {
        let s = sample(&board, &mut rng).score;
        total += s;
        best = best.max(s);
    }
    let dt = t.elapsed();
    println!(
        "playouts: {n} in {:?} ({:.1} us each), mean score {:.2}, best {best}",
        dt,
        dt.as_micros() as f64 / n as f64,
        total as f64 / n as f64
    );

    for level in 1..=2 {
        let t = monotonic_now();
        let r = SearchResult::unbounded(|ctx| {
            nested_with(&board, level, &NestedConfig::paper(), &mut rng, ctx)
        });
        let dt = t.elapsed();
        println!(
            "nested level {level}: score {} in {:?} ({} playouts, {} work units)",
            r.score, dt, r.stats.playouts, r.stats.work_units
        );
    }
}
