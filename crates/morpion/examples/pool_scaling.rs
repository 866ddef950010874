//! One-off measurement for ablation A3: shared-memory pool scaling on a
//! realistically-sized workload (level-2 first move on the standard
//! cross — 28 moves × ~6 ms level-1 evaluations each), one evaluation
//! per move on the executor pool.
//!
//! ```text
//! cargo run --release -p morpion --example pool_scaling
//! ```

use morpion::standard_5d;
use nmcs_core::SearchSpec;

fn main() {
    let board = standard_5d();
    let mut baseline = None;
    for threads in [1usize, 2, 4] {
        let spec = SearchSpec::leaf(2, 1, threads)
            .seed(2009)
            .first_move_only()
            .build();
        // Median of 3 runs.
        let mut times: Vec<f64> = (0..3)
            .map(|_| {
                let report = spec.run(&board);
                assert!(report.score > 40);
                report.elapsed.as_secs_f64()
            })
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let t = times[1];
        let speedup = baseline.get_or_insert(t);
        println!(
            "{threads} thread(s): {:.1} ms  (speedup {:.2}x)",
            t * 1e3,
            *speedup / t
        );
    }
}
