//! Leaf-parallel batched NMCS — the third parallelisation axis.
//!
//! The paper parallelises *across candidate moves* (one median per root
//! move, one client per median move). WU-UCT and the later
//! parallel-MCTS literature get their wins from a different axis:
//! keeping many cheap rollouts in flight at once. This strategy applies
//! that idea to NMCS as **leaf parallelism**: the top-level game is
//! played greedily, and each candidate move is evaluated by a *batch* of
//! `batch` independent `level − 1` evaluations (single random playouts
//! at level 1) whose `(move, slot)` work items spread across a worker
//! pool.
//!
//! The implementation lives in `nmcs-core` behind the unified front
//! door — `SearchSpec::leaf(level, batch, threads)` — which fans the
//! items of each step out over the shared executor pool with budget and
//! cancellation support. This module keeps the strategy's place in the
//! crate that documents the parallelisation axes, its seed scheme, and
//! the tests of its contract.
//!
//! Determinism contract: every work item's seed derives from its logical
//! coordinates through the same [`crate::seeds`] scheme the cluster
//! backends use — `median_seed(root_seed, step, move)` names the leaf,
//! and the batch slots index client seeds under it ([`slot_seed`]).
//! Scores therefore depend only on the search structure, never on
//! scheduling: results are bit-identical across any worker count, which
//! the tests assert.

pub use crate::seeds::slot_seed;

#[cfg(test)]
mod tests {
    use super::*;
    use nmcs_core::{SearchReport, SearchSpec};
    use nmcs_games::{NeedleLadder, SameGame, SumGame};

    #[test]
    fn worker_count_does_not_change_results() {
        let g = SameGame::random(5, 5, 3, 11);
        let mut reference: Option<SearchReport<_>> = None;
        for threads in [1, 2, 4] {
            let out = SearchSpec::leaf(1, 4, threads).seed(2009).run(&g);
            match &reference {
                None => reference = Some(out),
                Some(r) => {
                    assert_eq!(out.score, r.score, "{threads} workers");
                    assert_eq!(out.sequence, r.sequence, "{threads} workers");
                    assert_eq!(out.stats, r.stats, "{threads} workers");
                    assert_eq!(out.client_jobs, r.client_jobs, "{threads} workers");
                }
            }
        }
    }

    #[test]
    fn batch_size_one_level_one_counts_one_playout_per_move() {
        let g = SumGame::random(4, 3, 2);
        let out = SearchSpec::leaf(1, 1, 2).run(&g);
        assert_eq!(out.sequence.len(), 4);
        assert_eq!(out.client_jobs, 12, "3 moves × 1 slot × 4 steps");
    }

    #[test]
    fn batching_multiplies_leaf_evaluations() {
        let g = SumGame::random(4, 3, 2);
        let out = SearchSpec::leaf(1, 8, 4).run(&g);
        assert_eq!(out.client_jobs, 96, "3 moves × 8 slots × 4 steps");
    }

    #[test]
    fn solves_needle_ladder_like_the_other_backends() {
        let g = NeedleLadder::new(10);
        let out = SearchSpec::leaf(1, 2, 2).run(&g);
        assert_eq!(out.score, g.optimum());
    }

    #[test]
    fn bigger_batches_never_hurt_on_average() {
        // The batch max over more independent playouts stochastically
        // dominates fewer; averaged over instances it must not be worse.
        let trials = 8;
        let mut small = 0i64;
        let mut large = 0i64;
        for seed in 0..trials {
            let g = SumGame::random(5, 4, seed);
            small += SearchSpec::leaf(1, 1, 2).seed(seed).run(&g).score;
            large += SearchSpec::leaf(1, 8, 2).seed(seed).run(&g).score;
        }
        assert!(
            large >= small,
            "batch 8 total {large} must not trail batch 1 total {small}"
        );
    }

    #[test]
    fn first_move_mode_stops_after_one_step() {
        let g = SumGame::random(5, 3, 4);
        let out = SearchSpec::leaf(2, 2, 2).first_move_only().run(&g);
        assert_eq!(out.sequence.len(), 1);
    }

    #[test]
    fn slot_seeds_are_pinned_and_distinct() {
        // Part of the determinism contract: a change here invalidates
        // recorded results.
        let a = slot_seed(42, 0, 0, 0);
        assert_eq!(a, slot_seed(42, 0, 0, 0));
        assert_ne!(a, slot_seed(42, 0, 0, 1));
        assert_ne!(a, slot_seed(42, 0, 1, 0));
        assert_ne!(a, slot_seed(42, 1, 0, 0));
        assert_ne!(a, slot_seed(43, 0, 0, 0));
    }

    #[test]
    fn level_two_uses_nested_evaluations() {
        let g = SumGame::random(4, 3, 9);
        let out = SearchSpec::leaf(2, 2, 2).run(&g);
        assert_eq!(out.sequence.len(), 4);
        assert!(out.total_work() > 0);
    }
}
