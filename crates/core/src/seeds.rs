//! Per-job seed derivation — the cross-backend determinism contract.
//!
//! Every evaluation job in a parallel search gets a seed derived from
//! the run's root seed and the job's *logical* coordinates (which root
//! step and root move spawned the median, which median step and median
//! move spawned the client job, which batch slot a leaf evaluation
//! occupies). Scores therefore depend only on the logical structure of
//! the search, never on scheduling, threads, or message timing — so the
//! threaded runtime, the discrete-event simulator, the in-core parallel
//! executors, and the sequential reference all make identical decisions.
//!
//! They live here, below every backend, so the [`crate::spec::SearchSpec`]
//! front door, the message-passing roles in `parallel-nmcs` and the
//! engine's replica planner all import the one copy. The constants are
//! pinned: changing them invalidates every recorded trace and table.

use crate::rng::derive_seed;

/// Domain-separation tags (arbitrary odd constants).
const TAG_MEDIAN: u64 = 0x6d65_6469_616e_0001;
const TAG_CLIENT: u64 = 0x636c_6965_6e74_0001;
const TAG_TREE_WORKER: u64 = 0x7472_6565_7770_0001;
const TAG_SESSION_STEP: u64 = 0x7365_7373_7374_0001;

/// Seed of the median search spawned for `root_move` at `root_step`.
pub fn median_seed(root_seed: u64, root_step: usize, root_move: usize) -> u64 {
    derive_seed(root_seed, &[TAG_MEDIAN, root_step as u64, root_move as u64])
}

/// Seed of the client job spawned for `median_move` at `median_step` of
/// the median search seeded with `median_seed`.
pub fn client_seed(median_seed: u64, median_step: usize, median_move: usize) -> u64 {
    derive_seed(
        median_seed,
        &[TAG_CLIENT, median_step as u64, median_move as u64],
    )
}

/// The seed of batch slot `slot` of the leaf-parallel evaluation at
/// `(step, move)` — the client derivation with the slot in the
/// client-move position, pinned as part of the determinism contract.
pub fn slot_seed(root_seed: u64, step: usize, mv: usize, slot: usize) -> u64 {
    client_seed(median_seed(root_seed, step, mv), 0, slot)
}

/// The RNG seed of lane `worker` of tree-parallel UCT: the stream its
/// descents shuffle with and its rollouts draw from. Lane 0 uses the
/// root seed *itself*, so a one-lane tree-parallel run draws the exact
/// RNG stream of sequential UCT — the bit-identity anchor of
/// `tree_parallel(1)` ≡ `uct`.
pub fn tree_worker_seed(root_seed: u64, worker: usize) -> u64 {
    if worker == 0 {
        root_seed
    } else {
        derive_seed(root_seed, &[TAG_TREE_WORKER, worker as u64])
    }
}

/// The search seed of session step `step`. Step 0 uses the root seed
/// *itself*, so a session's first step runs the exact search a plain
/// one-shot spec run would — steps only diverge once the position does.
pub fn session_step_seed(root_seed: u64, step: usize) -> u64 {
    if step == 0 {
        root_seed
    } else {
        derive_seed(root_seed, &[TAG_SESSION_STEP, step as u64])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_across_coordinates() {
        let m00 = median_seed(1, 0, 0);
        assert_ne!(m00, median_seed(1, 0, 1));
        assert_ne!(m00, median_seed(1, 1, 0));
        assert_ne!(m00, median_seed(2, 0, 0));
        let c00 = client_seed(m00, 0, 0);
        assert_ne!(c00, client_seed(m00, 0, 1));
        assert_ne!(c00, client_seed(m00, 1, 0));
    }

    #[test]
    fn median_and_client_derivations_are_domain_separated() {
        assert_ne!(median_seed(7, 3, 4), client_seed(7, 3, 4));
    }

    #[test]
    fn tree_worker_zero_is_the_root_seed() {
        // Pinned: worker 0 ≡ root seed is what makes single-worker
        // tree-parallel UCT bit-identical to sequential UCT.
        assert_eq!(tree_worker_seed(42, 0), 42);
        assert_ne!(tree_worker_seed(42, 1), 42);
        assert_ne!(tree_worker_seed(42, 1), tree_worker_seed(42, 2));
        assert_ne!(tree_worker_seed(42, 1), tree_worker_seed(43, 1));
    }

    #[test]
    fn session_step_zero_is_the_root_seed() {
        // Pinned: step 0 ≡ root seed makes a session's first step equal
        // to the one-shot run of the same spec.
        assert_eq!(session_step_seed(42, 0), 42);
        assert_ne!(session_step_seed(42, 1), 42);
        assert_ne!(session_step_seed(42, 1), session_step_seed(42, 2));
        // Domain-separated from the other derivations.
        assert_ne!(session_step_seed(42, 1), tree_worker_seed(42, 1));
    }

    #[test]
    fn derivation_is_stable() {
        // Pinned: these values are part of the cross-backend contract; a
        // change here invalidates recorded traces.
        let m = median_seed(42, 1, 2);
        assert_eq!(m, median_seed(42, 1, 2));
        let c = client_seed(m, 3, 4);
        assert_eq!(c, client_seed(m, 3, 4));
        assert_eq!(
            slot_seed(42, 1, 2, 3),
            client_seed(median_seed(42, 1, 2), 0, 3)
        );
    }
}
