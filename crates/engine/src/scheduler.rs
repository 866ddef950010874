//! Replica planning: seed derivation and in-flight-aware
//! diversification.
//!
//! **Seed contract.** A single-replica job runs with exactly the job
//! seed, so its result is bit-identical to the direct library call
//! seeded with `spec.seed`. An ensemble job's replica `r` runs with
//! `nmcs_core::seeds::median_seed(spec.seed, 0, r)` — the same
//! derivation the paper's cluster search uses for the median of root
//! move `r` at root step 0 — so ensemble replicas are reproducible as
//! direct calls too, and the engine shares one seed-derivation scheme
//! with the cluster backends.
//!
//! **In-flight awareness.** Parallel searches that share a trajectory do
//! redundant work (the observation behind WU-UCT's tracking of
//! in-flight simulations). The engine keeps a registry of the
//! *signatures* — hash of (job name, algorithm, seed) — of every replica
//! currently queued or running. When a new replica's canonical seed
//! collides with in-flight work (e.g. the same job submitted twice, or
//! an ensemble wider than the seed spacing), the planner bumps the
//! derivation's `attempt` coordinate until the signature is fresh: the
//! duplicate is *diversified* into a different random trajectory instead
//! of burning a worker on a byte-identical search. The seed a replica
//! actually received is recorded in
//! [`ReplicaResult::seed_used`](crate::ReplicaResult::seed_used), so
//! every result stays reproducible.

use crate::job::{Algorithm, JobSpec};
use nmcs_core::seeds::median_seed;
use nmcs_core::MemoryPolicy;
use parking_lot::Mutex;
use std::collections::HashSet;

/// How one replica will run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaPlan {
    pub replica: usize,
    /// The seed the replica runs with (see module docs).
    pub seed: u64,
    /// Signature registered in the in-flight set (released when the
    /// replica finishes).
    pub signature: u64,
    /// NMCS memory policy for this replica (None for non-NMCS
    /// algorithms or when the spec's config already decides it).
    pub memory_policy: Option<MemoryPolicy>,
}

/// Registry of in-flight replica signatures, shared engine-wide.
#[derive(Default)]
pub(crate) struct InFlight {
    set: Mutex<HashSet<u64>>,
}

impl InFlight {
    pub fn release(&self, signature: u64) {
        self.set.lock().remove(&signature);
    }

    pub fn len(&self) -> usize {
        self.set.lock().len()
    }

    /// Plans every replica of `spec`, registering their signatures.
    pub fn plan_job(&self, spec: &JobSpec) -> Vec<ReplicaPlan> {
        // The digest runs a probe rollout — compute it before taking the
        // engine-wide lock so concurrent submitters do not serialise
        // behind each other's game logic.
        let game_digest = spec.game.state_digest();
        let mut set = self.set.lock();
        let mut plans = Vec::with_capacity(spec.replicas);
        for r in 0..spec.replicas {
            let mut attempt = 0usize;
            let (seed, signature) = loop {
                let seed = canonical_seed(spec, r, attempt);
                let sig = signature(spec, game_digest, seed);
                if set.insert(sig) {
                    break (seed, sig);
                }
                attempt += 1;
            };
            plans.push(ReplicaPlan {
                replica: r,
                seed,
                signature,
                memory_policy: replica_policy(spec, r),
            });
        }
        plans
    }
}

/// The canonical (attempt-0) seed of replica `r`, and its diversified
/// successors for `attempt > 0`.
fn canonical_seed(spec: &JobSpec, replica: usize, attempt: usize) -> u64 {
    if spec.replicas == 1 && attempt == 0 {
        spec.seed
    } else {
        median_seed(spec.seed, attempt, replica)
    }
}

/// The NMCS memory policy replica `r` runs with: under policy
/// diversification, odd replicas explore greedily while even replicas
/// keep the paper's memorising policy.
fn replica_policy(spec: &JobSpec, replica: usize) -> Option<MemoryPolicy> {
    match &spec.algorithm {
        Algorithm::Nested { config, .. } => {
            if spec.diversify_policies && replica % 2 == 1 {
                Some(MemoryPolicy::Greedy)
            } else {
                Some(config.memory)
            }
        }
        _ => None,
    }
}

/// FNV-1a over the job name, the algorithm (variant *and* config), the
/// game position digest, and the seed. Designed so that, short of a
/// digest collision, only genuinely identical work — same position,
/// same algorithm and tunables, same randomness — collides and gets
/// diversified; a pathological collision costs only a perturbed seed,
/// which `ReplicaResult::seed_used` records, never a wrong result.
fn signature(spec: &JobSpec, game_digest: u64, seed: u64) -> u64 {
    let mut h = nmcs_core::Fnv1a::new();
    h.write_bytes(spec.name.as_bytes());
    h.write_u64(spec.algorithm.tag());
    h.write_u64(game_digest);
    h.write_u64(seed);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmcs_core::NestedConfig;

    #[derive(Clone, Debug)]
    struct Nil;
    impl nmcs_core::Game for Nil {
        type Move = usize;
        fn legal_moves(&self, _out: &mut Vec<usize>) {}
        fn play(&mut self, _mv: &usize) {}
        fn score(&self) -> i64 {
            0
        }
        fn moves_played(&self) -> usize {
            0
        }
    }

    fn spec(name: &str, seed: u64, replicas: usize) -> JobSpec {
        JobSpec::uncoded(name, Nil, Algorithm::nested(1), seed).with_replicas(replicas)
    }

    #[test]
    fn single_replica_gets_the_job_seed_verbatim() {
        let inflight = InFlight::default();
        let plans = inflight.plan_job(&spec("a", 42, 1));
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].seed, 42);
    }

    #[test]
    fn ensemble_replicas_use_median_seed_derivation() {
        let inflight = InFlight::default();
        let plans = inflight.plan_job(&spec("a", 42, 4));
        for (r, plan) in plans.iter().enumerate() {
            assert_eq!(plan.seed, median_seed(42, 0, r), "replica {r}");
        }
        // All distinct.
        let mut seeds: Vec<u64> = plans.iter().map(|p| p.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn duplicate_submission_diversifies_instead_of_repeating() {
        let inflight = InFlight::default();
        let first = inflight.plan_job(&spec("same", 7, 1));
        let second = inflight.plan_job(&spec("same", 7, 1));
        assert_eq!(first[0].seed, 7);
        assert_ne!(second[0].seed, 7, "duplicate must be diversified");
        assert_eq!(second[0].seed, median_seed(7, 1, 0));
        // Releasing the first makes the canonical seed available again.
        inflight.release(first[0].signature);
        inflight.release(second[0].signature);
        let third = inflight.plan_job(&spec("same", 7, 1));
        assert_eq!(third[0].seed, 7);
    }

    #[test]
    fn different_names_or_algorithms_do_not_collide() {
        let inflight = InFlight::default();
        let a = inflight.plan_job(&spec("a", 7, 1));
        let b = inflight.plan_job(&spec("b", 7, 1));
        assert_eq!(a[0].seed, 7);
        assert_eq!(b[0].seed, 7, "same seed on a different job name is fine");

        let c = inflight.plan_job(&JobSpec::uncoded("a", Nil, Algorithm::nrpa(1, 5), 7));
        assert_eq!(c[0].seed, 7, "same name with a different algorithm is fine");
    }

    #[test]
    fn policy_diversification_alternates_on_odd_replicas() {
        let base = spec("d", 1, 4);
        let plain = InFlight::default().plan_job(&base);
        assert!(plain
            .iter()
            .all(|p| p.memory_policy == Some(MemoryPolicy::Memorise)));

        let diversified = InFlight::default().plan_job(&base.with_policy_diversification());
        let policies: Vec<_> = diversified
            .iter()
            .map(|p| p.memory_policy.unwrap())
            .collect();
        assert_eq!(
            policies,
            vec![
                MemoryPolicy::Memorise,
                MemoryPolicy::Greedy,
                MemoryPolicy::Memorise,
                MemoryPolicy::Greedy
            ]
        );
        let _ = NestedConfig::paper();
    }
}
