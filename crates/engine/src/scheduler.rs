//! Replica planning: seed derivation and policy diversification.
//!
//! **Seed contract.** A replica runs exactly the seed its job was
//! given. A single-replica job runs with the job seed, so its result is
//! bit-identical to the direct library call seeded with `spec.seed`. An
//! ensemble job's replica `r` runs with
//! `nmcs_core::seeds::median_seed(spec.seed, 0, r)` — the same
//! derivation the paper's cluster search uses for the median of root
//! move `r` at root step 0 — so ensemble replicas are reproducible as
//! direct calls too, and the engine shares one seed-derivation scheme
//! with the cluster backends. Nothing else changes a seed: two
//! identical jobs in flight at once run the same search twice, as two
//! direct calls would. The seed a replica ran with is recorded in
//! [`ReplicaResult::seed_used`](crate::ReplicaResult::seed_used).

use crate::job::{Algorithm, JobSpec};
use nmcs_core::seeds::median_seed;
use nmcs_core::MemoryPolicy;

/// How one replica will run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaPlan {
    pub replica: usize,
    /// The seed the replica runs with (see module docs).
    pub seed: u64,
    /// NMCS memory policy for this replica (None for non-NMCS
    /// algorithms or when the spec's config already decides it).
    pub memory_policy: Option<MemoryPolicy>,
}

/// Plans every replica of `spec`. Reads only the spec's fields: no
/// game code runs and no lock is taken.
pub(crate) fn plan_job(spec: &JobSpec) -> Vec<ReplicaPlan> {
    (0..spec.replicas)
        .map(|r| ReplicaPlan {
            replica: r,
            seed: replica_seed(spec, r),
            memory_policy: replica_policy(spec, r),
        })
        .collect()
}

/// The seed of replica `r`: the job seed for a single replica, the
/// median-seed derivation for an ensemble.
fn replica_seed(spec: &JobSpec, replica: usize) -> u64 {
    if spec.replicas == 1 {
        spec.seed
    } else {
        median_seed(spec.seed, 0, replica)
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let plans = plan_job(&spec("a", 42, 1));
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].seed, 42);
    }

    #[test]
    fn ensemble_replicas_use_median_seed_derivation() {
        let plans = plan_job(&spec("a", 42, 4));
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
    fn policy_diversification_alternates_on_odd_replicas() {
        let base = spec("d", 1, 4);
        let plain = plan_job(&base);
        assert!(plain
            .iter()
            .all(|p| p.memory_policy == Some(MemoryPolicy::Memorise)));

        let diversified = plan_job(&base.with_policy_diversification());
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
    }
}
