//! Cluster shapes, including the paper's configurations.
//!
//! Speeds are normalised to a 1.86 GHz core = 1.0, the unit the paper
//! itself uses when it corrects its 64-client speedup by the mean
//! frequency ratio `r = ((20×1.86 + 12×2.33)/32)/1.86 = 1.09` (§V).
//!
//! The heterogeneous repartitions of Table VI put 4 client processes on a
//! dual-core PC (each running at ~half a core) next to PCs with the normal
//! 2 clients. We model that oversubscription directly as a speed factor —
//! `cores / clients_per_pc` — which preserves the load-imbalance mechanism
//! the Last-Minute dispatcher was designed to exploit.

use crate::{Time, SECOND};
use serde::{Deserialize, Serialize};

/// Normalised speed of a 2.33 GHz core (relative to 1.86 GHz).
pub const FAST_CORE: f64 = 2.33 / 1.86;

/// Default one-way message latency: 100 µs, a typical small-message
/// latency on the paper's Gigabit Ethernet with Open MPI.
pub const DEFAULT_LATENCY: Time = 100_000;

/// One simulated client process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClientSpec {
    /// Relative speed (1.0 = one dedicated 1.86 GHz core).
    pub speed: f64,
}

/// A cluster configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// The client processes.
    pub clients: Vec<ClientSpec>,
    /// Virtual nanoseconds one work unit takes on a speed-1.0 client.
    /// Calibrated against measured search costs by the bench crate.
    pub ns_per_unit: f64,
    /// One-way message latency between any two processes.
    pub latency: Time,
}

impl ClusterSpec {
    /// `n` identical clients at speed 1.0.
    pub fn homogeneous(n: usize) -> Self {
        assert!(n > 0);
        Self {
            clients: vec![ClientSpec { speed: 1.0 }; n],
            ns_per_unit: 1_000.0,
            latency: DEFAULT_LATENCY,
        }
    }

    /// The paper's full 64-client configuration: two clients per dual-core
    /// PC on 20 slow (1.86 GHz) and 12 fast (2.33 GHz) machines.
    pub fn paper_64() -> Self {
        let mut clients = Vec::with_capacity(64);
        clients.extend(std::iter::repeat_n(ClientSpec { speed: 1.0 }, 40));
        clients.extend(std::iter::repeat_n(ClientSpec { speed: FAST_CORE }, 24));
        Self {
            clients,
            ns_per_unit: 1_000.0,
            latency: DEFAULT_LATENCY,
        }
    }

    /// Table VI repartition `16x4+16x2`: 16 dual-core PCs running 4
    /// clients each (speed 2/4 = 0.5) plus 16 PCs running the normal 2
    /// clients (speed 1.0) — 96 clients total.
    pub fn hetero_16x4_16x2() -> Self {
        Self::oversubscribed(16, 16)
    }

    /// Table VI repartition `8x4+8x2` — 48 clients total.
    pub fn hetero_8x4_8x2() -> Self {
        Self::oversubscribed(8, 8)
    }

    /// `a` PCs × 4 clients at half speed + `b` PCs × 2 clients at full
    /// speed (all PCs dual-core).
    pub fn oversubscribed(a: usize, b: usize) -> Self {
        let mut clients = Vec::with_capacity(4 * a + 2 * b);
        clients.extend(std::iter::repeat_n(ClientSpec { speed: 0.5 }, 4 * a));
        clients.extend(std::iter::repeat_n(ClientSpec { speed: 1.0 }, 2 * b));
        Self {
            clients,
            ns_per_unit: 1_000.0,
            latency: DEFAULT_LATENCY,
        }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Aggregate compute capacity (sum of speeds), the upper bound on any
    /// speedup relative to a single speed-1.0 client.
    pub fn capacity(&self) -> f64 {
        self.clients.iter().map(|c| c.speed).sum()
    }

    /// Sets the work-unit calibration (chainable).
    pub fn with_ns_per_unit(mut self, ns: f64) -> Self {
        assert!(ns > 0.0);
        self.ns_per_unit = ns;
        self
    }

    /// Sets the one-way latency (chainable).
    pub fn with_latency(mut self, latency: Time) -> Self {
        self.latency = latency;
        self
    }
}

/// A human-readable summary, e.g. `64 clients, capacity 67.0, lat 100us`.
impl std::fmt::Display for ClusterSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} clients, capacity {:.1}, lat {}us",
            self.len(),
            self.capacity(),
            self.latency / 1_000
        )
    }
}

/// Reference single-client time for speedup computations: the virtual
/// duration of `total_work` units on one speed-1.0 client.
pub fn single_client_time(total_work: u64, ns_per_unit: f64) -> Time {
    ((total_work as f64 * ns_per_unit).round() as Time).max(1)
}

/// Convenience: seconds → virtual time.
pub fn secs(s: f64) -> Time {
    (s * SECOND as f64).round() as Time
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_64_matches_the_cluster_description() {
        let c = ClusterSpec::paper_64();
        assert_eq!(c.len(), 64);
        let slow = c.clients.iter().filter(|c| c.speed == 1.0).count();
        let fast = c.clients.iter().filter(|c| c.speed > 1.0).count();
        assert_eq!(slow, 40);
        assert_eq!(fast, 24);
        // Mean frequency ratio from §V: 1.09.
        let mean = c.capacity() / c.len() as f64;
        assert!((mean - 1.09).abs() < 0.005, "mean speed {mean}");
    }

    #[test]
    fn hetero_repartitions_have_paper_sizes() {
        let h1 = ClusterSpec::hetero_16x4_16x2();
        assert_eq!(h1.len(), 16 * 4 + 16 * 2);
        let h2 = ClusterSpec::hetero_8x4_8x2();
        assert_eq!(h2.len(), 8 * 4 + 8 * 2);
        // Oversubscription conserves total core capacity.
        assert!((h1.capacity() - 64.0).abs() < 1e-9);
        assert!((h2.capacity() - 32.0).abs() < 1e-9);
    }

    #[test]
    fn homogeneous_capacity_equals_count() {
        let c = ClusterSpec::homogeneous(8);
        assert_eq!(c.len(), 8);
        assert!((c.capacity() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn builders_chain() {
        let c = ClusterSpec::homogeneous(2)
            .with_ns_per_unit(5.0)
            .with_latency(42);
        assert_eq!(c.ns_per_unit, 5.0);
        assert_eq!(c.latency, 42);
    }

    #[test]
    fn single_client_time_scales_linearly() {
        assert_eq!(single_client_time(1000, 2.0), 2000);
        assert_eq!(single_client_time(0, 2.0), 1);
    }

    #[test]
    fn serde_round_trip() {
        let c = ClusterSpec::paper_64();
        let json = serde_json::to_string(&c).unwrap();
        let back: ClusterSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }

    #[test]
    fn secs_conversion() {
        assert_eq!(secs(1.5), 1_500_000_000);
    }
}
