//! Search instrumentation.
//!
//! Every search entry point threads a [`SearchStats`] through its recursion.
//! Besides being useful diagnostics, the `work_units` counter is the
//! *cost model input* for the discrete-event cluster simulator: a client
//! job's virtual service time is its measured work divided by the client's
//! speed factor, which is how heterogeneous-cluster behaviour (paper
//! Table VI) is reproduced without the paper's hardware.

use serde::{Deserialize, Serialize};

/// Counters accumulated during a search.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Completed random playouts (`sample` calls that ran to termination).
    pub playouts: u64,
    /// Moves applied inside random playouts.
    pub playout_moves: u64,
    /// Moves applied by `nested` itself while advancing its game. On
    /// UCT, the tree edges its descents walk, whether or not a position
    /// follows them: the sequential arena plays a descent's edges only
    /// when the descent needs the position.
    pub nested_moves: u64,
    /// Positions cloned for candidate-move evaluation.
    pub expansions: u64,
    /// Abstract work units: every move application (playout or nested)
    /// plus every expansion counts one unit. Monotone, additive across
    /// sub-searches, and roughly proportional to wall-clock time for a
    /// fixed game — exactly what a service-time model needs. (On UCT's
    /// sequential arena most descent edges are node visits, not moves
    /// applied; see `nested_moves`.)
    pub work_units: u64,
}

impl SearchStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds another counter set into this one (used when merging results
    /// from parallel sub-searches).
    pub fn merge(&mut self, other: &SearchStats) {
        self.playouts += other.playouts;
        self.playout_moves += other.playout_moves;
        self.nested_moves += other.nested_moves;
        self.expansions += other.expansions;
        self.work_units += other.work_units;
    }

    #[inline]
    pub(crate) fn record_playout_move(&mut self) {
        self.playout_moves += 1;
        self.work_units += 1;
    }

    #[inline]
    pub(crate) fn record_playout_end(&mut self) {
        self.playouts += 1;
    }

    #[inline]
    pub(crate) fn record_nested_move(&mut self) {
        self.nested_moves += 1;
        self.work_units += 1;
    }

    #[inline]
    pub(crate) fn record_expansion(&mut self) {
        self.expansions += 1;
        self.work_units += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_componentwise_addition() {
        let mut a = SearchStats {
            playouts: 1,
            playout_moves: 10,
            nested_moves: 2,
            expansions: 3,
            work_units: 15,
        };
        let b = SearchStats {
            playouts: 4,
            playout_moves: 40,
            nested_moves: 5,
            expansions: 6,
            work_units: 51,
        };
        a.merge(&b);
        assert_eq!(
            a,
            SearchStats {
                playouts: 5,
                playout_moves: 50,
                nested_moves: 7,
                expansions: 9,
                work_units: 66,
            }
        );
    }

    #[test]
    fn recorders_keep_work_units_consistent() {
        let mut s = SearchStats::new();
        s.record_playout_move();
        s.record_playout_move();
        s.record_playout_end();
        s.record_nested_move();
        s.record_expansion();
        assert_eq!(s.playouts, 1);
        assert_eq!(s.playout_moves, 2);
        assert_eq!(s.nested_moves, 1);
        assert_eq!(s.expansions, 1);
        assert_eq!(s.work_units, 4);
    }

    #[test]
    fn serde_round_trip() {
        let s = SearchStats {
            playouts: 7,
            playout_moves: 70,
            nested_moves: 8,
            expansions: 9,
            work_units: 87,
        };
        let json = serde_json::to_string(&s).unwrap();
        let back: SearchStats = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
