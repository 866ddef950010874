//! The cooperative budget/cancellation context threaded through every
//! search loop.
//!
//! A [`SearchCtx`] bundles the instrumentation counters ([`SearchStats`])
//! with the run's stopping conditions: an optional wall-clock deadline,
//! optional playout/node budgets (shared across worker threads through an
//! atomic meter), and an optional [`CancelToken`]. Every search in this
//! crate polls [`SearchCtx::should_stop`] at its loop boundaries — the
//! *same* check in the serial, leaf-parallel, and root-parallel code
//! paths, which is what makes budgets behave identically across backends.
//!
//! Two properties are load-bearing:
//!
//! * **The checks never touch the RNG.** A search that does not hit its
//!   budget draws exactly the same random numbers as an unbudgeted run,
//!   so results are bit-identical (asserted by `tests/budget_props.rs`).
//! * **Interruption is sticky.** Once any limit trips, every subsequent
//!   `should_stop` call answers `true`, so deeply nested recursions
//!   unwind promptly, and parallel workers observe each other's trip
//!   through the shared meter.

use crate::metrics::monotonic_now;
use crate::report::Interruption;
use crate::spec::{Budget, CancelToken};
use crate::stats::SearchStats;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How many `should_stop` polls pass between clock reads when
/// a deadline is set. Playout steps run in the 0.1–1 µs range, so the
/// deadline is honoured to within a few microseconds while the hot loop
/// pays a clock read only once per stride.
///
/// The *first* poll of a context always reads the clock (see
/// [`SearchCtx::should_stop`]): a search whose individual iterations
/// are expensive (a deep nested rollout, a slow domain) must not run 31
/// of them past a short deadline before noticing the clock at all. The
/// stride only amortises polls *after* that first read.
pub const DEADLINE_STRIDE: u32 = 32;

/// Countdown start for a fresh context: the first poll reads the clock.
const FIRST_POLL: u32 = 1;

/// Budget counters shared by every worker of one search run.
struct BudgetMeter {
    max_playouts: Option<u64>,
    max_nodes: Option<u64>,
    playouts: AtomicU64,
    nodes: AtomicU64,
    /// Latched interruption kind (`0` = none); see [`Interruption`].
    tripped: AtomicU8,
}

const TRIP_NONE: u8 = 0;
const TRIP_DEADLINE: u8 = 1;
const TRIP_PLAYOUTS: u8 = 2;
const TRIP_NODES: u8 = 3;

impl BudgetMeter {
    fn trip(&self, kind: u8) {
        // First trip wins; later (possibly different) trips keep it.
        let _ = self
            .tripped
            .compare_exchange(TRIP_NONE, kind, Ordering::AcqRel, Ordering::Acquire);
    }

    fn tripped_as(&self) -> Option<Interruption> {
        match self.tripped.load(Ordering::Acquire) {
            TRIP_NONE => None,
            TRIP_DEADLINE => Some(Interruption::Deadline),
            TRIP_PLAYOUTS => Some(Interruption::PlayoutBudget),
            _ => Some(Interruption::NodeBudget),
        }
    }
}

/// Per-search context: stats plus the stopping conditions.
///
/// Construct one with [`SearchCtx::unbounded`] (no limits) or
/// [`SearchCtx::new`] (from a [`Budget`] and optional [`CancelToken`]).
/// Parallel backends give each worker a [`SearchCtx::fork`] and merge the
/// workers back with [`SearchCtx::absorb`].
pub struct SearchCtx {
    stats: SearchStats,
    deadline: Option<Instant>,
    meter: Option<Arc<BudgetMeter>>,
    cancel: Option<CancelToken>,
    interrupted: Option<Interruption>,
    /// Countdown to the next deadline poll.
    poll: u32,
}

impl SearchCtx {
    /// A context with no budget and no cancellation: `should_stop` is
    /// always `false`, and the only job is accumulating stats.
    pub fn unbounded() -> Self {
        SearchCtx {
            stats: SearchStats::new(),
            deadline: None,
            meter: None,
            cancel: None,
            interrupted: None,
            poll: FIRST_POLL,
        }
    }

    /// A context enforcing `budget` (the deadline clock starts *now*)
    /// and observing `cancel` if provided.
    pub fn new(budget: &Budget, cancel: Option<&CancelToken>) -> Self {
        let meter = if budget.is_limited() {
            Some(Arc::new(BudgetMeter {
                max_playouts: budget.max_playouts,
                max_nodes: budget.max_nodes,
                playouts: AtomicU64::new(0),
                nodes: AtomicU64::new(0),
                tripped: AtomicU8::new(TRIP_NONE),
            }))
        } else {
            None
        };
        SearchCtx {
            stats: SearchStats::new(),
            // A deadline past what an `Instant` can hold is never reached.
            deadline: budget.deadline.and_then(|d| monotonic_now().checked_add(d)),
            meter,
            cancel: cancel.cloned(),
            interrupted: None,
            poll: FIRST_POLL,
        }
    }

    /// A worker-thread context sharing this context's budget meter,
    /// deadline, and cancel token, with fresh local stats. Merge it back
    /// with [`SearchCtx::absorb`].
    pub fn fork(&self) -> Self {
        SearchCtx {
            stats: SearchStats::new(),
            deadline: self.deadline,
            meter: self.meter.clone(),
            cancel: self.cancel.clone(),
            interrupted: self.interrupted,
            poll: FIRST_POLL,
        }
    }

    /// Merges a forked worker context back: stats add up, and the first
    /// observed interruption sticks.
    pub fn absorb(&mut self, worker: SearchCtx) {
        self.stats.merge(&worker.stats);
        if self.interrupted.is_none() {
            self.interrupted = worker.interrupted;
        }
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Consumes the context, returning its counters.
    pub fn into_stats(self) -> SearchStats {
        self.stats
    }

    /// Why the search stopped early, if it did.
    pub fn interruption(&self) -> Option<Interruption> {
        self.interrupted
    }

    /// Polls every stopping condition. Cheap (a few branches) when
    /// unbudgeted; never touches any RNG. Once `true`, stays `true`.
    #[inline]
    pub fn should_stop(&mut self) -> bool {
        if self.interrupted.is_some() {
            return true;
        }
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                self.interrupted = Some(Interruption::Cancelled);
                return true;
            }
        }
        if let Some(meter) = &self.meter {
            if let Some(kind) = meter.tripped_as() {
                self.interrupted = Some(kind);
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            self.poll = self.poll.saturating_sub(1);
            if self.poll == 0 {
                self.poll = DEADLINE_STRIDE;
                if monotonic_now() >= deadline {
                    self.interrupted = Some(Interruption::Deadline);
                    // Let sibling workers see the trip without waiting
                    // for their own clock poll.
                    if let Some(meter) = &self.meter {
                        meter.trip(TRIP_DEADLINE);
                    }
                    return true;
                }
            }
        }
        false
    }

    /// Playouts the budget has left before it trips; `usize::MAX`
    /// without a playout budget. The UCT master sizes its waves by it,
    /// so that no wave starts more rollouts than the budget allows.
    #[inline]
    pub(crate) fn playouts_left(&self) -> usize {
        self.meter
            .as_ref()
            .and_then(|meter| {
                let max = meter.max_playouts?;
                let left = max.saturating_sub(meter.playouts.load(Ordering::Acquire));
                usize::try_from(left).ok()
            })
            .unwrap_or(usize::MAX)
    }

    // ---- recorders (the shared accounting choke points) --------------

    #[inline]
    pub(crate) fn record_playout_move(&mut self) {
        self.stats.record_playout_move();
    }

    #[inline]
    pub(crate) fn record_playout_end(&mut self) {
        self.stats.record_playout_end();
        if let Some(meter) = &self.meter {
            if let Some(max) = meter.max_playouts {
                if meter.playouts.fetch_add(1, Ordering::AcqRel) + 1 >= max {
                    meter.trip(TRIP_PLAYOUTS);
                }
            }
        }
    }

    #[inline]
    pub(crate) fn record_nested_move(&mut self) {
        self.stats.record_nested_move();
    }

    #[inline]
    pub(crate) fn record_expansion(&mut self) {
        self.stats.record_expansion();
        if let Some(meter) = &self.meter {
            if let Some(max) = meter.max_nodes {
                if meter.nodes.fetch_add(1, Ordering::AcqRel) + 1 >= max {
                    meter.trip(TRIP_NODES);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unbounded_never_stops() {
        let mut ctx = SearchCtx::unbounded();
        for _ in 0..10_000 {
            assert!(!ctx.should_stop());
        }
        assert_eq!(ctx.interruption(), None);
    }

    #[test]
    fn cancel_token_stops_and_sticks() {
        let token = CancelToken::new();
        let mut ctx = SearchCtx::new(&Budget::none(), Some(&token));
        assert!(!ctx.should_stop());
        token.cancel();
        assert!(ctx.should_stop());
        assert_eq!(ctx.interruption(), Some(Interruption::Cancelled));
        // Sticky even though the token check short-circuits now.
        assert!(ctx.should_stop());
    }

    #[test]
    fn playout_budget_trips_at_the_limit() {
        let budget = Budget::none().with_max_playouts(3);
        let mut ctx = SearchCtx::new(&budget, None);
        for _ in 0..2 {
            ctx.record_playout_end();
            assert!(!ctx.should_stop());
        }
        ctx.record_playout_end();
        assert!(ctx.should_stop());
        assert_eq!(ctx.interruption(), Some(Interruption::PlayoutBudget));
    }

    #[test]
    fn node_budget_counts_expansions() {
        let budget = Budget::none().with_max_nodes(2);
        let mut ctx = SearchCtx::new(&budget, None);
        ctx.record_expansion();
        assert!(!ctx.should_stop());
        ctx.record_expansion();
        assert!(ctx.should_stop());
        assert_eq!(ctx.interruption(), Some(Interruption::NodeBudget));
    }

    #[test]
    fn forked_workers_share_the_meter() {
        let budget = Budget::none().with_max_playouts(2);
        let mut main = SearchCtx::new(&budget, None);
        let mut a = main.fork();
        let mut b = main.fork();
        a.record_playout_end();
        b.record_playout_end();
        // Either fork now observes the shared trip.
        assert!(a.should_stop());
        assert!(b.should_stop());
        main.absorb(a);
        main.absorb(b);
        assert_eq!(main.stats().playouts, 2);
        assert!(main.should_stop());
        assert_eq!(main.interruption(), Some(Interruption::PlayoutBudget));
    }

    #[test]
    fn elapsed_deadline_stops_within_a_stride() {
        let budget = Budget::none().with_deadline(Duration::ZERO);
        let mut ctx = SearchCtx::new(&budget, None);
        let mut polls = 0;
        while !ctx.should_stop() {
            polls += 1;
            assert!(polls <= DEADLINE_STRIDE, "deadline never observed");
        }
        assert_eq!(ctx.interruption(), Some(Interruption::Deadline));
    }

    #[test]
    fn the_very_first_poll_reads_the_clock() {
        // Regression: the countdown used to start at DEADLINE_STRIDE, so
        // a search with slow iterations could overshoot a short deadline
        // by 31 expensive rollouts before its first clock read. The
        // first poll must observe an already-elapsed deadline.
        let budget = Budget::none().with_deadline(Duration::ZERO);
        let mut ctx = SearchCtx::new(&budget, None);
        assert!(ctx.should_stop(), "first poll must read the clock");
        assert_eq!(ctx.interruption(), Some(Interruption::Deadline));

        // Forked worker contexts inherit the same first-poll behaviour.
        let parent = SearchCtx::new(&budget, None);
        let mut worker = parent.fork();
        assert!(
            worker.should_stop(),
            "forked first poll must read the clock"
        );
    }
}
