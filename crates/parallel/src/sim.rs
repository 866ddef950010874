//! The discrete-event backend: replays a [`SearchTrace`] on a simulated
//! cluster in virtual time.
//!
//! This is the substitution for the paper's 64-core cluster (see
//! DESIGN.md §2): the same dispatcher state machine as the threaded
//! backend ([`DispatcherCore`]), driven by virtual-time events instead of
//! real messages. All the latency structure of the real protocol is
//! modelled:
//!
//! * every message (ask, grant, position, result, free notice) costs one
//!   one-way latency;
//! * a median's job submissions are *serialized* — it cannot request a
//!   client for its next move before the dispatcher granted the previous
//!   one (the paper's median pseudocode blocks on `receive client from
//!   dispatcher`), which is precisely why Last-Minute throttles gracefully
//!   under saturation while Round-Robin floods busy clients' queues;
//! * medians of one root step start together; the next root step starts
//!   only after all of them reported (the root's barrier);
//! * a median advances to its next step only after all of its current
//!   step's results returned (the median's barrier).

use crate::dispatcher::{DispatchPolicy, DispatcherCore};
use crate::trace::SearchTrace;
use des_sim::{ClusterSpec, EventQueue, ServiceStation, SimStats, Time, Timeline};
use serde::{Deserialize, Serialize};

/// Result of one simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimOutcome {
    /// Virtual time until the root held every result it needed.
    pub makespan: Time,
    pub policy: DispatchPolicy,
    pub n_clients: usize,
    pub stats: SimStats,
}

impl SimOutcome {
    /// Speedup relative to a reference single-client virtual time.
    pub fn speedup(&self, reference: Time) -> f64 {
        self.stats.speedup(reference)
    }
}

/// Identifies one median game within the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MedianId {
    root_step: usize,
    idx: usize,
}

/// Virtual-time events.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The root's position arrived at a median: begin its game.
    MedianStart(MedianId),
    /// A median's `WhichClient` arrived at the dispatcher.
    AskArrive(MedianId),
    /// The dispatcher's `UseClient` grant arrived at a median.
    GrantArrive(MedianId, usize),
    /// A position arrived at client `usize` for job `job` of the median's
    /// current step.
    PositionArrive(MedianId, usize, usize),
    /// Client finished a job.
    JobDone(MedianId, usize, usize),
    /// The result arrived back at the median.
    ResultArrive(MedianId),
    /// A `ClientFree` notice arrived at the dispatcher.
    FreeArrive(usize),
}

/// Per-median replay state.
#[derive(Debug)]
struct MedState {
    /// Next job (move index) to request a client for, within the current
    /// step.
    next_job: usize,
    /// Results still outstanding in the current step.
    outstanding: usize,
    step: usize,
    done: bool,
}

/// Replays `trace` on `cluster` under `policy`, returning virtual-time
/// results.
///
/// Median ranks in the dispatcher core are synthetic (`root_step * width +
/// idx` would collide across steps, so an offset map is used); client
/// "ranks" are their indices.
pub fn simulate_trace(
    trace: &SearchTrace,
    cluster: &ClusterSpec,
    policy: DispatchPolicy,
) -> SimOutcome {
    simulate_trace_impl(trace, cluster, policy, false).0
}

/// Like [`simulate_trace`], additionally returning per-client busy
/// timelines for Gantt rendering (costs memory proportional to the job
/// count).
pub fn simulate_trace_recorded(
    trace: &SearchTrace,
    cluster: &ClusterSpec,
    policy: DispatchPolicy,
) -> (SimOutcome, Vec<Timeline>) {
    let (out, timelines) = simulate_trace_impl(trace, cluster, policy, true);
    (out, timelines.expect("recording requested"))
}

fn simulate_trace_impl(
    trace: &SearchTrace,
    cluster: &ClusterSpec,
    policy: DispatchPolicy,
    record: bool,
) -> (SimOutcome, Option<Vec<Timeline>>) {
    assert!(!cluster.is_empty());
    let lat = cluster.latency;
    let nspu = cluster.ns_per_unit;

    let mut stations: Vec<ServiceStation> = cluster
        .clients
        .iter()
        .map(|c| {
            if record {
                ServiceStation::new_recording(c.speed)
            } else {
                ServiceStation::new(c.speed)
            }
        })
        .collect();
    // The dispatcher core addresses clients by rank; use their indices.
    let mut core = DispatcherCore::new(policy, (0..stations.len()).collect());

    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut makespan: Time = 0;

    // State per median of the *current* root step only (medians of
    // different steps never overlap in time).
    let mut med: Vec<MedState> = Vec::new();
    let mut medians_left = 0usize;

    // Maps a synthetic dispatcher rank to the median index (dispatcher
    // ranks must be stable across queued jobs within a step).
    let start_root_step = |step: usize,
                           now: Time,
                           queue: &mut EventQueue<Ev>,
                           med: &mut Vec<MedState>,
                           medians_left: &mut usize,
                           trace: &SearchTrace,
                           lat: Time| {
        let rs = &trace.steps[step];
        med.clear();
        for (idx, m) in rs.medians.iter().enumerate() {
            med.push(MedState {
                next_job: 0,
                outstanding: 0,
                step: 0,
                done: m.steps.is_empty(),
            });
            let id = MedianId {
                root_step: step,
                idx,
            };
            if m.steps.is_empty() {
                // Terminal child: the median replies immediately.
            } else {
                // Root's position reaches the median one latency after the
                // root sends it.
                queue.push(now + lat, Ev::MedianStart(id));
            }
        }
        *medians_left = rs.medians.iter().filter(|m| !m.steps.is_empty()).count();
    };

    let finish = |stations: Vec<ServiceStation>, makespan: Time, total_work: u64| {
        let stats = SimStats::collect(&stations, 1.max(makespan), total_work);
        let timelines = record.then(|| {
            stations
                .iter()
                .map(|s| s.timeline().cloned().unwrap_or_default())
                .collect::<Vec<_>>()
        });
        (
            SimOutcome {
                makespan,
                policy,
                n_clients: stations.len(),
                stats,
            },
            timelines,
        )
    };

    if trace.steps.is_empty() {
        return finish(stations, 0, 0);
    }
    // Starts root steps beginning at `step`, skipping over steps whose
    // medians are all trivially done (every child terminal — such a step
    // costs only message latency, which we conservatively omit). Returns
    // the step that actually started, or `None` if the trace is exhausted.
    let advance_until_live = |mut step: usize,
                              now: Time,
                              queue: &mut EventQueue<Ev>,
                              med: &mut Vec<MedState>,
                              medians_left: &mut usize|
     -> Option<usize> {
        while step < trace.steps.len() {
            start_root_step(step, now, queue, med, medians_left, trace, lat);
            if *medians_left > 0 {
                return Some(step);
            }
            step += 1;
        }
        None
    };
    let mut root_step = match advance_until_live(0, 0, &mut queue, &mut med, &mut medians_left) {
        Some(step) => step,
        None => return finish(stations, makespan, trace.total_work),
    };

    while let Some((now, ev)) = queue.pop() {
        match ev {
            Ev::MedianStart(id) => {
                // The median begins step 0: ask for a client for job 0.
                queue.push(now + lat, Ev::AskArrive(id));
            }
            Ev::AskArrive(id) => {
                let m = &med[id.idx];
                let job = &trace.steps[id.root_step].medians[id.idx].steps[m.step].jobs[m.next_job];
                // The dispatcher rank of a median is its index (unique
                // within the live root step).
                // `None` means the request queued inside the core
                // (Last-Minute with no free client).
                if let Some(client) = core.on_request(id.idx, job.moves_played as usize) {
                    queue.push(now + lat, Ev::GrantArrive(id, client));
                }
            }
            Ev::GrantArrive(id, client) => {
                let m = &mut med[id.idx];
                let job_idx = m.next_job;
                m.next_job += 1;
                m.outstanding += 1;
                // Send the position to the client …
                queue.push(now + lat, Ev::PositionArrive(id, client, job_idx));
                // … and immediately ask for the next job's client, if any.
                let njobs = trace.steps[id.root_step].medians[id.idx].steps[m.step]
                    .jobs
                    .len();
                if m.next_job < njobs {
                    queue.push(now + lat, Ev::AskArrive(id));
                }
            }
            Ev::PositionArrive(id, client, job_idx) => {
                let m = &med[id.idx];
                let job = &trace.steps[id.root_step].medians[id.idx].steps[m.step].jobs[job_idx];
                let done_at = stations[client].assign(now, job.demand, nspu);
                queue.push(done_at, Ev::JobDone(id, client, job_idx));
            }
            Ev::JobDone(id, client, _job_idx) => {
                queue.push(now + lat, Ev::ResultArrive(id));
                if policy.uses_free_list() {
                    queue.push(now + lat, Ev::FreeArrive(client));
                }
            }
            Ev::FreeArrive(client) => {
                if let Some((median_idx, client)) = core.on_client_free(client) {
                    let id = MedianId {
                        root_step,
                        idx: median_idx,
                    };
                    queue.push(now + lat, Ev::GrantArrive(id, client));
                }
            }
            Ev::ResultArrive(id) => {
                let mtrace = &trace.steps[id.root_step].medians[id.idx];
                let m = &mut med[id.idx];
                m.outstanding -= 1;
                let njobs = mtrace.steps[m.step].jobs.len();
                if m.outstanding == 0 && m.next_job >= njobs {
                    // Median barrier cleared: advance its game.
                    m.step += 1;
                    m.next_job = 0;
                    if m.step < mtrace.steps.len() {
                        queue.push(now + lat, Ev::AskArrive(id));
                    } else if !m.done {
                        m.done = true;
                        medians_left -= 1;
                        if medians_left == 0 {
                            // Root barrier: all medians reported (one
                            // latency for the median→root result).
                            let root_now = now + lat;
                            makespan = makespan.max(root_now);
                            if let Some(step) = advance_until_live(
                                root_step + 1,
                                root_now,
                                &mut queue,
                                &mut med,
                                &mut medians_left,
                            ) {
                                root_step = step;
                            }
                        }
                    }
                }
            }
        }
    }

    finish(stations, makespan, trace.total_work)
}

/// Simulates the paper's single-client reference: the same trace with one
/// speed-1.0 client and the same policy/latency (this is what the "1
/// client" rows of Tables II–V measure).
pub fn single_client_reference(trace: &SearchTrace, cluster: &ClusterSpec) -> Time {
    let single = ClusterSpec::homogeneous(1)
        .with_ns_per_unit(cluster.ns_per_unit)
        .with_latency(cluster.latency);
    simulate_trace(trace, &single, DispatchPolicy::RoundRobin).makespan
}

/// Convenience: run one trace over a sweep of homogeneous cluster sizes,
/// returning `(n_clients, outcome)` pairs — one table column.
pub fn sweep_cluster_sizes(
    trace: &SearchTrace,
    sizes: &[usize],
    base: &ClusterSpec,
    policy: DispatchPolicy,
) -> Vec<(usize, SimOutcome)> {
    sizes
        .iter()
        .map(|&n| {
            let cluster = ClusterSpec::homogeneous(n)
                .with_ns_per_unit(base.ns_per_unit)
                .with_latency(base.latency);
            (n, simulate_trace(trace, &cluster, policy))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{run_reference, RunMode};
    use nmcs_games::SumGame;

    fn small_trace(mode: RunMode) -> SearchTrace {
        let g = SumGame::random(5, 3, 11);
        let (_, trace) = run_reference(&g, 2, 99, mode);
        trace
    }

    #[test]
    fn more_clients_never_slower_much() {
        let trace = small_trace(RunMode::FullGame);
        let base = ClusterSpec::homogeneous(1);
        let results = sweep_cluster_sizes(&trace, &[1, 2, 4, 8], &base, DispatchPolicy::LastMinute);
        for w in results.windows(2) {
            let (n0, a) = &w[0];
            let (n1, b) = &w[1];
            assert!(
                b.makespan <= a.makespan,
                "{n1} clients ({}) should not be slower than {n0} ({})",
                b.makespan,
                a.makespan
            );
        }
    }

    #[test]
    fn speedup_is_bounded_by_parallelism_and_positive() {
        // Zero latency isolates compute: speedup must land in [1, n].
        let trace = small_trace(RunMode::FullGame);
        let base = ClusterSpec::homogeneous(1)
            .with_ns_per_unit(1e6)
            .with_latency(0);
        let single = single_client_reference(&trace, &base);
        let out = simulate_trace(
            &trace,
            &ClusterSpec::homogeneous(4)
                .with_ns_per_unit(1e6)
                .with_latency(0),
            DispatchPolicy::LastMinute,
        );
        let s = out.speedup(single);
        assert!(s >= 1.0, "speedup {s} must be at least 1");
        assert!(s <= 4.0 + 1e-9, "speedup {s} cannot exceed client count");
    }

    #[test]
    fn latency_erodes_speedup() {
        // The regime the latency-sensitivity ablation (A2) sweeps: with
        // job service times near the message latency, protocol round
        // trips eat part of the parallel gain.
        let trace = small_trace(RunMode::FullGame);
        let speedup_at = |nspu: f64| {
            let c1 = ClusterSpec::homogeneous(1).with_ns_per_unit(nspu);
            let c8 = ClusterSpec::homogeneous(8).with_ns_per_unit(nspu);
            let t1 = simulate_trace(&trace, &c1, DispatchPolicy::LastMinute).makespan;
            let t8 = simulate_trace(&trace, &c8, DispatchPolicy::LastMinute).makespan;
            t1 as f64 / t8 as f64
        };
        let tiny_jobs = speedup_at(1.0); // ~10ns jobs, 100us latency
        let big_jobs = speedup_at(1e6); // ~10ms jobs
        assert!(
            big_jobs > tiny_jobs,
            "compute-bound speedup {big_jobs} should beat latency-bound {tiny_jobs}"
        );
    }

    #[test]
    fn both_policies_complete_with_identical_total_work() {
        let trace = small_trace(RunMode::FullGame);
        let c = ClusterSpec::homogeneous(3);
        let rr = simulate_trace(&trace, &c, DispatchPolicy::RoundRobin);
        let lm = simulate_trace(&trace, &c, DispatchPolicy::LastMinute);
        assert_eq!(rr.stats.jobs, lm.stats.jobs);
        assert_eq!(rr.stats.jobs, trace.client_jobs);
        assert_eq!(rr.stats.total_work, lm.stats.total_work);
    }

    #[test]
    fn first_move_trace_simulates_faster_than_full_game() {
        let first = small_trace(RunMode::FirstMove);
        let full = small_trace(RunMode::FullGame);
        let c = ClusterSpec::homogeneous(4);
        let tf = simulate_trace(&first, &c, DispatchPolicy::LastMinute).makespan;
        let tg = simulate_trace(&full, &c, DispatchPolicy::LastMinute).makespan;
        assert!(tf < tg, "first move {tf} vs full game {tg}");
    }

    #[test]
    fn heterogeneous_lm_beats_rr() {
        // The central claim of Table VI: with slow and fast clients mixed,
        // compute-dominated jobs and realistic job-size variance,
        // Last-Minute beats blind Round-Robin. (With *constant* job sizes
        // the two policies tie — medians advance in lockstep and there are
        // no stragglers to fix, which is itself asserted below.)
        use crate::model::TraceModel;
        let model = TraceModel {
            game_len: 24,
            branching0: 8.0,
            ..TraceModel::level3_like()
        };
        let trace = model.synthesize(RunMode::FullGame, 13);
        let cluster = ClusterSpec::hetero_8x4_8x2().with_ns_per_unit(1e3);
        let rr = simulate_trace(&trace, &cluster, DispatchPolicy::RoundRobin);
        let lm = simulate_trace(&trace, &cluster, DispatchPolicy::LastMinute);
        assert!(
            lm.makespan < rr.makespan,
            "LM {} should beat RR {} on a heterogeneous cluster",
            lm.makespan,
            rr.makespan
        );
    }

    #[test]
    fn constant_jobs_make_policies_comparable() {
        // Companion to `heterogeneous_lm_beats_rr`: without job-size
        // variance LM has no straggler to fix and lands within a few
        // percent of RR.
        let g = SumGame::random(10, 4, 3);
        let (_, trace) = run_reference(&g, 2, 5, RunMode::FullGame);
        let cluster = ClusterSpec::oversubscribed(2, 1).with_ns_per_unit(1e6);
        let rr = simulate_trace(&trace, &cluster, DispatchPolicy::RoundRobin).makespan as f64;
        let lm = simulate_trace(&trace, &cluster, DispatchPolicy::LastMinute).makespan as f64;
        let ratio = lm / rr;
        assert!(
            (0.8..1.25).contains(&ratio),
            "LM/RR ratio {ratio} should be near 1"
        );
    }

    #[test]
    fn deterministic_replay() {
        let trace = small_trace(RunMode::FullGame);
        let c = ClusterSpec::homogeneous(5);
        let a = simulate_trace(&trace, &c, DispatchPolicy::LastMinute);
        let b = simulate_trace(&trace, &c, DispatchPolicy::LastMinute);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_latency_single_client_makespan_is_total_service_time() {
        let trace = small_trace(RunMode::FullGame);
        let c = ClusterSpec::homogeneous(1).with_latency(0);
        let out = simulate_trace(&trace, &c, DispatchPolicy::RoundRobin);
        // With one client and no latency the makespan is exactly the sum
        // of service times (each demand rounded individually).
        let expected: Time = trace
            .steps
            .iter()
            .flat_map(|s| &s.medians)
            .flat_map(|m| &m.steps)
            .flat_map(|st| &st.jobs)
            .map(|j| ((j.demand as f64 * c.ns_per_unit).round() as Time).max(1))
            .sum();
        assert_eq!(out.makespan, expected);
    }

    #[test]
    fn recorded_timelines_account_for_all_busy_time() {
        let trace = small_trace(RunMode::FullGame);
        let cluster = ClusterSpec::homogeneous(4);
        let (out, timelines) =
            simulate_trace_recorded(&trace, &cluster, DispatchPolicy::LastMinute);
        assert_eq!(timelines.len(), 4);
        let recorded_busy: u64 = timelines.iter().map(|t| t.busy()).sum();
        // Total busy time equals the sum of per-job service times, which
        // the stats expose via utilisation × makespan × clients.
        let expected: f64 = out.stats.mean_utilisation * out.makespan as f64 * 4.0;
        let diff = (recorded_busy as f64 - expected).abs() / expected.max(1.0);
        assert!(
            diff < 1e-6,
            "recorded busy {recorded_busy} vs stats {expected}"
        );
        // And the unrecorded variant returns identical timing.
        let plain = simulate_trace(&trace, &cluster, DispatchPolicy::LastMinute);
        assert_eq!(plain.makespan, out.makespan);
    }

    #[test]
    fn latency_increases_makespan() {
        let trace = small_trace(RunMode::FullGame);
        let fast = ClusterSpec::homogeneous(4).with_latency(0);
        let slow = ClusterSpec::homogeneous(4).with_latency(1_000_000);
        let a = simulate_trace(&trace, &fast, DispatchPolicy::LastMinute).makespan;
        let b = simulate_trace(&trace, &slow, DispatchPolicy::LastMinute).makespan;
        assert!(b > a);
    }
}
