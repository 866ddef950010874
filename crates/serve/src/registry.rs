//! The server's job directory: engine job id → (tenant, handle).
//!
//! The engine's [`JobHandle`] is the single source of truth for job
//! state; this directory only adds the two things HTTP needs — lookup
//! by id after the submitting connection is gone, and a per-tenant
//! in-flight count for admission quotas. Terminal entries are retained
//! (bounded) so a poll shortly after completion still finds its result.
//!
//! Entries live in two lists under one lock. `live` holds the entries
//! not yet seen terminal; `done` holds the terminal ones, oldest first
//! by insertion order, and is sized once for the retention bound. Every
//! insert moves the entries of `live` that have finished since into
//! `done` and evicts from the front of `done` past the bound, so a job
//! still running is never evicted and one that finishes late is still
//! the oldest when it is retired. A submit's work — the quota gauge
//! and the insert — walks `live` only, asking each handle
//! [`JobHandle::is_terminal`] (a lock and a flag read, nothing built):
//! it does not grow with the number of finished jobs retained.

use nmcs_engine::{JobHandle, JobId};
use parking_lot::Mutex;
use std::collections::VecDeque;

struct Entry {
    /// Insertion order: `done` is sorted by it.
    seq: u64,
    id: JobId,
    tenant: String,
    handle: JobHandle,
}

struct Entries {
    /// Entries not yet seen terminal, in insertion order.
    live: Vec<Entry>,
    /// Terminal entries in insertion order; the front is evicted first.
    done: VecDeque<Entry>,
    next_seq: u64,
}

pub struct JobDirectory {
    entries: Mutex<Entries>,
    /// Terminal entries kept for late polls; older ones are evicted
    /// oldest-first once the count exceeds this.
    retain_terminal: usize,
}

impl JobDirectory {
    pub fn new(retain_terminal: usize) -> Self {
        JobDirectory {
            entries: Mutex::new(Entries {
                live: Vec::new(),
                // One over the bound: `insert` adds before it evicts.
                done: VecDeque::with_capacity(retain_terminal + 1),
                next_seq: 0,
            }),
            retain_terminal,
        }
    }

    /// Registers a freshly admitted job and prunes old terminal
    /// entries. The insert happens after the engine accepted the job,
    /// so every directory entry has a live handle.
    pub fn insert(&self, tenant: &str, handle: JobHandle) {
        let mut guard = self.entries.lock();
        let entries = &mut *guard;
        let seq = entries.next_seq;
        entries.next_seq += 1;
        entries.live.push(Entry {
            seq,
            id: handle.id(),
            tenant: tenant.to_string(),
            handle,
        });
        // Retire what finished since the last insert. Each lands at its
        // insertion-order place in `done` — the back, unless it ran past
        // entries that finished before it — and the oldest terminal
        // entry goes as soon as there is one too many, so `done` never
        // outgrows the capacity it was made with.
        for entry in entries.live.extract_if(.., |e| e.handle.is_terminal()) {
            let at = entries.done.partition_point(|e| e.seq < entry.seq);
            entries.done.insert(at, entry);
            if entries.done.len() > self.retain_terminal {
                entries.done.pop_front();
            }
        }
    }

    /// A clone of the job's handle (cheap: one `Arc`), for polling,
    /// waiting, or cancelling outside the directory lock. A running job
    /// is found in `live`; a finished one most likely among the newest
    /// of `done`.
    pub fn handle(&self, id: JobId) -> Option<JobHandle> {
        let entries = self.entries.lock();
        entries
            .live
            .iter()
            .chain(entries.done.iter().rev())
            .find(|e| e.id == id)
            .map(|e| e.handle.clone())
    }

    /// Non-terminal jobs currently registered for `tenant` — the quota
    /// gauge. Counted live from the handles so a finished job frees its
    /// quota slot without any reaper thread; only `live` can hold one.
    pub fn tenant_inflight(&self, tenant: &str) -> usize {
        self.entries
            .lock()
            .live
            .iter()
            .filter(|e| e.tenant == tenant && !e.handle.is_terminal())
            .count()
    }

    pub fn len(&self) -> usize {
        let entries = self.entries.lock();
        entries.live.len() + entries.done.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmcs_core::SearchSpec;
    use nmcs_engine::{Engine, EngineConfig, JobSpec};
    use nmcs_games::SumGame;
    use proptest::prelude::*;

    fn engine() -> Engine {
        Engine::start(EngineConfig {
            workers: 1,
            queue_capacity: 16,
        })
        .unwrap()
    }

    fn job(name: &str, seed: u64) -> JobSpec {
        JobSpec::from_spec(
            name,
            SumGame::random(3, 3, seed),
            SearchSpec::sample().seed(seed).build(),
        )
    }

    /// Every entry's id, in insertion order.
    fn ids(dir: &JobDirectory) -> Vec<JobId> {
        let entries = dir.entries.lock();
        let mut all: Vec<_> = entries.live.iter().chain(&entries.done).collect();
        all.sort_by_key(|e| e.seq);
        all.into_iter().map(|e| e.id).collect()
    }

    #[test]
    fn quota_gauge_counts_only_non_terminal_jobs_per_tenant() {
        let e = engine();
        let dir = JobDirectory::new(64);
        let handles: Vec<_> = (0..3).map(|i| e.submit(job("acme", i)).unwrap()).collect();
        for h in &handles {
            dir.insert("acme", h.clone());
        }
        dir.insert("other", e.submit(job("other", 9)).unwrap());
        assert_eq!(dir.len(), 4);
        // Drain everything; the gauge must fall to zero with no reaper.
        for h in handles {
            h.join();
        }
        let other_id = ids(&dir)[3];
        dir.handle(other_id).unwrap().wait();
        assert_eq!(dir.tenant_inflight("acme"), 0);
        assert_eq!(dir.tenant_inflight("other"), 0);
        assert_eq!(dir.tenant_inflight("unknown"), 0);
        e.shutdown();
    }

    #[test]
    fn terminal_entries_are_retained_then_evicted_oldest_first() {
        let e = engine();
        let dir = JobDirectory::new(2);
        let mut submitted = Vec::new();
        for i in 0..5 {
            let h = e.submit(job("t", i)).unwrap();
            submitted.push(h.id());
            h.clone().join(); // terminal before its own insert
            dir.insert("t", h);
            // Never more than the two newest, in submission order.
            let keep = submitted.len().saturating_sub(2);
            assert_eq!(ids(&dir), submitted[keep..], "after insert {i}");
        }
        assert!(dir.handle(submitted[4]).is_some());
        assert!(dir.handle(submitted[0]).is_none());
        e.shutdown();
    }

    #[test]
    fn a_parked_job_between_terminal_ones_is_kept_and_counted() {
        let e = engine(); // one worker
        let dir = JobDirectory::new(2);
        let done: Vec<_> = (0..4)
            .map(|i| {
                let h = e.submit(job("t", i)).unwrap();
                h.wait();
                h
            })
            .collect();
        // Pin the worker, then park a job of tenant "t" behind it. A
        // failed assertion unwinds through `blocker` before `e`, so the
        // engine's drop does not wait for the search.
        let blocker = Running::on(&e, 1);
        let blocker = &blocker.handle;
        let parked = e.submit(job("t", 9)).unwrap();
        assert!(!parked.is_terminal());

        dir.insert("busy", blocker.clone());
        dir.insert("t", done[0].clone());
        dir.insert("t", done[1].clone());
        dir.insert("t", parked.clone());
        dir.insert("t", done[2].clone()); // third terminal entry: evicts done[0]
        dir.insert("t", done[3].clone()); // fourth: evicts done[1], steps over `parked`
        assert_eq!(
            ids(&dir),
            [blocker.id(), parked.id(), done[2].id(), done[3].id()],
            "only terminal entries are evicted, oldest first"
        );
        assert_eq!(dir.tenant_inflight("t"), 1, "the parked job holds its slot");
        assert_eq!(dir.tenant_inflight("busy"), 1);

        // Both finish (cancelled): the slots free themselves, and the
        // next insert retires them as the oldest terminal entries.
        blocker.cancel();
        blocker.wait();
        parked.wait();
        assert_eq!(dir.tenant_inflight("t"), 0);
        assert_eq!(dir.tenant_inflight("busy"), 0);
        let last = e.submit(job("t", 10)).unwrap();
        last.wait();
        dir.insert("t", last.clone());
        assert_eq!(ids(&dir), [done[3].id(), last.id()]);
        e.shutdown();
    }

    /// A job held running until the test finishes it; dropped
    /// unfinished (a failed case), it is cancelled so the engine's
    /// shutdown does not wait for the search.
    struct Running {
        handle: JobHandle,
        /// The engine of its own the job runs on, if it has one; dropped
        /// after the job is cancelled.
        _engine: Option<Engine>,
    }

    impl Running {
        /// A job that runs for minutes, on `engine`.
        fn on(engine: &Engine, seed: u64) -> Self {
            let handle = engine
                .submit(JobSpec::from_spec(
                    "busy",
                    morpion::standard_5d(),
                    SearchSpec::nested(3).seed(seed).build(),
                ))
                .unwrap();
            Running {
                handle,
                _engine: None,
            }
        }

        /// A job that runs for minutes, on an engine of its own.
        fn start(seed: u64) -> Self {
            let engine = engine();
            let mut job = Running::on(&engine, seed);
            job._engine = Some(engine);
            job
        }
    }

    impl Drop for Running {
        fn drop(&mut self) {
            self.handle.cancel();
        }
    }

    /// The directory's rules as one insertion-ordered `Vec`, every
    /// walk over every entry: the reference the split lists must match.
    struct Model {
        entries: Vec<(JobId, &'static str, JobHandle)>,
        retain_terminal: usize,
    }

    impl Model {
        fn insert(&mut self, tenant: &'static str, handle: JobHandle) {
            self.entries.push((handle.id(), tenant, handle));
            let terminal = self.entries.iter().filter(|e| e.2.is_terminal()).count();
            let mut evict = terminal.saturating_sub(self.retain_terminal);
            self.entries.retain(|e| {
                if evict > 0 && e.2.is_terminal() {
                    evict -= 1;
                    false
                } else {
                    true
                }
            });
        }

        fn handle(&self, id: JobId) -> Option<JobId> {
            self.entries.iter().find(|e| e.0 == id).map(|e| e.0)
        }

        fn tenant_inflight(&self, tenant: &str) -> usize {
            self.entries
                .iter()
                .filter(|e| e.1 == tenant && !e.2.is_terminal())
                .count()
        }

        fn ids(&self) -> Vec<JobId> {
            self.entries.iter().map(|e| e.0).collect()
        }
    }

    const TENANTS: [&str; 2] = ["a", "b"];

    /// At most this many jobs run at once, each on an engine of its own.
    const MAX_RUNNING: usize = 3;

    #[derive(Debug, Clone)]
    enum Op {
        /// Insert a job that is still running, for tenant `TENANTS[t]`.
        InsertRunning(usize),
        /// Insert a job that already finished.
        InsertFinished(usize),
        /// Cancel one of the running jobs and wait until it is terminal.
        Finish(usize),
        /// Look up one of the ids inserted so far (evicted or not).
        Handle(usize),
        TenantInflight(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0usize..2).prop_map(Op::InsertRunning),
            (0usize..2).prop_map(Op::InsertFinished),
            (0usize..2).prop_map(Op::InsertFinished),
            (0usize..8).prop_map(Op::Finish),
            (0usize..64).prop_map(Op::Handle),
            (0usize..2).prop_map(Op::TenantInflight),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Any interleaving of inserts, finishes and lookups leaves the
        /// directory agreeing with the one-`Vec` model: the same ids in
        /// insertion order (so terminal entries only are evicted, oldest
        /// first), the same lookups and the same quota gauge.
        #[test]
        fn the_split_directory_matches_the_single_list_model(
            retain in 0usize..4,
            ops in proptest::collection::vec(op(), 1..40),
        ) {
            let finisher = engine();
            let dir = JobDirectory::new(retain);
            let mut model = Model { entries: Vec::new(), retain_terminal: retain };
            let mut running: Vec<Running> = Vec::new();
            let mut inserted: Vec<JobId> = Vec::new();
            for (step, op) in ops.iter().enumerate() {
                let seed = step as u64;
                match *op {
                    Op::InsertRunning(t) if running.len() < MAX_RUNNING => {
                        let job = Running::start(seed);
                        dir.insert(TENANTS[t], job.handle.clone());
                        model.insert(TENANTS[t], job.handle.clone());
                        inserted.push(job.handle.id());
                        running.push(job);
                    }
                    Op::InsertRunning(t) | Op::InsertFinished(t) => {
                        let handle = finisher.submit(job(TENANTS[t], seed)).unwrap();
                        handle.wait();
                        dir.insert(TENANTS[t], handle.clone());
                        model.insert(TENANTS[t], handle.clone());
                        inserted.push(handle.id());
                    }
                    Op::Finish(k) => {
                        if !running.is_empty() {
                            let job = running.remove(k % running.len());
                            job.handle.cancel();
                            job.handle.wait();
                        }
                    }
                    Op::Handle(k) => {
                        let id = inserted.get(k % (inserted.len() + 1)).copied().unwrap_or(JobId::MAX);
                        prop_assert_eq!(dir.handle(id).map(|h| h.id()), model.handle(id));
                    }
                    Op::TenantInflight(t) => {
                        prop_assert_eq!(
                            dir.tenant_inflight(TENANTS[t]),
                            model.tenant_inflight(TENANTS[t])
                        );
                    }
                }
                prop_assert_eq!(ids(&dir), model.ids(), "after step {} ({:?})", step, op);
                prop_assert_eq!(dir.len(), model.entries.len());
                for tenant in TENANTS {
                    prop_assert_eq!(dir.tenant_inflight(tenant), model.tenant_inflight(tenant));
                }
            }
            drop(running);
            finisher.shutdown();
        }
    }
}
