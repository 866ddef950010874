//! The server's job directory: engine job id → (tenant, handle).
//!
//! The engine's [`JobHandle`] is the single source of truth for job
//! state; this directory only adds the two things HTTP needs — lookup
//! by id after the submitting connection is gone, and a per-tenant
//! in-flight count for admission quotas. Terminal entries are retained
//! (bounded) so a poll shortly after completion still finds its result.
//!
//! Every submit walks the retained entries (the quota gauge once, the
//! retention count once more), so the walk asks each handle only
//! [`JobHandle::is_terminal`] — a lock and a flag read, nothing built.

use nmcs_engine::{JobHandle, JobId};
use parking_lot::Mutex;

struct Entry {
    id: JobId,
    tenant: String,
    handle: JobHandle,
}

pub struct JobDirectory {
    entries: Mutex<Vec<Entry>>,
    /// Terminal entries kept for late polls; older ones are evicted
    /// oldest-first once the count exceeds this.
    retain_terminal: usize,
}

impl JobDirectory {
    pub fn new(retain_terminal: usize) -> Self {
        JobDirectory {
            entries: Mutex::new(Vec::new()),
            retain_terminal,
        }
    }

    /// Registers a freshly admitted job and prunes old terminal
    /// entries. The insert happens after the engine accepted the job,
    /// so every directory entry has a live handle.
    pub fn insert(&self, tenant: &str, handle: JobHandle) {
        let mut entries = self.entries.lock();
        entries.push(Entry {
            id: handle.id(),
            tenant: tenant.to_string(),
            handle,
        });
        let terminal = entries.iter().filter(|e| e.handle.is_terminal()).count();
        if terminal > self.retain_terminal {
            let mut evict = terminal - self.retain_terminal;
            entries.retain(|e| {
                if evict > 0 && e.handle.is_terminal() {
                    evict -= 1;
                    false
                } else {
                    true
                }
            });
        }
    }

    /// A clone of the job's handle (cheap: one `Arc`), for polling,
    /// waiting, or cancelling outside the directory lock.
    pub fn handle(&self, id: JobId) -> Option<JobHandle> {
        self.entries
            .lock()
            .iter()
            .find(|e| e.id == id)
            .map(|e| e.handle.clone())
    }

    /// Non-terminal jobs currently registered for `tenant` — the quota
    /// gauge. Counted live from the handles so a finished job frees its
    /// quota slot without any reaper thread.
    pub fn tenant_inflight(&self, tenant: &str) -> usize {
        self.entries
            .lock()
            .iter()
            .filter(|e| e.tenant == tenant && !e.handle.is_terminal())
            .count()
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmcs_core::SearchSpec;
    use nmcs_engine::{Engine, EngineConfig, JobSpec};
    use nmcs_games::SumGame;

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
        let other_id = dir.entries.lock()[3].id;
        dir.handle(other_id).unwrap().wait();
        assert_eq!(dir.tenant_inflight("acme"), 0);
        assert_eq!(dir.tenant_inflight("other"), 0);
        assert_eq!(dir.tenant_inflight("unknown"), 0);
        e.shutdown();
    }

    fn ids(dir: &JobDirectory) -> Vec<JobId> {
        dir.entries.lock().iter().map(|e| e.id).collect()
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
        // Pin the worker, then park a job of tenant "t" behind it.
        let blocker = e
            .submit(JobSpec::from_spec(
                "busy",
                morpion::standard_5d(),
                SearchSpec::nested(3).seed(1).build(),
            ))
            .unwrap();
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
}
