//! The engine's one queue: a bounded FIFO of replica tasks that workers
//! pull from when free — the paper's Last-Minute rule (a job goes to a
//! client only when that client reports free), so nothing piles up
//! behind a busy worker while another idles.
//!
//! It is also the engine's admission control: its capacity bounds the
//! engine's queued memory exactly (every admitted-but-unstarted replica
//! is in here), and a full queue pushes back on submitters —
//! [`BoundedQueue::push_all`] blocks, [`BoundedQueue::try_push_all`]
//! fails fast (both all-or-nothing, so a multi-replica job is never
//! half-admitted). "Closed" is the queue's own state: a
//! [`BoundedQueue::pop`] that returns `None` is a worker's signal to
//! exit.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity (try-only; blocking pushes wait instead).
    Full,
    /// The queue was closed by shutdown.
    Closed,
}

struct Inner<T> {
    queue: VecDeque<T>,
    closed: bool,
    peak: usize,
}

pub(crate) struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        BoundedQueue {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                closed: false,
                peak: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock()
    }

    /// Admits a whole batch under the held lock and wakes one popper
    /// per item.
    fn append(&self, mut inner: MutexGuard<'_, Inner<T>>, items: Vec<T>) {
        let n = items.len();
        inner.queue.extend(items);
        inner.peak = inner.peak.max(inner.queue.len());
        drop(inner);
        for _ in 0..n {
            self.not_empty.notify_one();
        }
    }

    /// Blocking push of a whole batch: waits until the queue has room
    /// for *every* item, then admits them atomically — a multi-replica
    /// job is never half-admitted, even across a concurrent `close()`.
    ///
    /// Returns `Closed` (with the items handed back) if the queue shuts
    /// down before space appears, and `Full` immediately when the batch
    /// can *never* fit (`items.len() > capacity`) — waiting would
    /// deadlock.
    pub fn push_all(&self, items: Vec<T>) -> Result<(), (PushError, Vec<T>)> {
        if items.len() > self.capacity {
            return Err((PushError::Full, items));
        }
        let mut inner = self.lock();
        loop {
            if inner.closed {
                return Err((PushError::Closed, items));
            }
            if self.capacity - inner.queue.len() >= items.len() {
                self.append(inner, items);
                return Ok(());
            }
            self.not_full.wait(&mut inner);
        }
    }

    /// Non-blocking push of a whole batch; either every item is admitted
    /// or none is.
    pub fn try_push_all(&self, items: Vec<T>) -> Result<(), (PushError, Vec<T>)> {
        let inner = self.lock();
        if inner.closed {
            return Err((PushError::Closed, items));
        }
        if self.capacity - inner.queue.len() < items.len() {
            return Err((PushError::Full, items));
        }
        self.append(inner, items);
        Ok(())
    }

    /// Blocks until an item is available and returns the oldest one;
    /// `None` once the queue is closed *and* drained. Wakes **every**
    /// blocked pusher: batch pushers wait for different amounts of room,
    /// so waking only one could leave a small batch asleep behind a
    /// large one that still does not fit.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.queue.pop_front() {
                drop(inner);
                self.not_full.notify_all();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            self.not_empty.wait(&mut inner);
        }
    }

    /// Closes the queue: pending items remain poppable, new pushes fail,
    /// and blocked pushers and poppers wake up.
    pub fn close(&self) {
        let mut inner = self.lock();
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Highest queue depth ever observed — the memory-bound witness used
    /// by the backpressure tests.
    pub fn peak(&self) -> usize {
        self.lock().peak
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the tests race the queue from threads of their own"
)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn try_push_all_is_all_or_nothing() {
        let q: BoundedQueue<u32> = BoundedQueue::new(3);
        q.try_push_all(vec![1, 2]).unwrap();
        let (err, returned) = q.try_push_all(vec![3, 4]).unwrap_err();
        assert_eq!(err, PushError::Full);
        assert_eq!(returned, vec![3, 4]);
        assert_eq!(q.len(), 2);
        q.try_push_all(vec![3]).unwrap();
        assert_eq!(q.peak(), 3);
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        q.push_all(vec![1]).unwrap();
        let q2 = q.clone();
        let t = thread::spawn(move || q2.push_all(vec![2]));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1, "push must still be blocked");
        assert_eq!(q.pop(), Some(1));
        t.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_wakes_blocked_pushers_with_a_shutdown_error() {
        // Regression shape of the engine-drop audit: a submitter blocked
        // in `push_all` on a full queue must wake with `Closed` when the
        // queue shuts down — never hang forever, and never sneak its
        // item in after the close.
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        q.push_all(vec![1]).unwrap();
        let q2 = q.clone();
        let t = thread::spawn(move || q2.push_all(vec![2]));
        thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished(), "pusher must be blocked on the full queue");
        q.close();
        assert_eq!(t.join().unwrap(), Err((PushError::Closed, vec![2])));
        // The pending item survives the close; the refused one does not.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_pushers_even_when_space_frees_up() {
        // A racier shape: close *then* drain. The woken pusher sees the
        // closed flag before the free slot and still errors out.
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        q.push_all(vec![1]).unwrap();
        let q2 = q.clone();
        let t = thread::spawn(move || q2.push_all(vec![2]));
        thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(t.join().unwrap(), Err((PushError::Closed, vec![2])));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn close_wakes_poppers_and_rejects_pushes() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = q.clone();
        let t = thread::spawn(move || q2.pop());
        thread::sleep(Duration::from_millis(10));
        q.close();
        assert_eq!(t.join().unwrap(), None);
        assert_eq!(q.push_all(vec![1]), Err((PushError::Closed, vec![1])));
    }

    #[test]
    fn push_all_blocks_until_the_whole_batch_fits() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        q.try_push_all(vec![1, 2, 3]).unwrap();
        let q2 = q.clone();
        let t = thread::spawn(move || q2.push_all(vec![4, 5, 6]));
        thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished(), "batch must wait: only 1 slot free");
        assert_eq!(q.pop(), Some(1));
        thread::sleep(Duration::from_millis(20));
        assert!(!t.is_finished(), "batch must wait: only 2 slots free");
        assert_eq!(q.pop(), Some(2));
        t.join().unwrap().unwrap();
        assert_eq!(q.len(), 4);
        // Nothing interleaved into the middle of the batch.
        let rest: Vec<u32> = (0..4).filter_map(|_| q.pop()).collect();
        assert_eq!(rest, vec![3, 4, 5, 6]);
    }

    #[test]
    fn push_all_refuses_batches_that_can_never_fit() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        let (err, returned) = q.push_all(vec![1, 2, 3]).unwrap_err();
        assert_eq!(err, PushError::Full);
        assert_eq!(returned, vec![1, 2, 3]);
        assert_eq!(q.len(), 0);
    }

    /// Batch pushers wait for different amounts of room, so a freed slot
    /// must wake all of them: waking only the longest waiter would leave
    /// the one-item pusher asleep behind a three-item batch that still
    /// does not fit.
    #[test]
    fn a_freed_slot_wakes_the_small_waiter_behind_a_large_one() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        q.try_push_all(vec![1, 2, 3, 4]).unwrap();
        let (qa, qb) = (q.clone(), q.clone());
        let a = thread::spawn(move || qa.push_all(vec![10, 11, 12]));
        thread::sleep(Duration::from_millis(20)); // A queues up first
        let b = thread::spawn(move || qb.push_all(vec![20]));
        thread::sleep(Duration::from_millis(20));
        assert!(!a.is_finished() && !b.is_finished(), "queue is full");

        assert_eq!(q.pop(), Some(1));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !b.is_finished() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        assert!(b.is_finished(), "B's single slot is free: it must wake");
        b.join().unwrap().unwrap();
        assert!(!a.is_finished(), "A still lacks room for its batch");
        q.close();
        assert_eq!(
            a.join().unwrap(),
            Err((PushError::Closed, vec![10, 11, 12]))
        );
    }

    /// The submit-vs-close hammer: many threads blocking-push batches
    /// while another thread closes the queue mid-storm. Every pusher
    /// must return — `Ok` with the whole batch admitted, or `Closed`
    /// with the whole batch handed back — never hang, never lose or
    /// half-admit a batch.
    #[test]
    fn push_all_vs_close_hammer_never_hangs_or_tears_a_batch() {
        for round in 0..50 {
            let q: Arc<BoundedQueue<u64>> = Arc::new(BoundedQueue::new(4));
            let pushers: Vec<_> = (0..8u64)
                .map(|p| {
                    let q = q.clone();
                    thread::spawn(move || {
                        let batch: Vec<u64> = (0..3).map(|i| p * 100 + i).collect();
                        q.push_all(batch.clone()).map_err(|(e, back)| {
                            assert_eq!(e, PushError::Closed);
                            assert_eq!(back, batch, "refused batch handed back intact");
                        })
                    })
                })
                .collect();
            // A popper drains slowly so some pushers are mid-wait when
            // the close lands; vary the drain to move the race window.
            let drained = {
                let q = q.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..(round % 7) {
                        got.extend(q.pop());
                        got.extend(q.pop());
                        thread::yield_now();
                    }
                    got
                })
            };
            q.close();
            let mut admitted = drained.join().unwrap();
            let mut ok = 0;
            for t in pushers {
                if t.join().unwrap().is_ok() {
                    ok += 1;
                }
            }
            while let Some(v) = q.pop() {
                admitted.push(v);
            }
            // Conservation: exactly the accepted batches are in the
            // queue (or were drained), whole and untorn.
            assert_eq!(admitted.len(), ok * 3, "round {round}");
            admitted.sort_unstable();
            for chunk in admitted.chunks(3) {
                assert_eq!(chunk[1], chunk[0] + 1, "torn batch: {admitted:?}");
                assert_eq!(chunk[2], chunk[0] + 2, "torn batch: {admitted:?}");
            }
        }
    }
}
