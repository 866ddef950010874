//! # cluster-rt — an MPI-like in-process message-passing runtime
//!
//! The paper's implementation uses Open MPI with the master/slave model
//! and a single global communicator (§V). This crate reproduces those
//! semantics inside one OS process so the identical role code (root,
//! median, dispatcher, client) runs with true parallelism on local cores:
//!
//! * a [`World`] of `n` ranks, each with an unbounded FIFO mailbox;
//! * blocking any-source receive ([`Endpoint::recv`]) and *selective*
//!   receive with buffering ([`Endpoint::recv_matching`]), the moral
//!   equivalent of `MPI_Recv` with a source/tag filter — needed because a
//!   median may receive late client scores while it waits for a
//!   dispatcher reply;
//! * optional message tracing ([`World::new_traced`]) used by the tests
//!   that assert the communication patterns of the paper's Figures 2–5.
//!
//! The runtime is generic over the message type; the parallel-NMCS
//! protocol lives in the `parallel-nmcs` crate.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// A process identifier, `0 .. world_size`.
pub type Rank = usize;

/// A received message with its provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    pub from: Rank,
    pub msg: M,
}

/// Messages that can label themselves for tracing; mirrors MPI tags.
pub trait Tagged {
    /// A short static label ("EvalRequest", "Score", …).
    fn tag(&self) -> &'static str;
}

/// One recorded message transmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    pub from: Rank,
    pub to: Rank,
    pub tag: &'static str,
}

/// A shared, append-only message log.
pub type Trace = Arc<Mutex<Vec<TraceEntry>>>;

/// Error returned by [`Endpoint::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message arrived within the deadline.
    Timeout,
    /// Every sender is gone; no message can ever arrive.
    Disconnected,
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => f.write_str("receive timed out"),
            RecvError::Disconnected => f.write_str("all senders disconnected"),
        }
    }
}

impl std::error::Error for RecvError {}

struct Shared<M> {
    senders: Vec<Sender<Envelope<M>>>,
    trace: Option<Trace>,
}

/// A communicator over `n` ranks (the `MPI_COMM_WORLD` analogue).
///
/// Construct it, then [`World::take_endpoint`] exactly once per rank and
/// move each endpoint into its thread.
pub struct World<M> {
    shared: Arc<Shared<M>>,
    receivers: Vec<Option<Receiver<Envelope<M>>>>,
}

impl<M: Send + Tagged> World<M> {
    /// A world of `n` ranks.
    pub fn new(n: usize) -> Self {
        Self::build(n, None)
    }

    /// A world of `n` ranks that records every transmission into the
    /// returned trace.
    pub fn new_traced(n: usize) -> (Self, Trace) {
        let trace: Trace = Arc::new(Mutex::new(Vec::new()));
        (Self::build(n, Some(trace.clone())), trace)
    }

    fn build(n: usize, trace: Option<Trace>) -> Self {
        assert!(n > 0, "a world needs at least one rank");
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        Self {
            shared: Arc::new(Shared { senders, trace }),
            receivers,
        }
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.shared.senders.len()
    }

    /// Takes ownership of `rank`'s endpoint. Panics if taken twice.
    pub fn take_endpoint(&mut self, rank: Rank) -> Endpoint<M> {
        let receiver = self.receivers[rank]
            .take()
            .unwrap_or_else(|| panic!("endpoint {rank} already taken"));
        Endpoint {
            rank,
            shared: self.shared.clone(),
            receiver,
            stash: VecDeque::new(),
        }
    }
}

/// One rank's connection to the world. Owned by exactly one thread.
pub struct Endpoint<M> {
    rank: Rank,
    shared: Arc<Shared<M>>,
    receiver: Receiver<Envelope<M>>,
    /// Messages set aside by selective receives, delivered FIFO later.
    stash: VecDeque<Envelope<M>>,
}

impl<M: Send + Tagged> Endpoint<M> {
    /// This endpoint's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn world_size(&self) -> usize {
        self.shared.senders.len()
    }

    /// Sends `msg` to `to` (never blocks; mailboxes are unbounded).
    pub fn send(&self, to: Rank, msg: M) {
        if let Some(trace) = &self.shared.trace {
            trace.lock().push(TraceEntry {
                from: self.rank,
                to,
                tag: msg.tag(),
            });
        }
        // A send to a dropped endpoint is a no-op, like MPI after a peer
        // finalises during shutdown.
        let _ = self.shared.senders[to].send(Envelope {
            from: self.rank,
            msg,
        });
    }

    /// Blocking any-source receive, FIFO among stashed-then-fresh
    /// messages.
    pub fn recv(&mut self) -> Envelope<M> {
        if let Some(env) = self.stash.pop_front() {
            return env;
        }
        self.receiver.recv().expect("world dropped while receiving")
    }

    /// Any-source receive with a deadline.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Envelope<M>, RecvError> {
        if let Some(env) = self.stash.pop_front() {
            return Ok(env);
        }
        self.receiver.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvError::Timeout,
            RecvTimeoutError::Disconnected => RecvError::Disconnected,
        })
    }

    /// Blocking receive of the first message satisfying `pred`; messages
    /// that do not match are stashed and later returned by ordinary
    /// receives, preserving their arrival order (the `MPI_Recv`
    /// source/tag-matching analogue).
    pub fn recv_matching(&mut self, mut pred: impl FnMut(&Envelope<M>) -> bool) -> Envelope<M> {
        if let Some(i) = self.stash.iter().position(&mut pred) {
            return self.stash.remove(i).expect("index valid");
        }
        loop {
            let env = self.receiver.recv().expect("world dropped while receiving");
            if pred(&env) {
                return env;
            }
            self.stash.push_back(env);
        }
    }

    /// Non-blocking probe: is a message available right now?
    pub fn has_pending(&self) -> bool {
        !self.stash.is_empty() || !self.receiver.is_empty()
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the tests run ranks on threads of their own"
)]
mod tests {
    use super::*;
    use std::thread;

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    impl Tagged for Msg {
        fn tag(&self) -> &'static str {
            match self {
                Msg::Ping(_) => "Ping",
                Msg::Pong(_) => "Pong",
            }
        }
    }

    #[test]
    fn ping_pong_between_two_ranks() {
        let mut world = World::<Msg>::new(2);
        let mut a = world.take_endpoint(0);
        let mut b = world.take_endpoint(1);
        let t = thread::spawn(move || {
            let env = b.recv();
            assert_eq!(env.from, 0);
            assert_eq!(env.msg, Msg::Ping(7));
            b.send(0, Msg::Pong(7));
        });
        a.send(1, Msg::Ping(7));
        let env = a.recv();
        assert_eq!(env.from, 1);
        assert_eq!(env.msg, Msg::Pong(7));
        t.join().unwrap();
    }

    #[test]
    fn mailbox_is_fifo_per_sender() {
        let mut world = World::<Msg>::new(2);
        let a = world.take_endpoint(0);
        let mut b = world.take_endpoint(1);
        for i in 0..100 {
            a.send(1, Msg::Ping(i));
        }
        for i in 0..100 {
            assert_eq!(b.recv().msg, Msg::Ping(i));
        }
    }

    #[test]
    fn recv_matching_stashes_and_preserves_order() {
        let mut world = World::<Msg>::new(2);
        let a = world.take_endpoint(0);
        let mut b = world.take_endpoint(1);
        a.send(1, Msg::Ping(1));
        a.send(1, Msg::Ping(2));
        a.send(1, Msg::Pong(3));
        a.send(1, Msg::Ping(4));
        // Selectively take the Pong first.
        let pong = b.recv_matching(|e| matches!(e.msg, Msg::Pong(_)));
        assert_eq!(pong.msg, Msg::Pong(3));
        // The stashed Pings then arrive in their original order.
        assert_eq!(b.recv().msg, Msg::Ping(1));
        assert_eq!(b.recv().msg, Msg::Ping(2));
        assert_eq!(b.recv().msg, Msg::Ping(4));
    }

    #[test]
    fn recv_matching_finds_match_in_stash_first() {
        let mut world = World::<Msg>::new(2);
        let a = world.take_endpoint(0);
        let mut b = world.take_endpoint(1);
        a.send(1, Msg::Pong(1));
        a.send(1, Msg::Ping(2));
        let ping = b.recv_matching(|e| matches!(e.msg, Msg::Ping(_)));
        assert_eq!(ping.msg, Msg::Ping(2));
        // The selective receive for Pong must find it in the stash.
        let pong = b.recv_matching(|e| matches!(e.msg, Msg::Pong(_)));
        assert_eq!(pong.msg, Msg::Pong(1));
    }

    #[test]
    fn recv_timeout_times_out_without_traffic() {
        let mut world = World::<Msg>::new(2);
        let _a = world.take_endpoint(0);
        let mut b = world.take_endpoint(1);
        let err = b.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, RecvError::Timeout);
    }

    #[test]
    fn trace_records_every_send_in_order() {
        let (mut world, trace) = World::<Msg>::new_traced(3);
        let a = world.take_endpoint(0);
        let b = world.take_endpoint(1);
        let mut c = world.take_endpoint(2);
        a.send(2, Msg::Ping(1));
        b.send(2, Msg::Pong(2));
        c.recv();
        c.recv();
        let log = trace.lock();
        assert_eq!(
            *log,
            vec![
                TraceEntry {
                    from: 0,
                    to: 2,
                    tag: "Ping"
                },
                TraceEntry {
                    from: 1,
                    to: 2,
                    tag: "Pong"
                },
            ]
        );
    }

    #[test]
    fn many_to_one_under_contention() {
        let mut world = World::<Msg>::new(9);
        let mut sink = world.take_endpoint(0);
        let mut handles = Vec::new();
        for r in 1..9 {
            let e = world.take_endpoint(r);
            handles.push(thread::spawn(move || {
                for i in 0..50 {
                    e.send(0, Msg::Ping(i));
                }
            }));
        }
        let mut count = 0;
        let mut per_sender = [0u32; 9];
        while count < 400 {
            let env = sink.recv();
            // FIFO per sender even under interleaving.
            if let Msg::Ping(i) = env.msg {
                assert_eq!(i, per_sender[env.from], "sender {} out of order", env.from);
                per_sender[env.from] += 1;
            }
            count += 1;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(per_sender[1..].iter().all(|&c| c == 50));
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn endpoint_cannot_be_taken_twice() {
        let mut world = World::<Msg>::new(1);
        let _one = world.take_endpoint(0);
        let _two = world.take_endpoint(0);
    }

    #[test]
    fn send_to_dropped_endpoint_is_noop() {
        let mut world = World::<Msg>::new(2);
        let a = world.take_endpoint(0);
        let b = world.take_endpoint(1);
        drop(b);
        a.send(1, Msg::Ping(0)); // must not panic
    }

    #[test]
    fn has_pending_reflects_mailbox_state() {
        let mut world = World::<Msg>::new(2);
        let a = world.take_endpoint(0);
        let mut b = world.take_endpoint(1);
        assert!(!b.has_pending());
        a.send(1, Msg::Ping(0));
        // Unbounded channel: the send has completed synchronously.
        assert!(b.has_pending());
        b.recv();
        assert!(!b.has_pending());
    }
}
