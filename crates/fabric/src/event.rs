//! The event queue at the heart of the discrete-event kernel.
//!
//! Events are totally ordered by [`EventKey`] = `(time, src, seq)`: two
//! events scheduled for the same instant fire in the order their keys
//! compare, which makes every simulation run fully deterministic. The
//! `src` component exists for the *parallel* fabric engine: each shard of
//! a sharded simulation stamps the events it schedules with its own shard
//! index and a shard-local sequence number, so the interleaving of
//! same-instant events is a pure function of the model — independent of
//! which worker thread ran which shard, and independent of thread count.
//! Single-queue users never see it: [`EventQueue::schedule_at`] stamps
//! `src = 0` and a queue-local sequence, which reduces to the classic
//! `(time, seq)` FIFO-within-instant order.
//!
//! # One structure
//!
//! The queue is a `std::collections::BinaryHeap` of `(EventKey, E)`
//! entries ordered by the key alone; payloads live in the heap itself.
//! Ladder, calendar and population-adaptive backends, and a slab arena
//! that kept payloads out of the heap, were measured against it on the
//! fabric workloads and never won outside the run-to-run spread. The heap
//! only grows to its high-water population, so a steady schedule/pop loop
//! touches no allocator (the `alloc_regression` suite counts). It is both
//! the production queue and its own oracle; the randomized test below
//! checks it against a sorted-`Vec` model.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Total order on events: time first, then the scheduling source (shard
/// index in sharded simulations, 0 otherwise), then the source-local
/// sequence number. Unique per event, so the order is total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Absolute firing time.
    pub at: SimTime,
    /// Scheduling source (shard index); 0 for single-queue users.
    pub src: u32,
    /// Source-local sequence number; unique per `src`.
    pub seq: u64,
}

/// One heap entry: a payload under its key. Ordered by the key alone
/// (keys are unique), so `E` needs no ordering of its own.
#[derive(Debug)]
struct Entry<E>(EventKey, E);

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }
}

/// A time-ordered queue of events of type `E`.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at` (source 0, local
    /// sequence — FIFO within the same instant).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_keyed(EventKey { at, src: 0, seq }, event);
    }

    /// Schedule `event` under an explicit key. The sharded engine uses
    /// this to stamp events with `(shard, shard-local seq)` so merge
    /// order is deterministic across thread counts. Keys must be unique.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    pub fn schedule_keyed(&mut self, key: EventKey, event: E) {
        self.heap.push(Reverse(Entry(key, event)));
    }

    /// Pop the earliest event, returning its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(k, e)| (k.at, e))
    }

    /// Pop the earliest event together with its full key.
    pub fn pop_keyed(&mut self) -> Option<(EventKey, E)> {
        let Reverse(Entry(key, event)) = self.heap.pop()?;
        Some((key, event))
    }

    /// Pop the earliest event only if it fires strictly before `limit` —
    /// the epoch primitive of the sharded engine. A refusal is one peek.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    pub fn pop_keyed_before(&mut self, limit: SimTime) -> Option<(EventKey, E)> {
        // Peek the heap directly: `peek_time` is the epoch-phase lint's
        // horizon-minimum anchor, and a pop is not a minima computation.
        let Reverse(Entry(next, _)) = self.heap.peek()?;
        if next.at >= limit {
            return None;
        }
        self.pop_keyed()
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(Entry(k, _))| k.at)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), "c");
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(20), "b");
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);

        // "Never"-adjacent keys (SimTime::MAX) mixed with near-zero ones
        // span the whole u64 range and must still drain in exact order.
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.schedule_at(SimTime(i), i);
            q.schedule_at(SimTime(u64::MAX - i), u64::MAX - i);
        }
        let mut prev = None;
        let mut n = 0;
        while let Some((at, v)) = q.pop() {
            assert_eq!(at.picos(), v);
            if let Some(p) = prev {
                assert!(at.picos() > p, "{p} then {}", at.picos());
            }
            prev = Some(at.picos());
            n += 1;
        }
        assert_eq!(n, 128);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn keyed_order_is_time_src_seq() {
        let mut q = EventQueue::new();
        let k = |at, src, seq| EventKey {
            at: SimTime(at),
            src,
            seq,
        };
        q.schedule_keyed(k(50, 1, 0), "b");
        q.schedule_keyed(k(50, 0, 7), "a");
        q.schedule_keyed(k(50, 1, 1), "c");
        q.schedule_keyed(k(40, 9, 9), "first");
        assert_eq!(q.pop_keyed().unwrap().1, "first");
        assert_eq!(q.pop_keyed().unwrap().1, "a");
        assert_eq!(q.pop_keyed().unwrap().1, "b");
        assert_eq!(q.pop_keyed().unwrap().1, "c");
    }

    #[test]
    fn heap_storage_stays_bounded() {
        // Pushing and fully draining 64 events per round must never grow
        // the heap's storage past the high-water population.
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..64u64 {
                q.schedule_at(SimTime(round * 100 + i), i);
            }
            while q.pop().is_some() {}
        }
        assert!(
            q.heap.capacity() <= 64,
            "heap grew to {}",
            q.heap.capacity()
        );
    }

    #[test]
    fn interleaved_pop_and_schedule() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(1), 1u32);
        q.schedule_at(SimTime(3), 3);
        assert_eq!(q.pop(), Some((SimTime(1), 1)));
        q.schedule_at(SimTime(2), 2);
        assert_eq!(q.pop(), Some((SimTime(2), 2)));
        assert_eq!(q.pop(), Some((SimTime(3), 3)));
    }

    #[test]
    fn handles_far_future_and_past_rewind() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(1_000_000_000_000), "far"); // 1 s out
        q.schedule_at(SimTime(10), "near");
        assert_eq!(q.pop(), Some((SimTime(10), "near")));
        // A push behind the last pop must still dequeue in order.
        q.schedule_at(SimTime(20), "behind");
        assert_eq!(q.pop(), Some((SimTime(20), "behind")));
        assert_eq!(q.pop(), Some((SimTime(1_000_000_000_000), "far")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_before_respects_the_horizon() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(20), "b");
        q.schedule_at(SimTime(30), "c");
        assert_eq!(q.pop_keyed_before(SimTime(10)), None);
        assert_eq!(q.pop_keyed_before(SimTime(21)).unwrap().1, "a");
        assert_eq!(q.pop_keyed_before(SimTime(21)).unwrap().1, "b");
        assert_eq!(q.pop_keyed_before(SimTime(21)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_keyed_before(SimTime::MAX).unwrap().1, "c");
        assert_eq!(q.pop_keyed_before(SimTime::MAX), None);
    }

    #[test]
    fn matches_sorted_vec_model_on_random_ops() {
        // Differential test against the simplest correct queue: a Vec
        // kept sorted by key. 10k seeded operations mix keyed schedules
        // (several sources, colliding instants) with horizon-bounded pops;
        // every pop, refusal, peek and length must agree.
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: Vec<(EventKey, u64)> = Vec::new();
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut seqs = [0u64; 4];
        for i in 0..10_000u64 {
            let r = next();
            if r % 16 < 9 {
                let src = (r >> 8) as u32 % 4;
                let key = EventKey {
                    at: SimTime((r >> 16) % 5_000),
                    src,
                    seq: seqs[src as usize],
                };
                seqs[src as usize] += 1;
                q.schedule_keyed(key, i);
                let at = model.partition_point(|(k, _)| *k < key);
                model.insert(at, (key, i));
            } else {
                let limit = SimTime((r >> 16) % 6_000);
                let want = match model.first() {
                    Some((k, _)) if k.at < limit => Some(model.remove(0)),
                    _ => None,
                };
                assert_eq!(q.pop_keyed_before(limit), want, "op {i}");
            }
            assert_eq!(q.len(), model.len(), "op {i}");
            assert_eq!(q.peek_time(), model.first().map(|(k, _)| k.at), "op {i}");
        }
        for want in model {
            assert_eq!(q.pop_keyed(), Some(want));
        }
        assert!(q.is_empty());
    }
}
