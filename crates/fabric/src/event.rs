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
//! # Arena-pooled storage
//!
//! Event payloads never move through the ordering structure. Every
//! scheduled event is parked in a slab arena owned by the queue and
//! addressed by a `u32` handle; the heap orders bare `(EventKey, u32)`
//! pairs — 32 bytes, `Copy`, no drop glue — so a sift shuffles handles,
//! not payloads. Slots are recycled through a free list, which keeps the
//! steady state of a schedule/pop loop allocation-free (the
//! `alloc_regression` suite counts).
//!
//! # One structure
//!
//! The ordering structure is `std::collections::BinaryHeap`. Ladder,
//! calendar and population-adaptive backends were measured against it
//! on the fabric workloads and never won outside the run-to-run spread,
//! so the heap is both the production queue and its own oracle; the
//! randomized test below checks it against a sorted-`Vec` model.

use crate::time::{Duration, SimTime};
use std::cmp::Reverse;
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

/// Slab arena of parked event payloads: `u32` handles in, payloads out.
/// Slots are `Option<E>` (taking leaves `None`) and recycle through a
/// free list, so a steady-state schedule/pop loop touches no allocator.
#[derive(Debug)]
struct Arena<E> {
    slots: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> Arena<E> {
    fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Park `event`, returning its handle.
    ///
    /// Deliberate panic (reviewed): handles are u32 by layout contract
    /// with the heap; 2^32 simultaneously-parked events means the
    /// event budget check has already failed and memory is gone —
    /// truncating the handle instead would silently alias two events.
    #[cfg_attr(lint, tcc_no_alloc, tcc_panic_ok, tcc_acquires(arena_handle))]
    fn park(&mut self, event: E) -> u32 {
        match self.free.pop() {
            Some(h) => {
                debug_assert!(self.slots[h as usize].is_none());
                self.slots[h as usize] = Some(event);
                h
            }
            None => {
                let h = u32::try_from(self.slots.len()).expect("arena capacity");
                self.slots.push(Some(event));
                h
            }
        }
    }

    /// Reclaim the payload behind `handle`; the slot returns to the free
    /// list.
    ///
    /// Deliberate panic (reviewed): an empty slot here means the heap
    /// double-popped a handle — continuing would replay or drop an event
    /// and silently break bit-determinism, the one guarantee the whole
    /// queue exists to keep.
    #[cfg_attr(lint, tcc_no_alloc, tcc_panic_ok, tcc_releases(arena_handle))]
    fn take(&mut self, handle: u32) -> E {
        let ev = self.slots[handle as usize]
            .take()
            .expect("arena slot occupied");
        self.free.push(handle);
        ev
    }
}

/// A time-ordered queue of events of type `E`. Payloads live in the
/// queue's [`Arena`]; the heap orders `(EventKey, u32)` handle pairs.
#[derive(Debug)]
pub struct EventQueue<E> {
    arena: Arena<E>,
    heap: BinaryHeap<Reverse<(EventKey, u32)>>,
    next_seq: u64,
    scheduled_total: u64,
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
            arena: Arena::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at` (source 0, local
    /// sequence — FIFO within the same instant).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.schedule_keyed(EventKey { at, src: 0, seq }, event);
    }

    /// Schedule `event` to fire `after` past `now`.
    pub fn schedule_in(&mut self, now: SimTime, after: Duration, event: E) {
        self.schedule_at(now + after, event);
    }

    /// Schedule `event` under an explicit key. The sharded engine uses
    /// this to stamp events with `(shard, shard-local seq)` so merge
    /// order is deterministic across thread counts. Keys must be unique.
    // tcc_transfer_ok: the parked handle is owned by the heap until a
    // pop reclaims it through `Arena::take` — held-at-exit is the point.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    #[cfg_attr(lint, tcc_linear(arena_handle), tcc_transfer_ok)]
    pub fn schedule_keyed(&mut self, key: EventKey, event: E) {
        self.scheduled_total += 1;
        let h = self.arena.park(event);
        self.heap.push(Reverse((key, h)));
    }

    /// Pop the earliest event, returning its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_keyed().map(|(k, e)| (k.at, e))
    }

    /// Pop the earliest event together with its full key.
    #[cfg_attr(lint, tcc_linear(arena_handle))]
    pub fn pop_keyed(&mut self) -> Option<(EventKey, E)> {
        let Reverse((key, h)) = self.heap.pop()?;
        Some((key, self.arena.take(h)))
    }

    /// Pop the earliest event only if it fires strictly before `limit` —
    /// the epoch primitive of the sharded engine. A refusal is one peek.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    #[cfg_attr(lint, tcc_linear(arena_handle))]
    pub fn pop_keyed_before(&mut self, limit: SimTime) -> Option<(EventKey, E)> {
        let Reverse((next, _)) = self.heap.peek()?;
        if next.at >= limit {
            return None;
        }
        self.pop_keyed()
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((k, _))| k.at)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (for run statistics).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
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
    fn schedule_in_adds_to_now() {
        let mut q = EventQueue::new();
        q.schedule_in(SimTime(1_000), Duration::from_picos(500), ());
        assert_eq!(q.pop(), Some((SimTime(1_500), ())));
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
    fn arena_slot_reuse_keeps_storage_bounded() {
        // Payload slots recycle through the free list: pushing and fully
        // draining 64 events per round must never grow the arena past the
        // high-water population.
        let mut q = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..64u64 {
                q.schedule_at(SimTime(round * 100 + i), i);
            }
            while q.pop().is_some() {}
        }
        assert!(
            q.arena.slots.len() <= 64,
            "arena grew to {}",
            q.arena.slots.len()
        );
        assert_eq!(q.scheduled_total(), 640);
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
