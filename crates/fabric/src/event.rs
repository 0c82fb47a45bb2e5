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
//! # Two structures
//!
//! [`EventQueue`] is a `std::collections::BinaryHeap` of `(EventKey, E)`
//! entries ordered by the key alone; payloads live in the heap itself.
//! Ladder, calendar and population-adaptive backends, and a slab arena
//! that kept payloads out of the heap, were measured against it on the
//! fabric workloads and never won outside the run-to-run spread. The heap
//! only grows to its high-water population, so a steady schedule/pop loop
//! touches no allocator (the `alloc_regression` suite counts). It is the
//! general queue, perfbench's hold model, and inside a [`LaneQueue`] it
//! carries only the events whose keys follow no lane order: in the
//! fabric engine that is flow pumps and store-path injects, a few hundred
//! of the smoke input's 116,286 events.
//!
//! [`LaneQueue`] is that heap plus a set of FIFO *lanes* for event
//! streams whose keys already arrive in increasing order, each stamped by
//! one fixed source. The fabric engine gives each shard one lane per
//! in-wire (a wire's arrivals leave one transmitter in send order) and
//! one per node for buffer drains (serialised by the receive bridge), so
//! the three per-hop events never touch the heap. Every lane caches its
//! head key, so the next event is the minimum over one key per lane and
//! the heap's top: a push onto a non-empty lane touches no index, and
//! neither a lane push nor a lane pop sifts anything. Because the lanes hold keys in
//! order and the scan compares full keys, a `LaneQueue` pops the same
//! total [`EventKey`] order a single heap would. Both structures are
//! checked against a sorted-`Vec` model by the randomized tests below.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

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
        // Not `peek_time`: that name is the epoch-phase lint's
        // horizon-minimum anchor, and a pop is not a minima computation.
        if self.peek_key()?.at >= limit {
            return None;
        }
        self.pop_keyed()
    }

    /// Key of the earliest pending event.
    fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|Reverse(Entry(k, _))| *k)
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_key().map(|k| k.at)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Cached head of an empty lane. Lane sources are checked to be below
/// `u32::MAX` when the queue is built, so this sorts strictly after any
/// key a lane can hold, `SimTime::MAX` ones included.
const EMPTY: EventKey = EventKey {
    at: SimTime::MAX,
    src: u32::MAX,
    seq: u64::MAX,
};

/// One FIFO lane: entries drop the `src` their lane fixes.
#[derive(Debug)]
struct Lane<L> {
    src: u32,
    fifo: VecDeque<(SimTime, u64, L)>,
}

/// What [`LaneQueue::pop_keyed_before`] hands back: a lane entry with its
/// lane index, or a heap entry.
#[derive(Debug, PartialEq, Eq)]
pub enum Popped<L, H> {
    Lane(usize, EventKey, L),
    Heap(EventKey, H),
}

/// FIFO lanes of pre-ordered events plus an [`EventQueue`] heap for the
/// rest, popped in one total [`EventKey`] order (see the module docs).
///
/// Lane `i` holds events stamped by source `srcs[i]` and must be pushed
/// in increasing key order; debug builds assert it on every push.
#[derive(Debug)]
pub struct LaneQueue<L, H> {
    /// Head key of every lane, [`EMPTY`] when the lane is empty. Kept
    /// apart from the lanes so the minimum scan reads one dense array.
    heads: Vec<EventKey>,
    lanes: Vec<Lane<L>>,
    heap: EventQueue<H>,
}

impl<L, H> LaneQueue<L, H> {
    /// A queue with one lane per source in `srcs`, lane `i` carrying
    /// events stamped by the `i`-th source.
    ///
    /// # Panics
    /// If a source is `u32::MAX`, which marks empty lanes.
    #[must_use]
    pub fn new(srcs: impl IntoIterator<Item = u32>) -> Self {
        let lanes: Vec<Lane<L>> = srcs
            .into_iter()
            .map(|src| {
                assert!(
                    src != u32::MAX,
                    "lane source u32::MAX is reserved for the empty-lane marker"
                );
                Lane {
                    src,
                    fifo: VecDeque::new(),
                }
            })
            .collect();
        LaneQueue {
            heads: vec![EMPTY; lanes.len()],
            lanes,
            heap: EventQueue::new(),
        }
    }

    /// Append an event to lane `lane` under key `(at, <lane's source>,
    /// seq)`, which must exceed the key of the lane's last entry. Only a push
    /// onto an empty lane updates its cached head.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    pub fn push_lane(&mut self, lane: usize, at: SimTime, seq: u64, item: L) {
        let l = &mut self.lanes[lane];
        debug_assert!(
            l.fifo.back().is_none_or(|&(a, s, _)| (a, s) < (at, seq)),
            "lane {lane}: push ({at:?}, {seq}) is not after the lane's tail"
        );
        if l.fifo.is_empty() {
            self.heads[lane] = EventKey {
                at,
                src: l.src,
                seq,
            };
        }
        l.fifo.push_back((at, seq, item));
    }

    /// Schedule a heap event under an explicit key. Keys must be unique
    /// across the heap and the lanes.
    pub fn schedule_keyed(&mut self, key: EventKey, event: H) {
        self.heap.schedule_keyed(key, event);
    }

    /// Smallest cached lane head and its lane, or `(EMPTY, usize::MAX)`.
    fn lane_min(&self) -> (EventKey, usize) {
        let mut best = (EMPTY, usize::MAX);
        for (i, &k) in self.heads.iter().enumerate() {
            if k < best.0 {
                best = (k, i);
            }
        }
        best
    }

    /// Pop the earliest event, lane or heap, only if it fires strictly
    /// before `limit`. A refusal is one scan of the lane heads.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    pub fn pop_keyed_before(&mut self, limit: SimTime) -> Option<Popped<L, H>> {
        // Not `peek_time`: that name is the epoch-phase lint's
        // horizon-minimum anchor, and a pop is not a minima computation.
        let (key, i) = self.lane_min();
        if let Some(top) = self.heap.peek_key() {
            if i == usize::MAX || top < key {
                let (key, ev) = self.heap.pop_keyed_before(limit)?;
                return Some(Popped::Heap(key, ev));
            }
        }
        if i == usize::MAX || key.at >= limit {
            return None;
        }
        let lane = &mut self.lanes[i];
        let (_, _, item) = lane.fifo.pop_front()?;
        self.heads[i] = lane.fifo.front().map_or(EMPTY, |&(at, seq, _)| EventKey {
            at,
            src: lane.src,
            seq,
        });
        Some(Popped::Lane(i, key, item))
    }

    /// Time of the earliest pending event, lane or heap.
    pub fn peek_time(&self) -> Option<SimTime> {
        let (key, i) = self.lane_min();
        match self.heap.peek_key() {
            Some(top) if i == usize::MAX || top < key => Some(top.at),
            _ => (i != usize::MAX).then_some(key.at),
        }
    }

    /// Number of lanes the queue was built with.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Events pending in the lanes and the heap.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(|l| l.fifo.len()).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        // Differential test of the lane queue against the simplest correct
        // queue: a Vec kept sorted by key. 10k seeded operations mix
        // key-monotone pushes onto five lanes (three sources, two lanes
        // sharing one), heap schedules under random keys from the same
        // sources (colliding instants included) and horizon-bounded pops;
        // every pop, refusal, peek and length must agree.
        const SRCS: [u32; 5] = [0, 1, 1, 2, 0];
        let mut q: LaneQueue<u64, u64> = LaneQueue::new(SRCS);
        // (key, lane or usize::MAX for the heap, payload)
        let mut model: Vec<(EventKey, usize, u64)> = Vec::new();
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut seqs = [0u64; 3];
        let mut tails = [SimTime::ZERO; SRCS.len()];
        let mut base = 0u64;
        for i in 0..10_000u64 {
            let r = next();
            base += r % 3;
            let op = r % 16;
            if op < 9 {
                let (lane, src, at) = if op < 6 {
                    let lane = (r >> 8) as usize % SRCS.len();
                    let at = tails[lane].max(SimTime(base)) + crate::time::Duration((r >> 16) % 20);
                    tails[lane] = at;
                    (lane, SRCS[lane], at)
                } else {
                    let src = (r >> 8) as u32 % 3;
                    (usize::MAX, src, SimTime(base + (r >> 16) % 500))
                };
                let key = EventKey {
                    at,
                    src,
                    seq: seqs[src as usize],
                };
                seqs[src as usize] += 1;
                if lane == usize::MAX {
                    q.schedule_keyed(key, i);
                } else {
                    q.push_lane(lane, key.at, key.seq, i);
                }
                let pos = model.partition_point(|(k, _, _)| *k < key);
                model.insert(pos, (key, lane, i));
            } else {
                let limit = SimTime(base + (r >> 16) % 600);
                let want = match model.first() {
                    Some((k, _, _)) if k.at < limit => Some(model.remove(0)),
                    _ => None,
                };
                let want = want.map(|(k, lane, v)| {
                    if lane == usize::MAX {
                        Popped::Heap(k, v)
                    } else {
                        Popped::Lane(lane, k, v)
                    }
                });
                assert_eq!(q.pop_keyed_before(limit), want, "op {i}");
            }
            assert_eq!(q.len(), model.len(), "op {i}");
            assert_eq!(q.peek_time(), model.first().map(|(k, _, _)| k.at), "op {i}");
        }
        for (k, lane, v) in model {
            let got = q.pop_keyed_before(SimTime::MAX);
            if lane == usize::MAX {
                assert_eq!(got, Some(Popped::Heap(k, v)));
            } else {
                assert_eq!(got, Some(Popped::Lane(lane, k, v)));
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn lane_keys_at_the_never_sentinel_are_not_empty_lanes() {
        // A real key at SimTime::MAX sorts below the empty-lane marker:
        // the queue reports it pending and orders it against the heap.
        let mut q: LaneQueue<&str, &str> = LaneQueue::new([7, 7]);
        q.push_lane(1, SimTime::MAX, 3, "lane");
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(SimTime::MAX));
        // Pops are strictly below the limit, so nothing reaches it.
        assert_eq!(q.pop_keyed_before(SimTime::MAX), None);
        let key = |src, seq| EventKey {
            at: SimTime::MAX,
            src,
            seq,
        };
        q.schedule_keyed(key(7, 2), "heap first");
        q.schedule_keyed(key(8, 0), "heap last");
        q.push_lane(0, SimTime(5), 0, "early");
        assert_eq!(q.len(), 4);
        let early = EventKey {
            at: SimTime(5),
            src: 7,
            seq: 0,
        };
        assert_eq!(
            q.pop_keyed_before(SimTime(6)),
            Some(Popped::Lane(0, early, "early"))
        );
        assert_eq!(q.pop_keyed_before(SimTime::MAX), None);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(SimTime::MAX));
    }

    #[test]
    #[should_panic(expected = "reserved for the empty-lane marker")]
    fn lane_source_u32_max_is_refused() {
        let _: LaneQueue<(), ()> = LaneQueue::new([0, u32::MAX]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "is not after the lane's tail")]
    fn non_monotone_lane_push_is_caught() {
        let mut q: LaneQueue<u8, ()> = LaneQueue::new([0]);
        q.push_lane(0, SimTime(10), 4, 0);
        q.push_lane(0, SimTime(10), 3, 1);
    }
}
