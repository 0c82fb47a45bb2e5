//! Epoch-batched SPSC handoff rings for the sharded event engine.
//!
//! The conservative-PDES executive in `tcc-core` moves cross-shard
//! events between worker threads exactly once per epoch: a sender shard
//! accumulates every event bound for one receiver shard in a local
//! staging buffer, then *publishes* the whole batch at the epoch
//! barrier; the receiver *takes* it at the top of its next epoch. That
//! protocol makes the general MPMC mailbox (a `Mutex<Vec>` locked per
//! event) wildly over-general: each `(sender, receiver)` pair needs a
//! bounded single-producer single-consumer ring of **batches**, with at
//! most one batch in flight per epoch.
//!
//! [`BatchRing`] is that ring, built from the same seq-validated-cell
//! idiom as the eager message ring in [`ring`](crate::ring): a `head`
//! counter owned by the producer, a `tail` counter owned by the
//! consumer, and `capacity` slots addressed mod the ring size. The slot
//! payloads are `Vec`s that circulate by `mem::swap` — publish swaps the
//! producer's staging buffer into the slot and hands the slot's previous
//! (drained, capacity-preserving) buffer back; take swaps it out into
//! the consumer's scratch. After warm-up, a publish/take cycle touches
//! the allocator zero times: the same buffers shuttle between the two
//! shards forever.
//!
//! The crate forbids `unsafe`, so slots are `Mutex<Vec>` cells rather
//! than `UnsafeCell`s — but the SPSC + epoch-barrier protocol guarantees
//! a slot is never contended (the producer only writes slots in
//! `head - tail < capacity`, the consumer only reads slots in
//! `tail < head`, and the counters are acquire/release-ordered), so
//! every acquisition is an uncontended `try_lock` fast path: one CAS,
//! no syscall, no waiting. A contended `try_lock` would mean the
//! protocol is broken, and the ring treats it as a hard bug (panics)
//! rather than spinning.
//!
//! [`EpochBarrier`] is the executive's other primitive: the barrier the
//! workers meet at twice per epoch. Like the paper's API-managed software
//! barriers (§IV.A, and [`barrier`](crate::barrier)) it polls memory
//! rather than parking in the kernel, so a waiter that is released a
//! few microseconds later has no wake-up to pay for.

use crate::sync::{AtomicU64, Ordering};
use crate::window::Backoff;
use std::sync::Mutex;

/// Bounded SPSC ring of batches. `T` is the event type; each slot holds
/// a whole epoch's batch (`Vec<T>`) for one (sender → receiver) pair.
///
/// Capacity 2 is sufficient for the epoch protocol (at most one batch in
/// flight, plus one slot of slack so the producer never waits on the
/// consumer's same-epoch drain); the ring itself supports any power of
/// two.
#[derive(Debug)]
pub struct BatchRing<T> {
    slots: Vec<Mutex<Vec<T>>>,
    /// Batches ever published; owned by the producer.
    head: AtomicU64,
    /// Batches ever taken; owned by the consumer.
    tail: AtomicU64,
    mask: u64,
}

/// Default slot count: one in flight + one slack.
pub const BATCH_RING_SLOTS: usize = 2;

impl<T> BatchRing<T> {
    /// A ring with [`BATCH_RING_SLOTS`] slots.
    #[must_use]
    pub fn new() -> Self {
        Self::with_slots(BATCH_RING_SLOTS)
    }

    /// A ring with `slots` slots (power of two).
    #[must_use]
    pub fn with_slots(slots: usize) -> Self {
        assert!(slots.is_power_of_two(), "slot count must be a power of two");
        BatchRing {
            slots: (0..slots).map(|_| Mutex::new(Vec::new())).collect(),
            head: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            mask: slots as u64 - 1,
        }
    }

    /// Producer side: publish the whole `staging` batch, receiving a
    /// drained buffer back in its place (capacity preserved — the buffers
    /// circulate, so the steady state allocates nothing). Empty batches
    /// are skipped for free. Returns `false` (staging untouched) if the
    /// ring is full, which the epoch protocol makes impossible; callers
    /// treat it as a protocol violation.
    /// Deliberate panic, reviewed: a contended `try_lock` means two
    /// threads hold the producer role at once, and any batch published
    /// past that point could be lost or duplicated — see the module docs.
    #[cfg_attr(lint, tcc_no_alloc, tcc_panic_ok, tcc_acquires(batch))]
    #[must_use]
    pub fn publish(&self, staging: &mut Vec<T>) -> bool {
        if staging.is_empty() {
            return true;
        }
        let head = self.head.load(Ordering::Relaxed);
        if head - self.tail.load(Ordering::Acquire) > self.mask {
            return false;
        }
        {
            // Uncontended by the SPSC protocol: only this producer
            // touches unpublished slots.
            let mut slot = self.slots[(head & self.mask) as usize]
                .try_lock()
                .expect("batch ring slot contended: SPSC protocol violated");
            debug_assert!(slot.is_empty(), "slot not drained before reuse");
            std::mem::swap(&mut *slot, staging);
        }
        // Release: the consumer's Acquire load of `head` sees the slot
        // contents written above.
        self.head.store(head + 1, Ordering::Release);
        true
    }

    /// Consumer side: take the oldest published batch into `scratch`
    /// (contents replaced, previous contents handed back to the slot for
    /// recycling — drain `scratch` before calling). Returns `false` and
    /// leaves `scratch` untouched when no batch is pending.
    /// Deliberate panic, reviewed: as with [`publish`](Self::publish), a
    /// contended slot means the SPSC roles are violated and the batch
    /// contents cannot be trusted.
    #[cfg_attr(lint, tcc_no_alloc, tcc_panic_ok, tcc_releases(batch))]
    #[must_use]
    pub fn take(&self, scratch: &mut Vec<T>) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        if tail == self.head.load(Ordering::Acquire) {
            return false;
        }
        debug_assert!(scratch.is_empty(), "scratch not drained before take");
        {
            let mut slot = self.slots[(tail & self.mask) as usize]
                .try_lock()
                .expect("batch ring slot contended: SPSC protocol violated");
            std::mem::swap(&mut *slot, scratch);
            // `scratch` came in empty, so the slot is now drained and
            // ready for the producer's next swap.
        }
        // Release: the producer's Acquire load of `tail` knows the slot
        // is free to reuse.
        self.tail.store(tail + 1, Ordering::Release);
        true
    }

    /// Consumer side: drain *every* pending batch, feeding each event to
    /// `sink` in publish order, recycling `scratch` between batches (its
    /// capacity is preserved, so steady state allocates nothing). Returns
    /// the number of batches consumed. This is the top-of-epoch loop every
    /// receiver shard otherwise writes by hand around [`take`](Self::take).
    #[cfg_attr(lint, tcc_linear(batch))]
    pub fn take_each(&self, scratch: &mut Vec<T>, mut sink: impl FnMut(T)) -> u64 {
        let mut batches = 0;
        while self.take(scratch) {
            batches += 1;
            for ev in scratch.drain(..) {
                sink(ev);
            }
        }
        batches
    }

    /// Batches currently published but not yet taken.
    pub fn pending(&self) -> u64 {
        self.head.load(Ordering::Acquire) - self.tail.load(Ordering::Acquire)
    }
}

impl<T> Default for BatchRing<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A reusable barrier for `n` threads built only from atomics: an arrival
/// count and a monotonic generation. The last thread to arrive resets the
/// count and then publishes `generation + 1` with Release ordering; every
/// other thread spins on the generation with [`Backoff`] (255 pause
/// instructions, then `yield_now` per poll), so an oversubscribed host
/// still runs the thread everyone waits for.
///
/// Everything a thread wrote before [`wait`](Self::wait) is visible to
/// every thread after it: each arrival is a release RMW on the count, the
/// last arrival acquires them all, and its Release store of the
/// generation is what the waiters Acquire.
///
/// There is no poisoning: a thread that never arrives leaves the others
/// polling forever.
#[derive(Debug)]
pub struct EpochBarrier {
    n: u64,
    /// Threads arrived in the current generation.
    arrived: AtomicU64,
    /// Completed generations; only the last arriver advances it.
    generation: AtomicU64,
}

impl EpochBarrier {
    /// A barrier for `n` threads. With `n <= 1` every wait returns at once.
    #[must_use]
    pub fn new(n: usize) -> Self {
        EpochBarrier {
            n: n as u64,
            arrived: AtomicU64::new(0),
            generation: AtomicU64::new(0),
        }
    }

    /// Block until all `n` threads have called `wait` for this generation.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    pub fn wait(&self) {
        // Read before arriving: this generation cannot end without us.
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 >= self.n {
            // Reset before publishing: a waiter released by the store
            // below may arrive at the next generation at once.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(generation + 1, Ordering::Release);
            return;
        }
        let mut backoff = Backoff::new();
        while self.generation.load(Ordering::Acquire) == generation {
            backoff.snooze();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_round_trip_in_order() {
        let ring: BatchRing<u32> = BatchRing::new();
        let mut staging = vec![1, 2, 3];
        assert!(ring.publish(&mut staging));
        assert!(staging.is_empty(), "publish hands back a drained buffer");
        let mut scratch = Vec::new();
        assert!(ring.take(&mut scratch));
        assert_eq!(scratch, [1, 2, 3]);
        scratch.clear();
        assert!(!ring.take(&mut scratch), "ring drained");
    }

    #[test]
    fn empty_publish_is_free() {
        let ring: BatchRing<u32> = BatchRing::new();
        let mut staging = Vec::new();
        assert!(ring.publish(&mut staging));
        assert_eq!(ring.pending(), 0);
        let mut scratch = Vec::new();
        assert!(!ring.take(&mut scratch));
    }

    #[test]
    fn full_ring_refuses_and_preserves_staging() {
        let ring: BatchRing<u32> = BatchRing::with_slots(2);
        let mut staging = vec![1];
        assert!(ring.publish(&mut staging));
        staging.push(2);
        assert!(ring.publish(&mut staging));
        staging.push(3);
        assert!(!ring.publish(&mut staging), "two slots, two in flight");
        assert_eq!(staging, [3], "refused publish leaves staging intact");
    }

    #[test]
    fn buffers_circulate_without_allocating() {
        let ring: BatchRing<u64> = BatchRing::new();
        let mut staging = Vec::with_capacity(64);
        let mut scratch = Vec::new();
        // Warm-up round grows the slot buffers to steady capacity.
        for round in 0..32u64 {
            for i in 0..64 {
                staging.push(round * 64 + i);
            }
            let cap = staging.capacity();
            assert!(ring.publish(&mut staging));
            assert!(ring.take(&mut scratch));
            assert_eq!(scratch.len(), 64);
            assert_eq!(scratch[0], round * 64);
            scratch.clear();
            // Four buffers circulate (staging, scratch, two slots); once
            // each has been through a publish they all hold steady-state
            // capacity.
            if round >= 3 {
                assert!(staging.capacity() >= 64, "recycled buffer lost capacity");
            }
            let _ = cap;
        }
    }

    #[test]
    #[should_panic(expected = "batch ring slot contended")]
    fn contended_slot_is_a_hard_protocol_bug() {
        // A second actor holding a slot lock across a publish models two
        // threads claiming the producer role at once. The ring must abort
        // rather than spin or silently drop the batch.
        let ring: BatchRing<u32> = BatchRing::new();
        let _intruder = ring.slots[0].lock().unwrap();
        let mut staging = vec![1];
        let _ = ring.publish(&mut staging);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slot not drained before reuse")]
    fn publish_into_an_undrained_slot_trips_the_debug_assert() {
        let ring: BatchRing<u32> = BatchRing::new();
        // Corrupt the invariant from outside the protocol: slot 0 holds
        // leftovers the consumer never drained.
        ring.slots[0].lock().unwrap().push(99);
        let mut staging = vec![1];
        let _ = ring.publish(&mut staging);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scratch not drained before take")]
    fn take_with_a_dirty_scratch_trips_the_debug_assert() {
        let ring: BatchRing<u32> = BatchRing::new();
        let mut staging = vec![1];
        assert!(ring.publish(&mut staging));
        let mut scratch = vec![7]; // caller forgot to drain
        let _ = ring.take(&mut scratch);
    }

    #[test]
    fn take_each_drains_every_pending_batch_in_order() {
        let ring: BatchRing<u32> = BatchRing::with_slots(4);
        let mut staging = vec![1, 2];
        assert!(ring.publish(&mut staging));
        staging.extend([3, 4, 5]);
        assert!(ring.publish(&mut staging));
        let mut scratch = Vec::new();
        let mut seen = Vec::new();
        let batches = ring.take_each(&mut scratch, |v| seen.push(v));
        assert_eq!(batches, 2);
        assert_eq!(seen, [1, 2, 3, 4, 5]);
        assert!(scratch.is_empty(), "scratch handed back drained");
        assert_eq!(ring.pending(), 0);
        assert_eq!(ring.take_each(&mut scratch, |_| unreachable!()), 0);
    }

    #[test]
    fn randomized_schedule_stays_fifo_across_wraps() {
        // 10k publish/take operations in a pseudo-random order against a
        // two-slot ring: head and tail wrap the slot index thousands of
        // times, and every batch must still come out exactly once, in
        // order, including from a completely full ring.
        let ring: BatchRing<u64> = BatchRing::with_slots(2);
        let mut lcg = 0x2545F491_4F6CDD1Du64; // deterministic seed
        let mut staging = Vec::new();
        let mut scratch = Vec::new();
        let (mut published, mut taken) = (0u64, 0u64);
        let mut full_refusals = 0u64;
        for _ in 0..10_000 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Decide from the high bits (the low bits of a 2^64-modulus
            // LCG alternate with a tiny period); bias 3:1 toward publish
            // so the schedule keeps the two-slot ring at capacity.
            if lcg >> 62 != 0 {
                staging.push(published);
                if ring.publish(&mut staging) {
                    published += 1;
                    assert!(staging.is_empty());
                } else {
                    // Full at wrap-around: staging must survive intact.
                    assert_eq!(ring.pending(), 2);
                    assert_eq!(staging, [published]);
                    staging.clear();
                    full_refusals += 1;
                }
            } else if ring.take(&mut scratch) {
                assert_eq!(scratch, [taken], "batches delivered in order");
                taken += 1;
                scratch.clear();
            }
        }
        while ring.take(&mut scratch) {
            assert_eq!(scratch, [taken]);
            taken += 1;
            scratch.clear();
        }
        assert_eq!(taken, published, "every published batch arrived once");
        assert!(published > 2_000, "schedule exercised the ring");
        assert!(full_refusals > 0, "schedule hit the full-ring wrap case");
        assert_eq!(ring.pending(), 0);
    }

    /// Each of three threads (not a power of two) stores the epoch into
    /// its own slot before every wait and, after it, finds every slot at
    /// that epoch or later: the guarantee the engine's fold over the
    /// published minima relies on.
    #[test]
    fn epoch_barrier_publishes_every_slot_each_epoch() {
        use std::sync::Arc;
        const THREADS: usize = 3;
        const EPOCHS: u64 = 10_000;
        let barrier = Arc::new(EpochBarrier::new(THREADS));
        let slots: Arc<Vec<AtomicU64>> =
            Arc::new((0..THREADS).map(|_| AtomicU64::new(0)).collect());
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (barrier, slots) = (Arc::clone(&barrier), Arc::clone(&slots));
                std::thread::spawn(move || {
                    for epoch in 1..=EPOCHS {
                        slots[t].store(epoch, Ordering::Relaxed);
                        barrier.wait();
                        for (s, slot) in slots.iter().enumerate() {
                            let seen = slot.load(Ordering::Relaxed);
                            assert!(seen >= epoch, "epoch {epoch}: slot {s} reads {seen}");
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(barrier.generation.load(Ordering::Relaxed), EPOCHS);
    }

    #[test]
    fn epoch_barrier_of_one_returns_at_once() {
        let barrier = EpochBarrier::new(1);
        for _ in 0..3 {
            barrier.wait();
        }
        assert_eq!(barrier.generation.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn spsc_threads_agree() {
        use std::sync::Arc;
        let ring: Arc<BatchRing<u64>> = Arc::new(BatchRing::new());
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut staging = Vec::new();
                for batch in 0..1_000u64 {
                    for i in 0..8 {
                        staging.push(batch * 8 + i);
                    }
                    while !ring.publish(&mut staging) {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        let mut scratch = Vec::new();
        let mut expect = 0u64;
        while expect < 8_000 {
            if ring.take(&mut scratch) {
                for &v in &scratch {
                    assert_eq!(v, expect);
                    expect += 1;
                }
                scratch.clear();
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
        assert_eq!(ring.pending(), 0);
    }
}
