//! Epoch-batched SPSC handoff mailboxes for the sharded event engine.
//!
//! The conservative-PDES executive in `tcc-core` moves cross-shard
//! events between worker threads exactly once per epoch: a sender shard
//! accumulates every event bound for one receiver shard in a local
//! staging buffer and *publishes* the whole batch before the epoch's
//! closing barrier; the receiver *takes* it after that barrier, before
//! the next epoch opens. So at most one batch per `(sender, receiver)`
//! pair is ever in flight, and the pair needs a single-producer
//! single-consumer mailbox of exactly one batch.
//!
//! [`BatchRing`] is that mailbox: one slot and an atomic `full` flag,
//! set by the producer after filling the slot and cleared by the
//! consumer after emptying it. Publish swaps the producer's staging `Vec`
//! into the slot and hands back the slot's drained, capacity-preserving
//! buffer; take swaps the batch out into the consumer's scratch. After
//! warm-up the same three buffers shuttle between the two shards and
//! the allocator is never touched.
//!
//! The crate forbids `unsafe`, so the slot is a `Mutex<Vec>` rather than
//! an `UnsafeCell` — but the producer touches it only while `full` is
//! clear and the consumer only while it is set, so every acquisition is
//! an uncontended `try_lock`: one CAS, no syscall. A contended
//! `try_lock` means the protocol is broken, and the mailbox panics
//! rather than spinning. A take that finds nothing is one atomic load.
//!
//! [`EpochBarrier`] is the executive's other primitive: the barrier the
//! workers meet at twice per epoch. Like the paper's API-managed software
//! barriers (§IV.A, and [`barrier`](crate::barrier)) it polls memory
//! rather than parking in the kernel, so a waiter that is released a
//! few microseconds later has no wake-up to pay for.

use crate::sync::{AtomicBool, AtomicU64, Ordering};
use crate::window::Backoff;
use std::sync::Mutex;

/// One-slot SPSC mailbox of batches: the slot holds a whole epoch's
/// batch (`Vec<T>`) for one (sender → receiver) pair.
#[derive(Debug)]
pub struct BatchRing<T> {
    slot: Mutex<Vec<T>>,
    /// Set by the producer once the slot holds a batch, cleared by the
    /// consumer once it has taken it.
    full: AtomicBool,
}

impl<T> BatchRing<T> {
    /// An empty mailbox.
    #[must_use]
    pub fn new() -> Self {
        BatchRing {
            slot: Mutex::new(Vec::new()),
            full: AtomicBool::new(false),
        }
    }

    /// Producer side: publish the whole `staging` batch, receiving a
    /// drained buffer back in its place (capacity preserved — the buffers
    /// circulate, so the steady state allocates nothing). Empty batches
    /// are skipped for free. Returns `false` (staging untouched) if the
    /// slot still holds an untaken batch, which the epoch protocol makes
    /// impossible; callers treat it as a protocol violation.
    /// Deliberate panic, reviewed: a contended `try_lock` means two
    /// threads hold the producer role at once, and any batch published
    /// past that point could be lost or duplicated — see the module docs.
    #[cfg_attr(lint, tcc_no_alloc, tcc_panic_ok, tcc_acquires(batch))]
    #[must_use]
    pub fn publish(&self, staging: &mut Vec<T>) -> bool {
        if staging.is_empty() {
            return true;
        }
        // Acquire: pairs with the consumer's Release clear in `take`, so
        // the slot is seen drained.
        if self.full.load(Ordering::Acquire) {
            return false;
        }
        {
            // Uncontended by the SPSC protocol: the consumer leaves the
            // slot alone while `full` is clear.
            let mut slot = self
                .slot
                .try_lock()
                .expect("batch ring slot contended: SPSC protocol violated");
            debug_assert!(slot.is_empty(), "slot not drained before reuse");
            std::mem::swap(&mut *slot, staging);
        }
        // Release: the consumer's Acquire load of `full` sees the slot
        // contents written above.
        self.full.store(true, Ordering::Release);
        true
    }

    /// Consumer side: take the published batch into `scratch` (contents
    /// replaced, previous contents handed back to the slot for recycling
    /// — drain `scratch` before calling). Returns `false` and leaves
    /// `scratch` untouched when no batch is pending; that case is one
    /// atomic load and takes no lock.
    /// Deliberate panic, reviewed: as with [`publish`](Self::publish), a
    /// contended slot means the SPSC roles are violated and the batch
    /// contents cannot be trusted.
    #[cfg_attr(lint, tcc_no_alloc, tcc_panic_ok, tcc_releases(batch))]
    #[must_use]
    pub fn take(&self, scratch: &mut Vec<T>) -> bool {
        if !self.full.load(Ordering::Acquire) {
            return false;
        }
        debug_assert!(scratch.is_empty(), "scratch not drained before take");
        {
            let mut slot = self
                .slot
                .try_lock()
                .expect("batch ring slot contended: SPSC protocol violated");
            std::mem::swap(&mut *slot, scratch);
            // `scratch` came in empty, so the slot is now drained and
            // ready for the producer's next swap.
        }
        // Release: the producer's Acquire load of `full` knows the slot
        // is free to reuse.
        self.full.store(false, Ordering::Release);
        true
    }

    /// Consumer side: feed the pending batch to `sink` in publish order,
    /// recycling `scratch`, and any batch the producer publishes while
    /// this runs. Returns the number of batches consumed: at most one per
    /// epoch under the epoch protocol.
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
        let mut scratch = Vec::new();
        assert!(!ring.take(&mut scratch), "nothing was published");
    }

    #[test]
    fn full_ring_refuses_and_preserves_staging() {
        let ring: BatchRing<u32> = BatchRing::new();
        let mut staging = vec![1];
        assert!(ring.publish(&mut staging));
        staging.push(2);
        assert!(!ring.publish(&mut staging), "one slot, one batch in flight");
        assert_eq!(staging, [2], "refused publish leaves staging intact");
        let mut scratch = Vec::new();
        assert!(ring.take(&mut scratch));
        assert_eq!(scratch, [1], "the refused batch did not touch the slot");
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
            assert!(ring.publish(&mut staging));
            assert!(ring.take(&mut scratch));
            assert_eq!(scratch.len(), 64);
            assert_eq!(scratch[0], round * 64);
            scratch.clear();
            // Three buffers circulate (staging, scratch, the slot); once
            // each has been through a publish they all hold steady-state
            // capacity.
            if round >= 3 {
                assert!(staging.capacity() >= 64, "recycled buffer lost capacity");
            }
        }
    }

    #[test]
    #[should_panic(expected = "batch ring slot contended")]
    fn contended_slot_is_a_hard_protocol_bug() {
        // A second actor holding the slot lock across a publish models two
        // threads claiming the producer role at once. The mailbox must
        // abort rather than spin or silently drop the batch.
        let ring: BatchRing<u32> = BatchRing::new();
        let _intruder = ring.slot.lock().unwrap();
        let mut staging = vec![1];
        let _ = ring.publish(&mut staging);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "slot not drained before reuse")]
    fn publish_into_an_undrained_slot_trips_the_debug_assert() {
        let ring: BatchRing<u32> = BatchRing::new();
        // Corrupt the invariant from outside the protocol: the slot holds
        // leftovers the consumer never drained.
        ring.slot.lock().unwrap().push(99);
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
    fn take_each_drains_the_pending_batch_in_order() {
        let ring: BatchRing<u32> = BatchRing::new();
        let mut staging = vec![1, 2, 3];
        assert!(ring.publish(&mut staging));
        let mut scratch = Vec::new();
        let mut seen = Vec::new();
        let batches = ring.take_each(&mut scratch, |v| seen.push(v));
        assert_eq!(batches, 1);
        assert_eq!(seen, [1, 2, 3]);
        assert!(scratch.is_empty(), "scratch handed back drained");
        assert_eq!(ring.take_each(&mut scratch, |_| unreachable!()), 0);
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
        assert!(!ring.take(&mut scratch), "every batch taken");
    }
}
