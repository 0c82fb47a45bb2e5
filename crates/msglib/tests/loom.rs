//! Concurrency checks for the shm primitives under `cfg(loom)`.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p tcc-msglib --test loom`.
//! Each body is kept tiny (two threads, a handful of operations) so that
//! when the vendored loom shim is swapped for the real checker, the
//! interleaving space stays tractable. Under the shim each `loom::model`
//! body is re-run as a randomized-schedule stress test.
//!
//! What is checked:
//!
//! * the release-publication protocol of `ShmRemote::store`/`store_u64`
//!   makes a message's payload visible before its header (the invariant
//!   the eager ring's poll loop depends on);
//! * the channel's Sender/Receiver halves, with their eager ring, keep
//!   message boundaries and order across threads in both send modes;
//! * the dissemination `Barrier` synchronises two ranks;
//! * the event engine's `EpochBarrier` publishes each thread's
//!   pre-barrier store to the other, epoch after epoch;
//! * one `BatchRing` slot suffices under the epoch protocol: every
//!   publish finds the slot free and every take finds that epoch's batch.

#![cfg(loom)]

use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::Arc;
use tcc_msglib::channel::{channel, CHANNEL_BYTES, CREDIT_BYTES};
use tcc_msglib::ring::SendMode;
use tcc_msglib::shm::ShmMemory;
use tcc_msglib::{
    Backoff, Barrier, BatchRing, EpochBarrier, LocalWindow, RemoteWindow, SYNC_BYTES,
};

/// Payload stored before a flag must be visible after observing the flag:
/// the store_u64 release / load_u64 acquire pair is the ring protocol's
/// entire correctness argument.
#[test]
fn flag_publication_orders_payload() {
    loom::model(|| {
        let page = ShmMemory::new(64);
        let remote = page.remote(0, 64);
        let local = page.local(0, 64);
        let writer = loom::thread::spawn(move || {
            remote.store(0, &[0xAB; 8]);
            remote.store_u64(8, 1); // release point
        });
        let mut backoff = Backoff::new();
        while local.load_u64(8) < 1 {
            backoff.snooze();
        }
        let mut payload = [0u8; 8];
        local.load(0, &mut payload);
        assert_eq!(payload, [0xAB; 8], "payload published after header");
        writer.join().unwrap();
    });
}

/// Two back-to-back eager messages stay framed and ordered through the
/// channel halves, the sender on its own thread, in both send modes:
/// strict mode fences after every cell, weak mode once per message.
#[test]
fn channel_halves_preserve_framing() {
    for mode in [SendMode::StrictlyOrdered, SendMode::WeaklyOrdered] {
        loom::model(move || {
            let chan = ShmMemory::new(CHANNEL_BYTES as usize);
            let creds = ShmMemory::new(CREDIT_BYTES as usize);
            let (mut tx, mut rx) = channel(
                chan.remote(0, CHANNEL_BYTES),
                creds.local(0, CREDIT_BYTES),
                chan.local(0, CHANNEL_BYTES),
                creds.remote(0, CREDIT_BYTES),
                mode,
            );
            let producer = loom::thread::spawn(move || {
                tx.send(&[1; 5]).unwrap();
                tx.send(&[2; 9]).unwrap();
            });
            assert_eq!(rx.recv(), vec![1; 5]);
            assert_eq!(rx.recv(), vec![2; 9]);
            producer.join().unwrap();
        });
    }
}

/// A two-rank dissemination barrier: a value stored before the barrier on
/// one rank is visible after it on the other.
#[test]
fn barrier_two_ranks_synchronise() {
    loom::model(|| {
        let pages: Vec<ShmMemory> = (0..2)
            .map(|_| ShmMemory::new(SYNC_BYTES as usize))
            .collect();
        let data = ShmMemory::new(8);
        let mk = |rank: usize| {
            let peers = (0..2)
                .map(|p| (p != rank).then(|| pages[p].remote(0, SYNC_BYTES)))
                .collect();
            Barrier::new(rank, 2, peers, pages[rank].local(0, SYNC_BYTES))
        };
        let mut b0 = mk(0);
        let mut b1 = mk(1);
        let data_w = data.remote(0, 8);
        let data_r = data.local(0, 8);
        let t = loom::thread::spawn(move || {
            data_w.store_u64(0, 42);
            data_w.fence();
            b1.wait();
        });
        b0.wait();
        assert_eq!(data_r.load_u64(0), 42, "pre-barrier store visible");
        t.join().unwrap();
    });
}

/// Two threads, three epochs through one `EpochBarrier`: each stores the
/// epoch into its own slot before waiting and, after the wait, reads the
/// other's slot at that epoch or later. The count reset and generation
/// bump between epochs must not let either thread run ahead.
#[test]
fn epoch_barrier_two_threads_three_epochs() {
    loom::model(|| {
        let barrier = Arc::new(EpochBarrier::new(2));
        let slots = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let run = |me: usize, barrier: Arc<EpochBarrier>, slots: Arc<[AtomicU64; 2]>| {
            for epoch in 1..=3 {
                slots[me].store(epoch, Ordering::Relaxed);
                barrier.wait();
                assert!(slots[1 - me].load(Ordering::Relaxed) >= epoch);
            }
        };
        let t = {
            let (barrier, slots) = (Arc::clone(&barrier), Arc::clone(&slots));
            loom::thread::spawn(move || run(1, barrier, slots))
        };
        run(0, barrier, slots);
        t.join().unwrap();
    });
}

/// The event engine's mailbox handoff over three epochs: the producer
/// publishes between the two barrier waits (B1, B0), the consumer takes
/// after B0, so every publish finds the slot free and every take finds
/// exactly that epoch's batch.
#[test]
fn batch_ring_one_slot_under_the_epoch_protocol() {
    loom::model(|| {
        let ring = Arc::new(BatchRing::<u64>::new());
        let barrier = Arc::new(EpochBarrier::new(2));
        let producer = {
            let (ring, barrier) = (Arc::clone(&ring), Arc::clone(&barrier));
            loom::thread::spawn(move || {
                let mut staging = Vec::new();
                for epoch in 1..=3 {
                    barrier.wait(); // B1
                    staging.push(epoch);
                    assert!(ring.publish(&mut staging), "epoch {epoch}: slot still full");
                    barrier.wait(); // B0
                }
            })
        };
        let mut scratch = Vec::new();
        for epoch in 1..=3 {
            barrier.wait(); // B1
            barrier.wait(); // B0
            assert!(ring.take(&mut scratch), "epoch {epoch}: no batch");
            assert_eq!(scratch, [epoch]);
            scratch.clear();
        }
        producer.join().unwrap();
    });
}
