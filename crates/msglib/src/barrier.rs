//! Synchronisation primitives built from remote stores (paper §IV.A:
//! "global synchronization messages implemented through remote stores …
//! realized through API managed software barriers").
//!
//! The barrier is a dissemination barrier: ⌈log₂ n⌉ rounds, in round *k*
//! rank *r* signals rank *(r + 2ᵏ) mod n* and waits for the signal from
//! *(r − 2ᵏ) mod n*. Signals are epoch numbers stored into a per-round
//! cell of the waiter's exported sync page — monotonically increasing, so
//! no cell ever needs clearing and late arrivals from epoch *e* can never
//! satisfy epoch *e+1*.

use crate::window::{LocalWindow, RemoteWindow};

/// Maximum supported cluster size (2^10 ranks).
pub const MAX_ROUNDS: usize = 10;
/// Exported bytes each rank dedicates to barrier signals.
pub const SYNC_BYTES: u64 = (MAX_ROUNDS as u64) * 8;

/// Number of dissemination rounds for `n` ranks.
pub fn rounds_for(n: usize) -> usize {
    assert!(n >= 1);
    (usize::BITS - (n - 1).leading_zeros()) as usize
}

/// One rank's barrier state.
#[derive(Debug)]
pub struct Barrier<R: RemoteWindow, L: LocalWindow> {
    rank: usize,
    n: usize,
    /// Remote sync page of each peer rank (only the ⌈log n⌉ partners are
    /// ever used; a full vector keeps addressing trivial).
    peers: Vec<Option<R>>,
    /// This rank's own sync page.
    local: L,
    epoch: u64,
}

impl<R: RemoteWindow, L: LocalWindow> Barrier<R, L> {
    /// `peers[i]` must be a window onto rank *i*'s sync page for every
    /// partner this rank signals; other entries may be `None`.
    pub fn new(rank: usize, n: usize, peers: Vec<Option<R>>, local: L) -> Self {
        assert!(rank < n);
        assert!(n <= 1 << MAX_ROUNDS, "cluster too large for sync page");
        assert_eq!(peers.len(), n);
        assert!(local.len() >= SYNC_BYTES);
        for k in 0..rounds_for(n) {
            let partner = (rank + (1 << k)) % n;
            assert!(
                partner == rank || peers[partner].is_some(),
                "rank {rank} missing window to round-{k} partner {partner}"
            );
        }
        Barrier {
            rank,
            n,
            peers,
            local,
            epoch: 0,
        }
    }

    /// Enter the barrier; returns when all `n` ranks have entered.
    pub fn wait(&mut self) {
        self.epoch += 1;
        let e = self.epoch;
        for k in 0..rounds_for(self.n) {
            let to = (self.rank + (1 << k)) % self.n;
            if to != self.rank {
                // Validated in `new`: every round partner has a window.
                let Some(w) = self.peers[to].as_ref() else {
                    tcc_fabric::protocol_violation!(
                        "rank {to} lost its sync window after validation"
                    );
                };
                w.store_u64((k * 8) as u64, e);
                w.fence();
            }
            // Wait for our round-k predecessor (bounded spin, then yield
            // — the predecessor may share this core).
            let from = (self.rank + self.n - (1 << k) % self.n) % self.n;
            if from != self.rank {
                let mut backoff = crate::window::Backoff::new();
                while self.local.load_u64((k * 8) as u64) < e {
                    backoff.snooze();
                }
            }
        }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shm::{ShmLocal, ShmMemory, ShmRemote};

    #[test]
    fn rounds() {
        assert_eq!(rounds_for(1), 0);
        assert_eq!(rounds_for(2), 1);
        assert_eq!(rounds_for(3), 2);
        assert_eq!(rounds_for(8), 3);
        assert_eq!(rounds_for(9), 4);
    }

    fn build(n: usize) -> Vec<Barrier<ShmRemote, ShmLocal>> {
        let pages: Vec<ShmMemory> = (0..n)
            .map(|_| ShmMemory::new(SYNC_BYTES as usize))
            .collect();
        (0..n)
            .map(|r| {
                let peers = (0..n)
                    .map(|p| (p != r).then(|| pages[p].remote(0, SYNC_BYTES)))
                    .collect();
                Barrier::new(r, n, peers, pages[r].local(0, SYNC_BYTES))
            })
            .collect()
    }

    #[test]
    fn threaded_barrier_synchronises() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        const N: usize = 7;
        const ITERS: usize = 200;
        let barriers = build(N);
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for (r, mut b) in barriers.into_iter().enumerate() {
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for i in 0..ITERS {
                    // Everybody increments, then the barrier, then all must
                    // observe the full count for this phase.
                    counter.fetch_add(1, Ordering::SeqCst);
                    b.wait();
                    let seen = counter.load(Ordering::SeqCst);
                    assert!(
                        seen >= (i + 1) * N,
                        "rank {r} iter {i}: saw {seen}, expected >= {}",
                        (i + 1) * N
                    );
                    b.wait();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), N * ITERS);
    }

    #[test]
    fn single_rank_barrier_is_trivial() {
        let mut b = build(1);
        b[0].wait();
        b[0].wait();
        assert_eq!(b[0].epoch(), 2);
    }

    #[test]
    #[should_panic(expected = "missing window")]
    fn missing_partner_window_caught() {
        let pages: Vec<ShmMemory> = (0..2)
            .map(|_| ShmMemory::new(SYNC_BYTES as usize))
            .collect();
        let peers: Vec<Option<ShmRemote>> = vec![None, None];
        let _ = Barrier::new(0, 2, peers, pages[0].local(0, SYNC_BYTES));
    }
}
