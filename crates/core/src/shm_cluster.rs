//! The shared-memory execution backend: a TCCluster as `n` OS threads.
//!
//! Each rank exports one `ShmMemory` page laid out exactly like the booted
//! machine's exported slice: a channel region per peer (ring + rendezvous
//! zone), a credit block per peer, and a barrier sync page. Remote windows
//! between ranks are then write-only views of each other's pages — the
//! same API the driver would return after `mmap`ing remote MMIO space.
//!
//! This backend runs the full message-library protocols with real
//! parallelism; it is what the examples and the MPI/PGAS middleware
//! execute on.

use std::sync::Arc;
use std::thread;
use tcc_msglib::barrier::{Barrier, SYNC_BYTES};
use tcc_msglib::channel::{Receiver, Sender, CHANNEL_BYTES, CREDIT_BYTES};
use tcc_msglib::ring::SendMode;
use tcc_msglib::shm::{ShmLocal, ShmMemory, ShmRemote};

/// Handle each rank's program receives: its communication context.
pub struct NodeCtx {
    pub rank: usize,
    pub n: usize,
    /// `senders[p]` sends to rank `p` (None for self).
    senders: Vec<Option<Sender<ShmRemote, ShmLocal>>>,
    /// `receivers[p]` receives from rank `p` (None for self).
    receivers: Vec<Option<Receiver<ShmLocal, ShmRemote>>>,
    barrier: Barrier<ShmRemote, ShmLocal>,
}

impl NodeCtx {
    /// Blocking send of `msg` to `to`.
    pub fn send(&mut self, to: usize, msg: &[u8]) {
        self.senders[to]
            .as_mut()
            .unwrap_or_else(|| panic!("rank {} sending to itself", self.rank))
            .send(msg)
            .expect("message within size limits");
    }

    /// Non-blocking send.
    pub fn try_send(&mut self, to: usize, msg: &[u8]) -> Result<(), tcc_msglib::SendError> {
        self.senders[to]
            .as_mut()
            .expect("no self-channel")
            .try_send(msg)
    }

    /// Blocking receive from `from`.
    pub fn recv(&mut self, from: usize) -> Vec<u8> {
        self.receivers[from]
            .as_mut()
            .unwrap_or_else(|| panic!("rank {} receiving from itself", self.rank))
            .recv()
    }

    /// Blocking receive from `from` into a caller-provided buffer
    /// (cleared first). Returns the message length; allocation-free in
    /// steady state.
    pub fn recv_into(&mut self, from: usize, out: &mut Vec<u8>) -> usize {
        self.receivers[from]
            .as_mut()
            .unwrap_or_else(|| panic!("rank {} receiving from itself", self.rank))
            .recv_into(out)
    }

    /// Poll a specific peer.
    pub fn try_recv(&mut self, from: usize) -> Option<Vec<u8>> {
        self.receivers[from]
            .as_mut()
            .expect("no self-channel")
            .try_recv()
    }

    /// Poll a specific peer into a caller-provided buffer.
    pub fn try_recv_into(&mut self, from: usize, out: &mut Vec<u8>) -> Option<usize> {
        self.receivers[from]
            .as_mut()
            .expect("no self-channel")
            .try_recv_into(out)
    }

    /// Poll every peer once, lowest rank first; returns (source,
    /// message) from the first peer with a message ready.
    pub fn try_recv_any(&mut self) -> Option<(usize, Vec<u8>)> {
        let mut out = Vec::new();
        self.try_recv_any_into(&mut out).map(|(src, _)| (src, out))
    }

    /// Poll every peer once, lowest rank first, into a caller-provided
    /// buffer; returns (source, message length) from the first peer with
    /// a message ready. Each call restarts the scan at rank 0, so a busy
    /// low rank is always served before a higher one.
    pub fn try_recv_any_into(&mut self, out: &mut Vec<u8>) -> Option<(usize, usize)> {
        for p in 0..self.n {
            if p == self.rank {
                continue;
            }
            if let Some(n) = self.try_recv_into(p, out) {
                return Some((p, n));
            }
        }
        None
    }

    /// Global barrier across all ranks.
    pub fn barrier(&mut self) {
        self.barrier.wait();
    }
}

/// Exported-page layout per rank.
fn channel_offset(from: usize) -> u64 {
    from as u64 * CHANNEL_BYTES
}

fn credit_offset(n: usize, to: usize) -> u64 {
    n as u64 * CHANNEL_BYTES + to as u64 * CREDIT_BYTES
}

fn sync_offset(n: usize) -> u64 {
    n as u64 * CHANNEL_BYTES + n as u64 * CREDIT_BYTES
}

fn page_bytes(n: usize) -> u64 {
    sync_offset(n) + SYNC_BYTES
}

/// A TCCluster running as threads over shared memory.
pub struct ShmCluster {
    pages: Vec<ShmMemory>,
    mode: SendMode,
}

impl ShmCluster {
    pub fn new(n: usize, mode: SendMode) -> Self {
        assert!(n >= 1);
        let pages = (0..n)
            .map(|_| ShmMemory::new(page_bytes(n) as usize))
            .collect();
        ShmCluster { pages, mode }
    }

    pub fn n(&self) -> usize {
        self.pages.len()
    }

    /// Build rank `r`'s context (windows onto every peer's page).
    fn ctx(&self, r: usize) -> NodeCtx {
        let n = self.n();
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for p in 0..n {
            if p == r {
                senders.push(None);
                receivers.push(None);
                continue;
            }
            // Channel r→p: ring in p's page (slot indexed by sender r),
            // credits in r's page (slot indexed by receiver p). Rank p
            // builds the matching receiver half from its own page.
            senders.push(Some(Sender::new(
                self.pages[p].remote(channel_offset(r), CHANNEL_BYTES),
                self.pages[r].local(credit_offset(n, p), CREDIT_BYTES),
                self.mode,
            )));
            // Channel p→r: ring in r's page, credits in p's page.
            receivers.push(Some(Receiver::new(
                self.pages[r].local(channel_offset(p), CHANNEL_BYTES),
                self.pages[p].remote(credit_offset(n, r), CREDIT_BYTES),
            )));
        }
        let peers = (0..n)
            .map(|p| (p != r).then(|| self.pages[p].remote(sync_offset(n), SYNC_BYTES)))
            .collect();
        let barrier = Barrier::new(r, n, peers, self.pages[r].local(sync_offset(n), SYNC_BYTES));
        NodeCtx {
            rank: r,
            n,
            senders,
            receivers,
            barrier,
        }
    }

    /// Run `program` on every rank in parallel; returns each rank's result
    /// in rank order.
    pub fn run<T, F>(self, program: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(&mut NodeCtx) -> T + Send + Sync + 'static,
    {
        let n = self.n();
        let program = Arc::new(program);
        let me = Arc::new(self);
        let mut handles = Vec::with_capacity(n);
        for r in 0..n {
            let program = Arc::clone(&program);
            let me = Arc::clone(&me);
            handles.push(
                thread::Builder::new()
                    .name(format!("tcc-rank-{r}"))
                    .spawn(move || {
                        let mut ctx = me.ctx(r);
                        program(&mut ctx)
                    })
                    .expect("spawn rank thread"),
            );
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("rank panicked"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_ranks_pingpong() {
        let cluster = ShmCluster::new(2, SendMode::WeaklyOrdered);
        let results = cluster.run(|ctx| {
            if ctx.rank == 0 {
                for i in 0..100u64 {
                    ctx.send(1, &i.to_le_bytes());
                    let pong = ctx.recv(1);
                    assert_eq!(u64::from_le_bytes(pong.try_into().unwrap()), i + 1);
                }
                0u64
            } else {
                for _ in 0..100 {
                    let ping = ctx.recv(0);
                    let v = u64::from_le_bytes(ping.try_into().unwrap());
                    ctx.send(0, &(v + 1).to_le_bytes());
                }
                1u64
            }
        });
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn all_to_all_with_barrier() {
        const N: usize = 5;
        let cluster = ShmCluster::new(N, SendMode::WeaklyOrdered);
        let results = cluster.run(|ctx| {
            let me = ctx.rank;
            // Phase 1: everyone sends its rank to everyone.
            for p in 0..ctx.n {
                if p != me {
                    ctx.send(p, &(me as u64).to_le_bytes());
                }
            }
            let mut sum = me as u64;
            for p in 0..ctx.n {
                if p != me {
                    let m = ctx.recv(p);
                    sum += u64::from_le_bytes(m.try_into().unwrap());
                }
            }
            ctx.barrier();
            sum
        });
        assert_eq!(results, vec![10; N]);
    }

    #[test]
    fn large_messages_cross_ranks() {
        let cluster = ShmCluster::new(2, SendMode::WeaklyOrdered);
        let results = cluster.run(|ctx| {
            if ctx.rank == 0 {
                let big: Vec<u8> = (0..100_000u32).map(|i| (i % 241) as u8).collect();
                ctx.send(1, &big);
                big.len()
            } else {
                let got = ctx.recv(0);
                assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 241) as u8));
                got.len()
            }
        });
        assert_eq!(results, vec![100_000, 100_000]);
    }

    #[test]
    fn recv_any_collects_from_all() {
        const N: usize = 4;
        let cluster = ShmCluster::new(N, SendMode::WeaklyOrdered);
        let results = cluster.run(|ctx| {
            if ctx.rank == 0 {
                let mut seen = [false; N];
                let mut backoff = tcc_msglib::Backoff::new();
                for _ in 0..N - 1 {
                    let (src, msg) = loop {
                        match ctx.try_recv_any() {
                            Some(got) => break got,
                            None => backoff.snooze(),
                        }
                    };
                    assert_eq!(msg, (src as u64).to_le_bytes());
                    seen[src] = true;
                }
                seen.iter().skip(1).all(|&s| s) as usize
            } else {
                ctx.send(0, &(ctx.rank as u64).to_le_bytes());
                1
            }
        });
        assert_eq!(results[0], 1);
    }

    #[test]
    fn strict_mode_cluster_works() {
        let cluster = ShmCluster::new(3, SendMode::StrictlyOrdered);
        let results = cluster.run(|ctx| {
            let next = (ctx.rank + 1) % ctx.n;
            let prev = (ctx.rank + ctx.n - 1) % ctx.n;
            ctx.send(next, b"token");
            let t = ctx.recv(prev);
            t.len()
        });
        assert_eq!(results, vec![5, 5, 5]);
    }
}
