//! A slab pool of reference-counted payload buffers.
//!
//! Every posted-write packet carries its payload as [`Bytes`]. Building
//! that from a fresh `Vec<u8>` per packet is two heap allocations on the
//! hottest path of the simulator (the store-issue loop). The pool instead
//! recycles `Arc<Vec<u8>>` slabs: a slot is reusable as soon as every
//! packet referencing it has been dropped (strong count back to one), so a
//! steady-state stream of bounded in-flight packets allocates nothing.

use bytes::Bytes;
use std::sync::Arc;

/// Per-node payload buffer pool. Not thread-safe by design — each
/// simulated node is driven from one thread.
#[derive(Debug, Default)]
pub struct PayloadPool {
    slots: Vec<Arc<Vec<u8>>>,
    /// Round-robin scan start, so consecutive allocations don't re-probe
    /// slots that were just handed out.
    next: usize,
    /// Statistics: total allocations served / slots grown.
    pub served: u64,
    pub grown: u64,
}

/// Payloads are at most one cache line in this model; sizing slabs to the
/// line keeps every steady-state copy within capacity.
const MIN_SLAB: usize = 64;

/// Probes per allocation before giving up and growing the pool. Chained
/// propagation drains a burst every 64 cells, so at most a window of slots
/// is busy there. An event-mode engine instead holds every injected packet
/// until it runs: a whole rendezvous message keeps thousands of slots busy
/// at once, and an unbounded scan would make each allocation O(pool) and
/// the burst quadratic. Bounding the probes keeps allocation O(1) while
/// steady-state streams still recycle on the first probe.
const PROBE_LIMIT: usize = 8;

impl PayloadPool {
    pub fn new() -> Self {
        PayloadPool::default()
    }

    /// Copy `data` into a recycled slab (or a new one if every slab is
    /// still referenced by an in-flight packet) and return it as `Bytes`.
    ///
    /// `tcc_alloc_ok`: growing the pool is the amortized fallback when
    /// every slab is in flight — steady-state traffic recycles slabs and
    /// never reaches the `with_capacity` below (`grown` counts the
    /// exceptions; `tests/alloc_regression.rs` asserts that the warmed-up
    /// store path allocates nothing).
    #[cfg_attr(lint, tcc_alloc_ok)]
    pub fn alloc(&mut self, data: &[u8]) -> Bytes {
        self.served += 1;
        let n = self.slots.len();
        for _ in 0..n.min(PROBE_LIMIT) {
            let i = if self.next < n { self.next } else { 0 };
            self.next = i + 1;
            if let Some(buf) = Arc::get_mut(&mut self.slots[i]) {
                if buf.capacity() >= data.len() {
                    buf.clear();
                    buf.extend_from_slice(data);
                    return Bytes::from(Arc::clone(&self.slots[i]));
                }
            }
        }
        // All slots busy (or too small): grow the pool.
        self.grown += 1;
        let mut buf = Vec::with_capacity(MIN_SLAB.max(data.len()));
        buf.extend_from_slice(data);
        let slab = Arc::new(buf);
        let out = Bytes::from(Arc::clone(&slab));
        self.slots.push(slab);
        out
    }

    /// Number of slabs currently owned by the pool.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_allocs_reuse_one_slot() {
        let mut p = PayloadPool::new();
        for i in 0..100u8 {
            let b = p.alloc(&[i; 64]);
            assert_eq!(&b[..], &[i; 64]);
            drop(b);
        }
        assert_eq!(p.slots(), 1, "dropped payloads recycle their slab");
        assert_eq!(p.served, 100);
        assert_eq!(p.grown, 1);
    }

    #[test]
    fn live_payloads_force_growth_then_recycle() {
        let mut p = PayloadPool::new();
        let held: Vec<Bytes> = (0..4u8).map(|i| p.alloc(&[i; 8])).collect();
        assert_eq!(p.slots(), 4);
        assert_eq!(&held[2][..], &[2; 8]);
        drop(held);
        let grown_before = p.grown;
        for _ in 0..16 {
            let _ = p.alloc(&[9; 16]);
        }
        assert_eq!(p.grown, grown_before, "no growth once slabs are free");
        assert_eq!(p.slots(), 4);
    }

    #[test]
    fn payload_bytes_are_isolated_per_allocation() {
        let mut p = PayloadPool::new();
        let a = p.alloc(&[1, 2, 3]);
        let b = p.alloc(&[4, 5]);
        assert_eq!(&a[..], &[1, 2, 3]);
        assert_eq!(&b[..], &[4, 5]);
    }
}
