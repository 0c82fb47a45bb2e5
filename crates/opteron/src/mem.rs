//! The memory controller and DRAM backing store.
//!
//! Holds the actual bytes (so simulated messages really move data) and
//! models timing: a bandwidth-limited DRAM channel plus fixed write-commit
//! and read latencies. Addresses are node-local *offsets* into this node's
//! DRAM; the northbridge subtracts the DRAM base before handing accesses
//! down.
//!
//! The backing store is page-sparse: each [`PAGE_BYTES`] page is
//! allocated on its first write, and an untouched page reads as zeros.
//! A cluster exports every node's full DRAM into the global address
//! space, but a run lands writes in a few windows of it, so host memory
//! follows what the run touches rather than the nominal capacity.

use crate::params::UarchParams;
use tcc_fabric::channel::Channel;
use tcc_fabric::time::{Duration, SimTime};

/// Granularity of the sparse backing store.
pub const PAGE_BYTES: usize = 4096;

/// One node's memory controller + DIMMs.
#[derive(Debug)]
pub struct MemoryController {
    /// One slot per page of the nominal capacity; `None` until written.
    pages: Vec<Option<Box<[u8]>>>,
    capacity: usize,
    channel: Channel,
    write_commit: Duration,
    read_latency: Duration,
    pub writes: u64,
    pub reads: u64,
}

impl MemoryController {
    pub fn new(capacity: usize, params: &UarchParams) -> Self {
        MemoryController {
            pages: vec![None; capacity.div_ceil(PAGE_BYTES)],
            capacity,
            channel: Channel::new(Duration::ZERO, params.dram_bytes_per_sec),
            write_commit: params.dram_write,
            read_latency: params.dram_read,
            writes: 0,
            reads: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Host bytes backing this DRAM: the pages written so far.
    pub fn resident_bytes(&self) -> usize {
        self.pages.iter().flatten().count() * PAGE_BYTES
    }

    /// Commit a write at `now`; returns the time the data becomes visible
    /// to subsequent reads.
    pub fn write(&mut self, now: SimTime, offset: u64, data: &[u8]) -> SimTime {
        let off = offset as usize;
        assert!(
            off + data.len() <= self.capacity,
            "DRAM write out of range: {off:#x}+{}",
            data.len()
        );
        self.store(off, data);
        self.writes += 1;
        let t = self.channel.transfer(now, data.len() as u64);
        t.sent + self.write_commit
    }

    /// Read `len` bytes at `offset`; returns the data and completion time.
    pub fn read(&mut self, now: SimTime, offset: u64, len: usize) -> (Vec<u8>, SimTime) {
        let off = offset as usize;
        assert!(off + len <= self.capacity, "DRAM read out of range");
        self.reads += 1;
        let t = self.channel.transfer(now, len as u64);
        (self.peek(offset, len), t.sent + self.read_latency)
    }

    /// Copy out `len` bytes at `offset` with no timing or accounting,
    /// for assertions and polling models that account for their own
    /// timing. Untouched pages read as zeros.
    pub fn peek(&self, offset: u64, len: usize) -> Vec<u8> {
        let mut off = offset as usize;
        assert!(off + len <= self.capacity, "DRAM peek out of range");
        let mut data = Vec::with_capacity(len);
        while data.len() < len {
            let at = off % PAGE_BYTES;
            let n = (len - data.len()).min(PAGE_BYTES - at);
            match &self.pages[off / PAGE_BYTES] {
                Some(page) => data.extend_from_slice(&page[at..at + n]),
                None => data.resize(data.len() + n, 0),
            }
            off += n;
        }
        data
    }

    /// Direct mutation for test setup.
    pub fn poke(&mut self, offset: u64, data: &[u8]) {
        let off = offset as usize;
        assert!(off + data.len() <= self.capacity, "DRAM poke out of range");
        self.store(off, data);
    }

    /// Whether both DRAMs hold the same bytes at every offset (an absent
    /// page is all zeros).
    pub fn contents_eq(&self, other: &MemoryController) -> bool {
        let zero = |p: &[u8]| p.iter().all(|&b| b == 0);
        self.capacity == other.capacity
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .all(|(a, b)| match (a, b) {
                    (Some(a), Some(b)) => a == b,
                    (Some(p), None) | (None, Some(p)) => zero(p),
                    (None, None) => true,
                })
    }

    /// Reset channel occupancy (new measurement epoch); contents stay.
    pub fn quiesce(&mut self) {
        self.channel.reset();
    }

    /// Copy `data` in at `off`, split at page boundaries.
    fn store(&mut self, mut off: usize, mut data: &[u8]) {
        while !data.is_empty() {
            let at = off % PAGE_BYTES;
            let n = data.len().min(PAGE_BYTES - at);
            let (head, rest) = data.split_at(n);
            self.page_mut(off / PAGE_BYTES)[at..at + n].copy_from_slice(head);
            off += n;
            data = rest;
        }
    }

    /// The page at index `page`, allocated zeroed on first touch.
    ///
    /// `tcc_alloc_ok`: a page is allocated once, the first time a run
    /// writes into it, and then lives as long as the node — steady-state
    /// traffic into a window it already wrote never reaches the `vec!`
    /// below (`resident_bytes` counts the pages; `tests/alloc_regression.rs`
    /// asserts that the warmed-up store path allocates nothing).
    #[cfg_attr(lint, tcc_alloc_ok)]
    fn page_mut(&mut self, page: usize) -> &mut [u8] {
        self.pages[page].get_or_insert_with(|| vec![0; PAGE_BYTES].into_boxed_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc() -> MemoryController {
        MemoryController::new(1 << 20, &UarchParams::shanghai())
    }

    #[test]
    fn write_then_read_round_trips_data() {
        let mut m = mc();
        let vis = m.write(SimTime::ZERO, 0x100, &[1, 2, 3, 4]);
        assert!(vis > SimTime::ZERO);
        let (data, done) = m.read(vis, 0x100, 4);
        assert_eq!(data, vec![1, 2, 3, 4]);
        assert!(done > vis);
    }

    #[test]
    fn write_commit_includes_fixed_latency() {
        let mut m = mc();
        let vis = m.write(SimTime::ZERO, 0, &[0u8; 64]);
        // 64 B at 10.6 GB/s ≈ 6 ns serialisation + 10 ns commit.
        assert!(vis.nanos() > 15.0 && vis.nanos() < 18.0, "{vis}");
    }

    #[test]
    fn bandwidth_limits_back_to_back_writes() {
        let mut m = mc();
        let mut last = SimTime::ZERO;
        for i in 0..1000u64 {
            last = m.write(SimTime::ZERO, i * 64, &[0u8; 64]);
        }
        // 64 KB at 10.6 GB/s ≈ 6.04 us (plus one commit latency).
        let us = last.micros();
        assert!((us - 6.05).abs() < 0.2, "{us}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_write_panics() {
        let mut m = mc();
        m.write(SimTime::ZERO, (1 << 20) - 2, &[0u8; 4]);
    }

    #[test]
    #[should_panic(expected = "DRAM write out of range: 0x100000+1")]
    fn write_at_capacity_panics() {
        let mut m = mc();
        m.write(SimTime::ZERO, 1 << 20, &[0u8; 1]);
    }

    #[test]
    fn peek_and_poke() {
        let mut m = mc();
        m.poke(42, &[7]);
        assert_eq!(m.peek(42, 1), [7]);
        assert_eq!(m.writes, 0, "poke bypasses accounting");
    }

    #[test]
    fn untouched_range_reads_as_zeros() {
        let mut m = mc();
        m.poke(0x1000, &[0xAB; 16]);
        assert_eq!(m.peek(0x3_0000, 3 * PAGE_BYTES), vec![0; 3 * PAGE_BYTES]);
        let (data, _) = m.read(SimTime::ZERO, 0x0FF8, 16);
        assert_eq!(data, [[0; 8], [0xAB; 8]].concat());
        assert_eq!(m.resident_bytes(), PAGE_BYTES, "reads allocate nothing");
    }

    #[test]
    fn write_straddling_a_page_boundary_round_trips() {
        let mut m = mc();
        let data: Vec<u8> = (1..=64).collect();
        let at = 2 * PAGE_BYTES as u64 - 24;
        let vis = m.write(SimTime::ZERO, at, &data);
        assert_eq!(m.resident_bytes(), 2 * PAGE_BYTES, "split across two pages");
        assert_eq!(m.read(vis, at, 64).0, data);
        assert_eq!(m.peek(at, 64), data);
        assert_eq!(m.peek(at - 1, 1), [0]);
        assert_eq!(m.peek(at + 64, 1), [0]);
    }

    #[test]
    fn resident_bytes_counts_only_touched_pages() {
        let mut m = mc();
        assert_eq!(m.capacity(), 1 << 20);
        assert_eq!(m.resident_bytes(), 0);
        for i in 0..64u64 {
            m.write(SimTime::ZERO, 0x8000 + i * 64, &[1; 64]);
        }
        assert_eq!(m.resident_bytes(), PAGE_BYTES, "64 lines fill one page");
        m.write(SimTime::ZERO, (1 << 20) - 1, &[2]);
        assert_eq!(m.resident_bytes(), 2 * PAGE_BYTES);
    }

    #[test]
    fn contents_eq_treats_absent_pages_as_zeros() {
        let (mut a, mut b) = (mc(), mc());
        a.poke(0x5000, &[0; 8]);
        assert!(a.contents_eq(&b) && b.contents_eq(&a));
        b.poke(0xF_FFFF, &[1]);
        assert!(!a.contents_eq(&b) && !b.contents_eq(&a));
        a.poke(0xF_FFFF, &[1]);
        assert!(a.contents_eq(&b));
        let small = MemoryController::new(1 << 19, &UarchParams::shanghai());
        assert!(!small.contents_eq(&MemoryController::new(1 << 20, &UarchParams::shanghai())));
    }
}
