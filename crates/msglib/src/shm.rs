//! The shared-memory execution backend.
//!
//! Runs the message-library protocols with *real threads and real data
//! movement*, mapping TCCluster semantics onto the host memory model:
//!
//! * a remote posted store → relaxed word stores followed by a `Release`
//!   store of the last word (in-order visibility per channel, like the
//!   HT posted channel);
//! * `sfence` → `fence(SeqCst)`;
//! * an uncached poll → `Acquire` loads.
//!
//! Memory is an array of `AtomicU64` words, so any byte range can be read
//! and written concurrently without UB; the protocols guarantee a single
//! writer per region, mirroring the hardware (one HT link feeds one ring).

use crate::sync::{fence, AtomicU64, Ordering};
use crate::window::{LocalWindow, RemoteWindow};
use std::sync::Arc;

/// A block of exported memory, shareable across threads.
#[derive(Debug, Clone)]
pub struct ShmMemory {
    words: Arc<[AtomicU64]>,
}

impl ShmMemory {
    #[must_use]
    pub fn new(len_bytes: usize) -> Self {
        let words = len_bytes.div_ceil(8);
        ShmMemory {
            words: (0..words).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    pub fn len(&self) -> u64 {
        self.words.len() as u64 * 8
    }

    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// A write-only window over `[base, base+len)`.
    pub fn remote(&self, base: u64, len: u64) -> ShmRemote {
        assert!(base.is_multiple_of(8), "windows are 8-byte aligned");
        assert!(base + len <= self.len(), "window exceeds memory");
        ShmRemote {
            mem: self.clone(),
            base,
            len,
        }
    }

    /// A pollable window over `[base, base+len)`.
    pub fn local(&self, base: u64, len: u64) -> ShmLocal {
        assert!(base.is_multiple_of(8), "windows are 8-byte aligned");
        assert!(base + len <= self.len(), "window exceeds memory");
        ShmLocal {
            mem: self.clone(),
            base,
            len,
        }
    }

    fn store_bytes(&self, at: u64, data: &[u8]) {
        // Word-granular writes; partial edge words use read-merge-write.
        // Safe under the single-writer-per-region protocol invariant.
        let mut off = at;
        let mut data = data;
        // Leading partial word.
        if !off.is_multiple_of(8) {
            let w = (off / 8) as usize;
            let shift = (off % 8) as usize;
            let n = data.len().min(8 - shift);
            let mut cur = self.words[w].load(Ordering::Relaxed).to_le_bytes();
            cur[shift..shift + n].copy_from_slice(&data[..n]);
            self.words[w].store(u64::from_le_bytes(cur), Ordering::Relaxed);
            off += n as u64;
            data = &data[n..];
        }
        // Full words.
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let w = (off / 8) as usize;
            // chunks_exact(8) pins the length, so copy into a fixed word
            // rather than fallibly converting the slice.
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.words[w].store(u64::from_le_bytes(word), Ordering::Relaxed);
            off += 8;
        }
        // Trailing partial word.
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let w = (off / 8) as usize;
            let mut cur = self.words[w].load(Ordering::Relaxed).to_le_bytes();
            cur[..rem.len()].copy_from_slice(rem);
            self.words[w].store(u64::from_le_bytes(cur), Ordering::Relaxed);
        }
    }

    fn load_bytes(&self, at: u64, buf: &mut [u8]) {
        let mut off = at;
        let mut i = 0usize;
        while i < buf.len() {
            let w = (off / 8) as usize;
            let shift = (off % 8) as usize;
            let n = (buf.len() - i).min(8 - shift);
            let cur = self.words[w].load(Ordering::Acquire).to_le_bytes();
            buf[i..i + n].copy_from_slice(&cur[shift..shift + n]);
            off += n as u64;
            i += n;
        }
    }
}

/// Write-only view (the mmap of a remote node's exported page).
#[derive(Debug, Clone)]
pub struct ShmRemote {
    mem: ShmMemory,
    base: u64,
    len: u64,
}

impl RemoteWindow for ShmRemote {
    fn len(&self) -> u64 {
        self.len
    }

    fn store(&self, offset: u64, data: &[u8]) {
        assert!(
            offset + data.len() as u64 <= self.len,
            "store out of window"
        );
        self.mem.store_bytes(self.base + offset, data);
        // Publish: the header-last protocol needs the final word of a cell
        // to act as the release point. A release fence before nothing would
        // not order the relaxed stores for an acquire *load*, so promote
        // visibility with a real Release store of the last touched word.
        let last_word = (self.base + offset + data.len() as u64 - 1) / 8;
        let v = self.mem.words[last_word as usize].load(Ordering::Relaxed);
        self.mem.words[last_word as usize].store(v, Ordering::Release);
    }

    fn store_u64(&self, offset: u64, value: u64) {
        assert!(offset.is_multiple_of(8) && offset + 8 <= self.len);
        let w = ((self.base + offset) / 8) as usize;
        // Header stores are the release points of the ring protocol.
        fence(Ordering::Release);
        self.mem.words[w].store(value, Ordering::Release);
    }

    fn fence(&self) {
        fence(Ordering::SeqCst);
    }
}

/// Pollable view of the locally exported page.
#[derive(Debug, Clone)]
pub struct ShmLocal {
    mem: ShmMemory,
    base: u64,
    len: u64,
}

impl LocalWindow for ShmLocal {
    fn len(&self) -> u64 {
        self.len
    }

    fn load(&self, offset: u64, buf: &mut [u8]) {
        assert!(offset + buf.len() as u64 <= self.len, "load out of window");
        self.mem.load_bytes(self.base + offset, buf);
        fence(Ordering::Acquire);
    }

    fn load_u64(&self, offset: u64) -> u64 {
        assert!(offset.is_multiple_of(8) && offset + 8 <= self.len);
        let w = ((self.base + offset) / 8) as usize;
        self.mem.words[w].load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{channel, CHANNEL_BYTES, CREDIT_BYTES};
    use crate::ring::{SendMode, MAX_EAGER};

    #[test]
    fn unaligned_byte_ranges_round_trip() {
        let mem = ShmMemory::new(64);
        let r = mem.remote(0, 64);
        let l = mem.local(0, 64);
        r.store(3, &[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        let mut buf = [0u8; 11];
        l.load(3, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        // Neighbouring bytes untouched.
        let mut edge = [0u8; 3];
        l.load(0, &mut edge);
        assert_eq!(edge, [0, 0, 0]);
    }

    #[test]
    fn windows_are_disjoint_views() {
        let mem = ShmMemory::new(128);
        let r1 = mem.remote(0, 64);
        let r2 = mem.remote(64, 64);
        r1.store(0, &[0xAA]);
        r2.store(0, &[0xBB]);
        let l = mem.local(0, 128);
        let mut b = [0u8; 1];
        l.load(0, &mut b);
        assert_eq!(b[0], 0xAA);
        l.load(64, &mut b);
        assert_eq!(b[0], 0xBB);
    }

    #[test]
    #[should_panic(expected = "window exceeds memory")]
    fn oversized_window_rejected() {
        let mem = ShmMemory::new(64);
        mem.remote(32, 64);
    }

    #[test]
    fn threaded_ring_stress() {
        // The load-bearing test: a real producer thread and consumer
        // thread running the eager ring protocol over shared memory.
        // Every message is below MAX_EAGER, so the channel frames each
        // one onto its ring.
        let chan = ShmMemory::new(CHANNEL_BYTES as usize);
        let creds = ShmMemory::new(CREDIT_BYTES as usize);
        let (mut tx, mut rx) = channel(
            chan.remote(0, CHANNEL_BYTES),
            creds.local(0, CREDIT_BYTES),
            chan.local(0, CHANNEL_BYTES),
            creds.remote(0, CREDIT_BYTES),
            SendMode::WeaklyOrdered,
        );
        const N: u64 = 20_000;
        const _: () = assert!(190 + 8 < MAX_EAGER);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                let len = (i % 190) as usize;
                let mut msg = vec![(i % 251) as u8; len];
                msg.extend_from_slice(&i.to_le_bytes());
                tx.send(&msg).unwrap();
            }
        });
        for i in 0..N {
            let msg = rx.recv();
            let len = (i % 190) as usize;
            assert_eq!(msg.len(), len + 8);
            assert!(msg[..len].iter().all(|&b| b == (i % 251) as u8));
            assert_eq!(u64::from_le_bytes(msg[len..].try_into().unwrap()), i);
        }
        producer.join().unwrap();
    }
}
