//! Memory windows: the driver-level abstraction the message library is
//! built on.
//!
//! After boot, the TCCluster driver hands user space two kinds of mappings
//! (paper §V "Enabling Remote Access" / "Data Transmission"):
//!
//! * a [`RemoteWindow`] onto another node's exported memory — **write
//!   only**, because a TCCluster link cannot route responses, so the trait
//!   deliberately has no load method; and
//! * a [`LocalWindow`] onto this node's own exported (uncacheable) memory,
//!   where incoming posted writes appear and polling happens.
//!
//! Offsets are window-relative. All multi-byte values are little-endian.

/// Exponential-backoff spinner for polling loops.
///
/// TCCluster software really does spin (the receive path *is* a poll
/// loop), but an emulation must share cores with the thread it waits for.
/// Early iterations spin a handful of pause instructions (the message is
/// usually already in flight); only after the spin budget is exhausted
/// does the waiter start yielding its quantum. This keeps the common
/// ping-pong case on-core while still being polite under real contention
/// — on a single-core host an unbounded `spin_loop` would burn whole
/// scheduler quanta waiting for a peer that cannot run.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Spin budget: 2^SPIN_LIMIT pause instructions before yielding.
    const SPIN_LIMIT: u32 = 7;

    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// What the next [`snooze`](Self::snooze) will do: burn `Some(n)`
    /// pause instructions, or `None` — give up the scheduler quantum.
    /// Exposed so the escalation schedule itself is unit-testable.
    pub fn spins_next(&self) -> Option<u32> {
        (self.step <= Self::SPIN_LIMIT).then(|| 1u32 << self.step)
    }

    /// Whether the spin budget is exhausted (every further snooze yields).
    pub fn is_yielding(&self) -> bool {
        self.step > Self::SPIN_LIMIT
    }

    /// Wait one escalating step: spin 2^step pauses, doubling each call,
    /// or yield the quantum once the spin budget is spent. The step
    /// saturates — total on-core spinning per wait is bounded at
    /// 2^(SPIN_LIMIT+1)-1 pauses, after which a waiter on a single-core
    /// host cedes the CPU to whoever it is waiting for.
    pub fn snooze(&mut self) {
        let spins = self.spins_next();
        self.step = (self.step + 1).min(Self::SPIN_LIMIT + 1);
        // Under loom, spinning never lets the modeled scheduler switch
        // threads: always yield so polling loops make progress.
        #[cfg(loom)]
        {
            let _ = spins;
            loom::thread::yield_now();
        }
        #[cfg(not(loom))]
        match spins {
            Some(n) => {
                for _ in 0..n {
                    std::hint::spin_loop();
                }
            }
            None => std::thread::yield_now(),
        }
    }

    /// Restart the escalation (call after making progress).
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

/// Write-only mapping of remote memory.
pub trait RemoteWindow {
    /// Number of addressable bytes.
    fn len(&self) -> u64;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Posted store of `data` at `offset`. Weakly ordered: may coalesce
    /// with neighbouring stores in write-combining buffers.
    fn store(&self, offset: u64, data: &[u8]);

    /// Store a little-endian u64 (8-aligned offsets only).
    fn store_u64(&self, offset: u64, value: u64) {
        self.store(offset, &value.to_le_bytes());
    }

    /// `sfence`: all prior stores through this window become globally
    /// visible before any later ones.
    fn fence(&self);
}

/// Pollable mapping of local exported memory (uncacheable).
pub trait LocalWindow {
    fn len(&self) -> u64;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Uncached read of `buf.len()` bytes at `offset`.
    fn load(&self, offset: u64, buf: &mut [u8]);

    /// Uncached read of a little-endian u64.
    fn load_u64(&self, offset: u64) -> u64 {
        let mut b = [0u8; 8];
        self.load(offset, &mut b);
        u64::from_le_bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{LocalAt, RemoteAt};
    use crate::shm::ShmMemory;

    #[test]
    fn backoff_schedule_doubles_then_yields() {
        let mut b = Backoff::new();
        // Spin phase: 1, 2, 4, ... 128 pauses — doubling each snooze.
        for expect in [1u32, 2, 4, 8, 16, 32, 64, 128] {
            assert_eq!(b.spins_next(), Some(expect));
            assert!(!b.is_yielding());
            b.snooze();
        }
        // Budget exhausted: every further snooze yields the quantum.
        for _ in 0..3 {
            assert_eq!(b.spins_next(), None);
            assert!(b.is_yielding());
            b.snooze();
        }
        // Progress restarts the escalation from the shortest spin.
        b.reset();
        assert_eq!(b.spins_next(), Some(1));
        assert!(!b.is_yielding());
    }

    #[test]
    fn store_load_round_trip() {
        let mem = ShmMemory::new(128);
        let r = RemoteAt::new(mem.remote(0, 128), 0, 128);
        let l = LocalAt::new(mem.local(0, 128), 0, 128);
        r.store(16, &[1, 2, 3]);
        let mut buf = [0u8; 3];
        l.load(16, &mut buf);
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn u64_helpers_little_endian() {
        // RemoteAt/LocalAt keep the traits' default store_u64/load_u64.
        let mem = ShmMemory::new(64);
        let r = RemoteAt::new(mem.remote(0, 64), 0, 64);
        let l = LocalAt::new(mem.local(0, 64), 0, 64);
        r.store_u64(8, 0x0102_0304_0506_0708);
        assert_eq!(l.load_u64(8), 0x0102_0304_0506_0708);
        let mut raw = [0u8; 8];
        l.load(8, &mut raw);
        assert_eq!(raw[0], 0x08, "little-endian");
    }

    #[test]
    #[should_panic(expected = "out of window")]
    fn oob_store_panics() {
        let mem = ShmMemory::new(16);
        mem.remote(0, 16).store(15, &[0, 0]);
    }

    #[test]
    fn window_has_no_load_on_remote() {
        // Compile-time property, documented here: RemoteWindow exposes
        // only store/fence. (If a `load` were added this test file is the
        // reminder of why it must not be.)
        fn takes_remote<R: RemoteWindow>(_: &R) {}
        let mem = ShmMemory::new(16);
        takes_remote(&mem.remote(0, 16));
    }
}
