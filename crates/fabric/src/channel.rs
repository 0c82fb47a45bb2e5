//! Bandwidth- and latency-limited transfer resources.
//!
//! [`Channel`] models a store-and-forward pipe: a transfer occupies the
//! channel for its serialisation time (bytes / bandwidth) and arrives a fixed
//! propagation latency after serialisation completes. Back-to-back transfers
//! queue behind one another, which is exactly how a HyperTransport lane, a
//! DRAM channel, or a PCIe link behaves at packet granularity.

use crate::time::{Duration, SimTime};

/// Exact serialisation time of `bytes` at `bytes_per_sec`, in picoseconds.
///
/// Computed in `u128` so that multi-megabyte transfers at multi-GB/s rates
/// never overflow or lose precision to floating point.
#[inline]
pub fn serialization_ps(bytes: u64, bytes_per_sec: u64) -> u64 {
    assert!(bytes_per_sec > 0, "zero-bandwidth channel");
    let num = bytes as u128 * 1_000_000_000_000u128;
    // Round up: a partial picosecond still occupies the wire.
    num.div_ceil(bytes_per_sec as u128) as u64
}

/// A store-and-forward pipe with finite bandwidth and fixed latency.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Propagation delay applied after serialisation.
    pub latency: Duration,
    /// Serialisation bandwidth in bytes per second.
    pub bytes_per_sec: u64,
    /// Earliest time the channel can begin serialising the next transfer.
    next_free: SimTime,
    /// Total bytes ever pushed through (statistics).
    bytes_total: u64,
    /// Total time the channel spent busy (statistics).
    busy: Duration,
    /// Small memo of recently computed serialisation times. Hot paths
    /// stream a handful of transfer sizes (64 B payloads, 8 B headers,
    /// 72 B wire packets), and the exact `u128` division is the single
    /// most expensive operation on the store path. A single entry
    /// thrashes when payload and header transfers alternate through the
    /// same channel, so keep a few; `(0, ZERO)` is a correct entry.
    memo: [(u64, Duration); Self::MEMO_ENTRIES],
    /// Round-robin replacement cursor for `memo`.
    memo_next: usize,
}

/// Result of submitting a transfer to a [`Channel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// When serialisation began (>= submission time if the channel was free).
    pub start: SimTime,
    /// When the last byte left the sender (channel becomes free).
    pub sent: SimTime,
    /// When the last byte arrives at the receiver (`sent + latency`).
    pub arrival: SimTime,
}

impl Channel {
    const MEMO_ENTRIES: usize = 4;

    #[must_use]
    pub fn new(latency: Duration, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "zero-bandwidth channel");
        Channel {
            latency,
            bytes_per_sec,
            next_free: SimTime::ZERO,
            bytes_total: 0,
            busy: Duration::ZERO,
            memo: [(0, Duration::ZERO); Self::MEMO_ENTRIES],
            memo_next: 0,
        }
    }

    /// Serialisation time of `bytes` on this channel, memoised.
    #[inline]
    fn serialization(&mut self, bytes: u64) -> Duration {
        for &(b, d) in &self.memo {
            if b == bytes {
                return d;
            }
        }
        let d = Duration(serialization_ps(bytes, self.bytes_per_sec));
        self.memo[self.memo_next] = (bytes, d);
        self.memo_next = (self.memo_next + 1) % Self::MEMO_ENTRIES;
        d
    }

    /// Submit a transfer of `bytes` at time `now`.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> Transfer {
        let start = now.max(self.next_free);
        let ser = self.serialization(bytes);
        let sent = start + ser;
        self.next_free = sent;
        self.bytes_total += bytes;
        self.busy += ser;
        Transfer {
            start,
            sent,
            arrival: sent + self.latency,
        }
    }

    /// Earliest time a new transfer could begin.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Whether the channel is idle at `now`.
    pub fn is_free(&self, now: SimTime) -> bool {
        self.next_free <= now
    }

    /// Queueing delay a transfer submitted at `now` would see.
    pub fn backlog(&self, now: SimTime) -> Duration {
        self.next_free.since(now)
    }

    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }

    pub fn busy_time(&self) -> Duration {
        self.busy
    }

    /// Reset occupancy (e.g. across warm resets) but keep configuration.
    pub fn reset(&mut self) {
        self.next_free = SimTime::ZERO;
        self.bytes_total = 0;
        self.busy = Duration::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1_000_000_000;

    #[test]
    fn serialization_exact() {
        // 64 bytes at 3.2 GB/s = 20 ns.
        assert_eq!(serialization_ps(64, 3_200_000_000), 20_000);
        // 1 byte at 1 B/s = 1 second.
        assert_eq!(serialization_ps(1, 1), 1_000_000_000_000);
        // Rounds up.
        assert_eq!(serialization_ps(1, 3), 333_333_333_334);
    }

    #[test]
    fn no_overflow_at_scale() {
        // 4 GiB at 12.8 GB/s — would overflow naive u64 math.
        let ps = serialization_ps(4 << 30, 12_800_000_000);
        let secs = ps as f64 / 1e12;
        assert!((secs - (4u64 << 30) as f64 / 12.8e9).abs() < 1e-6);
    }

    #[test]
    fn idle_channel_transfer() {
        let mut ch = Channel::new(Duration::from_nanos(50), 3_200_000_000);
        let t = ch.transfer(SimTime::ZERO, 64);
        assert_eq!(t.start, SimTime::ZERO);
        assert_eq!(t.sent, SimTime(20_000));
        assert_eq!(t.arrival, SimTime(70_000)); // 20 ns ser + 50 ns prop
    }

    #[test]
    fn back_to_back_queues() {
        let mut ch = Channel::new(Duration::from_nanos(50), 3_200_000_000);
        let a = ch.transfer(SimTime::ZERO, 64);
        let b = ch.transfer(SimTime::ZERO, 64);
        assert_eq!(b.start, a.sent, "second transfer waits for the wire");
        assert_eq!(b.arrival, SimTime(90_000));
        assert!(!ch.is_free(SimTime(30_000)));
        assert!(ch.is_free(SimTime(40_000)));
        assert_eq!(ch.bytes_total(), 128);
        assert_eq!(ch.busy_time(), Duration::from_nanos(40));
    }

    #[test]
    fn gap_between_transfers_leaves_wire_idle() {
        let mut ch = Channel::new(Duration::ZERO, GB);
        ch.transfer(SimTime::ZERO, 1000); // busy until 1 us
        let t = ch.transfer(SimTime(5_000_000), 1000); // submitted at 5 us
        assert_eq!(t.start, SimTime(5_000_000));
        assert_eq!(ch.busy_time(), Duration::from_micros(2));
    }

    #[test]
    fn sustained_rate_matches_bandwidth() {
        // Pushing 1 MB as 64 B packets through a 2.7 GB/s channel must take
        // 1 MB / 2.7 GB/s regardless of packetisation.
        let mut ch = Channel::new(Duration::from_nanos(50), 2_700_000_000);
        let mut last = SimTime::ZERO;
        let total: u64 = 1 << 20;
        for _ in 0..total / 64 {
            last = ch.transfer(SimTime::ZERO, 64).arrival;
        }
        let secs = (last.picos() - 50_000) as f64 / 1e12;
        let rate = total as f64 / secs;
        assert!((rate - 2.7e9).abs() / 2.7e9 < 0.001, "rate = {rate}");
    }

    #[test]
    fn backlog_reporting() {
        let mut ch = Channel::new(Duration::ZERO, GB);
        assert_eq!(ch.backlog(SimTime::ZERO), Duration::ZERO);
        ch.transfer(SimTime::ZERO, 2000);
        assert_eq!(ch.backlog(SimTime::ZERO), Duration::from_micros(2));
        assert_eq!(ch.backlog(SimTime(1_000_000)), Duration::from_micros(1));
    }

    #[test]
    fn reset_clears_occupancy() {
        let mut ch = Channel::new(Duration::ZERO, GB);
        ch.transfer(SimTime::ZERO, 1 << 20);
        ch.reset();
        assert!(ch.is_free(SimTime::ZERO));
        assert_eq!(ch.bytes_total(), 0);
    }
}
