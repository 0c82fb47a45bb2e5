//! A Mellanox ConnectX-like InfiniBand model — the comparison interconnect
//! of the paper's evaluation (§VI and \[10\]).
//!
//! The model is LogGP-shaped: a message costs sender overhead (MPI stack +
//! doorbell), a per-message NIC/fabric gap, wire serialisation, and
//! receiver overhead. Parameters are calibrated to the published numbers
//! the paper cites:
//!
//! * end-to-end latency ≈ 1.4 µs for minimal messages,
//! * MPI bandwidth ≈ 200 MB/s @64 B, ≈ 1500 MB/s @1 KB, ≈ 2500 MB/s @1 MB.

use tcc_fabric::time::Duration;

/// LogGP-style parameters of one NIC + fabric.
#[derive(Debug, Clone)]
pub struct IbParams {
    /// Software send overhead: MPI + verbs + doorbell write over PCIe/HTX.
    pub o_send: Duration,
    /// NIC processing + switch + wire propagation (the "L" term).
    pub latency: Duration,
    /// Receiver-side overhead: completion, cache-invalidate, MPI matching.
    pub o_recv: Duration,
    /// Per-message gap: the NIC's message issue rate limit (1/msg-rate).
    pub gap: Duration,
    /// Wire/DMA bandwidth in bytes per second (QDR 4x minus protocol).
    pub bytes_per_sec: u64,
}

impl IbParams {
    /// ConnectX QDR as published (Sur et al., HOTI'07; Mellanox data).
    pub fn connectx() -> Self {
        IbParams {
            o_send: Duration::from_nanos(160),
            latency: Duration::from_nanos(1060),
            o_recv: Duration::from_nanos(160),
            gap: Duration::from_nanos(300),
            bytes_per_sec: 2_800_000_000,
        }
    }
}

/// The modelled NIC.
#[derive(Debug, Clone)]
pub struct IbNic {
    pub params: IbParams,
}

impl IbNic {
    pub fn connectx() -> Self {
        IbNic {
            params: IbParams::connectx(),
        }
    }

    /// One-way end-to-end latency of a `size`-byte message.
    pub fn latency(&self, size: usize) -> Duration {
        let p = &self.params;
        let ser = Duration(tcc_fabric::channel::serialization_ps(
            size as u64,
            p.bytes_per_sec,
        ));
        p.o_send + p.latency + ser + p.o_recv
    }

    /// Streaming bandwidth in MB/s for `size`-byte messages. Per-message
    /// NIC gap and serialisation do not overlap (matching the measured
    /// MPI curve: 200 MB/s @64 B, 1500 @1 KB, approaching wire at 1 MB).
    pub fn bandwidth_mb_s(&self, size: usize) -> f64 {
        let p = &self.params;
        let ser = tcc_fabric::channel::serialization_ps(size as u64, p.bytes_per_sec);
        let per_msg = ser + p.gap.picos();
        size as f64 / (per_msg as f64 / 1e12) / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_anchor_1_4us() {
        let nic = IbNic::connectx();
        let us = nic.latency(64).micros();
        assert!((us - 1.4).abs() < 0.05, "64 B latency = {us:.3} us");
    }

    #[test]
    fn bandwidth_anchors() {
        let nic = IbNic::connectx();
        let b64 = nic.bandwidth_mb_s(64);
        let b1k = nic.bandwidth_mb_s(1024);
        let b1m = nic.bandwidth_mb_s(1 << 20);
        assert!(
            (b64 - 200.0).abs() < 30.0,
            "64 B: {b64:.0} MB/s (paper: 200)"
        );
        assert!(
            (b1k - 1500.0).abs() < 200.0,
            "1 KB: {b1k:.0} MB/s (paper: 1500)"
        );
        assert!(
            (b1m - 2500.0).abs() < 350.0,
            "1 MB: {b1m:.0} MB/s (paper: 2500)"
        );
    }

    #[test]
    fn bandwidth_monotone_until_wire_bound() {
        let nic = IbNic::connectx();
        let mut prev = 0.0;
        for p in 6..=20 {
            let bw = nic.bandwidth_mb_s(1 << p);
            assert!(bw >= prev - 1e-9, "dip at 2^{p}");
            prev = bw;
        }
        assert!(prev < 2900.0, "asymptote is the wire: {prev:.0}");
    }

    #[test]
    fn latency_grows_with_size() {
        let nic = IbNic::connectx();
        assert!(nic.latency(4096) > nic.latency(64));
        // 1 KB is still dominated by the fixed path.
        assert!(nic.latency(1024).micros() < 2.0);
    }
}
