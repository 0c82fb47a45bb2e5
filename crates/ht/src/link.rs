//! The physical link: width, frequency, serialisation and the transmit
//! machinery combining virtual-channel queues, credits and CRC/retry.
//!
//! A [`LinkConfig`] captures what the paper calls "HT800 / 16 bit": the link
//! clock in MHz (data moves on both edges, so bit rate per lane is twice the
//! clock) and the lane count per direction.

use crate::crc;
use crate::flow::{
    nop_for, return_from_nop, CreditError, CreditReturn, RxBuffers, TxCredits, DEFAULT_CREDITS,
};
use crate::packet::{Packet, VirtualChannel};
use std::collections::VecDeque;
use tcc_fabric::channel::Channel;
use tcc_fabric::time::{Duration, SimTime};
use tcc_fabric::Xoshiro256;

/// Physical-layer configuration of one HT link direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkConfig {
    /// Link clock in MHz; "HT800" means 800 MHz (1.6 Gbit/s per lane DDR).
    pub clock_mhz: u32,
    /// Lane count per direction (8, 16 or 32).
    pub width_bits: u8,
    /// One-hop propagation + forwarding latency. The paper measures
    /// ~50 ns per hop on the Opteron fabric.
    pub hop_latency: Duration,
}

impl LinkConfig {
    /// The 200 MHz / 8-bit state every link powers up in after cold reset
    /// (HT spec: links always train at 200 MHz, 8 bits wide).
    pub const BOOT: LinkConfig = LinkConfig {
        clock_mhz: 200,
        width_bits: 8,
        hop_latency: Duration(50_000),
    };

    /// The paper's prototype: HT800 over the HTX cable, 16 bits wide
    /// (1.6 Gbit/s/lane; cable signal integrity barred higher rates).
    pub const PROTOTYPE: LinkConfig = LinkConfig {
        clock_mhz: 800,
        width_bits: 16,
        hop_latency: Duration(50_000),
    };

    /// Full-speed on-board HT3: 2.6 GHz, 16 bit (5.2 Gbit/s/lane,
    /// 10.4 GB/s raw per direction).
    pub const HT3_FULL: LinkConfig = LinkConfig {
        clock_mhz: 2600,
        width_bits: 16,
        hop_latency: Duration(50_000),
    };

    /// Raw unidirectional bandwidth in bytes per second (DDR: two transfers
    /// per clock).
    pub fn raw_bytes_per_sec(&self) -> u64 {
        self.clock_mhz as u64 * 1_000_000 * 2 * self.width_bits as u64 / 8
    }

    /// Effective bandwidth after the periodic CRC windows.
    pub fn effective_bytes_per_sec(&self) -> u64 {
        crc::derate_bandwidth(self.raw_bytes_per_sec())
    }

    /// Per-lane bit rate in Gbit/s (the unit the paper quotes).
    pub fn gbit_per_lane(&self) -> f64 {
        self.clock_mhz as f64 * 2.0 / 1000.0
    }

    /// Build the serialisation channel for this configuration.
    pub fn channel(&self) -> Channel {
        Channel::new(self.hop_latency, self.effective_bytes_per_sec())
    }
}

/// Statistics of one link direction.
#[derive(Debug, Default, Clone)]
pub struct LinkStats {
    pub packets_sent: u64,
    pub wire_bytes_sent: u64,
    pub nops_sent: u64,
    pub retries: u64,
    pub stalls_no_credit: u64,
}

/// One direction of a link: VC queues in front of credits in front of the
/// serialising channel.
#[derive(Debug)]
pub struct LinkTx {
    pub config: LinkConfig,
    channel: Channel,
    credits: TxCredits,
    queues: [VecDeque<Packet>; 3],
    /// Error injection: probability a transmitted packet's CRC window is
    /// corrupted, which costs one whole resend of the packet.
    pub crc_error_rate: f64,
    rng: Xoshiro256,
    pub stats: LinkStats,
}

/// A packet delivered out of a [`LinkTx`], with its arrival time.
#[derive(Debug, Clone)]
pub struct Delivery {
    pub packet: Packet,
    pub arrival: SimTime,
}

impl LinkTx {
    pub fn new(config: LinkConfig, seed: u64) -> Self {
        LinkTx {
            config,
            channel: config.channel(),
            credits: TxCredits::new(DEFAULT_CREDITS),
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            crc_error_rate: 0.0,
            rng: Xoshiro256::seeded(seed),
            stats: LinkStats::default(),
        }
    }

    /// Reconfigure the physical layer (warm reset applies new parameters).
    /// Queued packets and in-flight state are dropped — a warm reset
    /// reinitialises the link.
    pub fn warm_reset(&mut self, config: LinkConfig) {
        self.config = config;
        self.channel = config.channel();
        self.credits = TxCredits::new(DEFAULT_CREDITS);
        for q in &mut self.queues {
            q.clear();
        }
    }

    /// Queue a packet for transmission.
    pub fn enqueue(&mut self, pkt: Packet) {
        self.queues[pkt.vc().index()].push_back(pkt);
    }

    pub fn queued(&self, vc: VirtualChannel) -> usize {
        self.queues[vc.index()].len()
    }

    /// Nothing waiting on any VC: a pump would transmit nothing and (with
    /// no fronts to stall) record nothing, so callers may skip it.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    pub fn is_idle(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    pub fn credits(&self) -> &TxCredits {
        &self.credits
    }

    /// Apply a credit return received from the far side. Fails when the
    /// far side returns credits that were never consumed — a protocol
    /// violation by the receiver.
    #[cfg_attr(lint, tcc_linear(credit), tcc_releases(credit))]
    pub fn credit_return(&mut self, ret: CreditReturn) -> Result<(), CreditError> {
        self.credits.release(ret)
    }

    /// Try to transmit queued packets at `now`. Returns the deliveries that
    /// entered the wire; each carries its arrival time at the far side.
    ///
    /// Arbitration is round-robin across VCs, but a packet blocked on
    /// credits only blocks its own VC — that independence is what keeps the
    /// fabric deadlock-free.
    pub fn pump(&mut self, now: SimTime) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.pump_into(now, &mut out);
        out
    }

    /// Enqueue one packet and pump — the per-flush hot path. When every
    /// VC queue is empty and credits admit the packet, it goes straight
    /// to the wire without the queue round-trip; the transfer order (and
    /// therefore all timing) is identical to `enqueue` + `pump_into`.
    // tcc_transfer_ok: a consumed credit stays held while the packet is
    // on the wire; the far side hands it back through `credit_return`.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    #[cfg_attr(lint, tcc_linear(credit), tcc_transfer_ok)]
    pub fn send_into(&mut self, now: SimTime, pkt: Packet, out: &mut Vec<Delivery>) {
        if self.queues.iter().all(|q| q.is_empty()) && self.credits.consume(&pkt).is_ok() {
            out.push(self.put_on_wire(now, pkt));
            return;
        }
        self.enqueue(pkt);
        self.pump_into(now, out);
    }

    /// Like [`pump`](Self::pump), but appends into a caller-provided
    /// scratch vector — the store-issue hot path reuses one per node so
    /// pumping allocates nothing in steady state.
    // tcc_transfer_ok: every credit consumed here rides out with a
    // transmitted packet and returns via the far side's NOPs.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    #[cfg_attr(lint, tcc_linear(credit), tcc_transfer_ok)]
    pub fn pump_into(&mut self, now: SimTime, out: &mut Vec<Delivery>) {
        loop {
            let mut sent_any = false;
            for vc in VirtualChannel::ALL {
                let q = &mut self.queues[vc.index()];
                let Some(front) = q.front() else { continue };
                if self.credits.consume(front).is_err() {
                    self.stats.stalls_no_credit += 1;
                    continue;
                }
                // Credits are consumed; the front must leave the queue.
                let Some(pkt) = q.pop_front() else { break };
                out.push(self.put_on_wire(now, pkt));
                sent_any = true;
            }
            if !sent_any {
                break;
            }
        }
    }

    /// Transmit a NOP carrying `ret` (NOPs bypass credit checks — they are
    /// info packets and always admissible).
    pub fn send_nop(&mut self, now: SimTime, ret: CreditReturn) -> Delivery {
        let pkt = Packet::control(nop_for(ret));
        self.stats.nops_sent += 1;
        self.put_on_wire(now, pkt)
    }

    fn put_on_wire(&mut self, now: SimTime, pkt: Packet) -> Delivery {
        let wire = pkt.wire_bytes();
        // Error injection: each corrupted window costs one more full copy
        // of the packet on the channel, drawn from the seeded rng. No
        // resynchronisation gap is modelled; the first clean copy is the
        // one delivered.
        while self.crc_error_rate > 0.0 && self.rng.chance(self.crc_error_rate) {
            self.stats.retries += 1;
            self.stats.wire_bytes_sent += wire;
            self.channel.transfer(now, wire);
        }
        let t = self.channel.transfer(now, wire);
        self.stats.packets_sent += 1;
        self.stats.wire_bytes_sent += wire;
        Delivery {
            packet: pkt,
            arrival: t.arrival,
        }
    }

    /// Earliest time the wire is free (for schedulers).
    pub fn next_free(&self) -> SimTime {
        self.channel.next_free()
    }
}

/// Receiver side of a link direction: buffer accounting + credit harvesting.
#[derive(Debug)]
pub struct LinkRx {
    buffers: RxBuffers,
    pub packets_received: u64,
    pub bytes_received: u64,
}

impl LinkRx {
    /// A receiver matching [`DEFAULT_CREDITS`]-deep transmitters.
    pub fn new() -> Self {
        Self::with_depth(DEFAULT_CREDITS)
    }

    /// A receiver with an explicit buffer depth per pool; must match the
    /// initial credits of the paired [`LinkTx`].
    pub fn with_depth(initial: u8) -> Self {
        LinkRx {
            buffers: RxBuffers::new(initial),
            packets_received: 0,
            bytes_received: 0,
        }
    }

    /// Accept an arriving packet. If it is a NOP, the carried credit return
    /// is extracted and handed back for the *transmit* side of this node to
    /// apply; NOPs occupy no buffers. A non-NOP arriving with every buffer
    /// of its pool occupied means the far side sent without a credit.
    // tcc_transfer_ok: an accepted packet occupies its buffer until the
    // consumer drains it — the hold outlives this call by design.
    #[cfg_attr(lint, tcc_linear(rxbuf), tcc_transfer_ok, tcc_acquires(rxbuf))]
    pub fn accept(&mut self, pkt: &Packet) -> Result<Option<CreditReturn>, CreditError> {
        if let Some(ret) = return_from_nop(&pkt.cmd) {
            return Ok(Some(ret));
        }
        self.buffers.accept(pkt)?;
        self.packets_received += 1;
        self.bytes_received += pkt.data.len() as u64;
        Ok(None)
    }

    /// Fast-lane accept for a flat (64 B posted-write) packet the caller
    /// already classified via [`Packet::flat_addr`]: skips the NOP probe
    /// and the command/VC dispatch. Accounting is byte-identical to
    /// [`accept`](Self::accept) on the same packet.
    // tcc_transfer_ok: same hold discipline as `accept` — the buffer is
    // released later by `drain_parts` once the packet is consumed.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    #[cfg_attr(lint, tcc_linear(rxbuf), tcc_transfer_ok, tcc_acquires(rxbuf))]
    pub fn accept_flat(&mut self) -> Result<(), CreditError> {
        self.buffers.accept_posted_data()?;
        self.packets_received += 1;
        self.bytes_received += crate::packet::FlatWire::DATA_BYTES as u64;
        Ok(())
    }

    /// Mark a packet processed; its buffers become returnable credits.
    #[cfg_attr(lint, tcc_linear(rxbuf), tcc_releases(rxbuf))]
    pub fn drain(&mut self, pkt: &Packet) -> Result<(), CreditError> {
        self.buffers.drain(pkt)
    }

    /// Like [`drain`](Self::drain), keyed on the packet's (VC, carries
    /// data) shape — for receivers that consumed the packet before its
    /// buffers were released.
    #[cfg_attr(lint, tcc_linear(rxbuf), tcc_releases(rxbuf))]
    pub fn drain_parts(&mut self, vc: VirtualChannel, has_data: bool) -> Result<(), CreditError> {
        self.buffers.drain_parts(vc, has_data)
    }

    /// Harvest pending credits for the next outbound NOP.
    pub fn harvest(&mut self) -> CreditReturn {
        self.buffers.harvest()
    }

    pub fn has_pending_credits(&self) -> bool {
        self.buffers.has_pending()
    }

    /// Buffer-occupancy state, for conservation audits.
    pub fn buffers(&self) -> &RxBuffers {
        &self.buffers
    }
}

impl Default for LinkRx {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn pw64(addr: u64) -> Packet {
        Packet::posted_write(addr, Bytes::from_static(&[0u8; 64]))
    }

    #[test]
    fn bandwidth_of_paper_configs() {
        // Boot: 200 MHz DDR × 8 bit = 400 MB/s raw.
        assert_eq!(LinkConfig::BOOT.raw_bytes_per_sec(), 400_000_000);
        // Prototype: 800 MHz DDR × 16 bit = 3.2 GB/s raw; 1.6 Gbit/lane.
        assert_eq!(LinkConfig::PROTOTYPE.raw_bytes_per_sec(), 3_200_000_000);
        assert!((LinkConfig::PROTOTYPE.gbit_per_lane() - 1.6).abs() < 1e-9);
        // Full HT3: 10.4 GB/s raw per direction.
        assert_eq!(LinkConfig::HT3_FULL.raw_bytes_per_sec(), 10_400_000_000);
        assert!((LinkConfig::HT3_FULL.gbit_per_lane() - 5.2).abs() < 1e-9);
    }

    #[test]
    fn effective_includes_crc_derate() {
        let eff = LinkConfig::PROTOTYPE.effective_bytes_per_sec();
        assert!(eff < 3_200_000_000);
        assert!(eff > 3_170_000_000);
    }

    #[test]
    fn transmit_and_deliver() {
        let mut tx = LinkTx::new(LinkConfig::PROTOTYPE, 1);
        tx.enqueue(pw64(0x1000));
        let out = tx.pump(SimTime::ZERO);
        assert_eq!(out.len(), 1);
        // 72 wire bytes at ~3.175 GB/s ≈ 22.7 ns + 50 ns hop.
        let ns = out[0].arrival.nanos();
        assert!((ns - 72.7).abs() < 0.5, "arrival = {ns} ns");
    }

    #[test]
    fn credits_stall_fourth_packet_then_recover() {
        let mut tx = LinkTx::new(LinkConfig::PROTOTYPE, 2);
        let mut rx = LinkRx::new();
        for i in 0..(DEFAULT_CREDITS as u64 + 4) {
            tx.enqueue(pw64(0x1000 + i * 64));
        }
        let sent = tx.pump(SimTime::ZERO);
        assert_eq!(sent.len(), DEFAULT_CREDITS as usize, "credit-limited");
        assert!(tx.stats.stalls_no_credit > 0);
        // Receiver drains everything and returns credits.
        for d in &sent {
            assert!(rx.accept(&d.packet).unwrap().is_none());
            rx.drain(&d.packet).unwrap();
        }
        while rx.has_pending_credits() {
            tx.credit_return(rx.harvest()).unwrap();
        }
        let rest = tx.pump(SimTime(10_000_000));
        assert_eq!(rest.len(), 4);
    }

    #[test]
    fn accept_flat_matches_general_accept() {
        let mut general = LinkRx::new();
        let mut flat = LinkRx::new();
        let pkt = pw64(0x40);
        assert!(general.accept(&pkt).unwrap().is_none());
        flat.accept_flat().unwrap();
        assert_eq!(general.packets_received, flat.packets_received);
        assert_eq!(general.bytes_received, flat.bytes_received);
        assert_eq!(
            format!("{:?}", general.buffers()),
            format!("{:?}", flat.buffers()),
            "identical buffer accounting"
        );
        general.drain(&pkt).unwrap();
        flat.drain_parts(VirtualChannel::Posted, true).unwrap();
        assert_eq!(general.harvest(), flat.harvest());
        // Overrun behaves identically: exhaust the posted pool.
        for _ in 0..DEFAULT_CREDITS {
            general.accept(&pkt).unwrap();
            flat.accept_flat().unwrap();
        }
        assert_eq!(
            general.accept(&pkt).unwrap_err(),
            flat.accept_flat().unwrap_err()
        );
    }

    #[test]
    fn nop_round_trip_returns_credits() {
        let mut a_tx = LinkTx::new(LinkConfig::PROTOTYPE, 3);
        let mut b_rx = LinkRx::new();
        let mut b_tx = LinkTx::new(LinkConfig::PROTOTYPE, 4);

        a_tx.enqueue(pw64(0));
        let d = a_tx.pump(SimTime::ZERO).remove(0);
        assert!(b_rx.accept(&d.packet).unwrap().is_none());
        b_rx.drain(&d.packet).unwrap();
        let nop = b_tx.send_nop(d.arrival, b_rx.harvest());
        // Back at A: extract the credit return.
        let mut a_rx = LinkRx::new();
        let ret = a_rx
            .accept(&nop.packet)
            .unwrap()
            .expect("NOP carries credits");
        a_tx.credit_return(ret).unwrap();
        assert_eq!(
            a_tx.credits().available_cmd(VirtualChannel::Posted),
            DEFAULT_CREDITS
        );
    }

    #[test]
    fn blocked_posted_does_not_block_response() {
        let mut tx = LinkTx::new(LinkConfig::PROTOTYPE, 5);
        // Exhaust posted credits.
        for i in 0..DEFAULT_CREDITS as u64 + 1 {
            tx.enqueue(pw64(i * 64));
        }
        tx.pump(SimTime::ZERO);
        assert_eq!(tx.queued(VirtualChannel::Posted), 1);
        // A response must still go through.
        tx.enqueue(Packet::control(crate::packet::Command::TgtDone {
            unit: crate::packet::UnitId::HOST,
            tag: crate::packet::SrcTag::new(1),
            error: false,
        }));
        let out = tx.pump(SimTime(1_000_000));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].packet.vc(), VirtualChannel::Response);
    }

    #[test]
    fn warm_reset_applies_new_speed() {
        let mut tx = LinkTx::new(LinkConfig::BOOT, 6);
        tx.enqueue(pw64(0));
        tx.pump(SimTime::ZERO);
        tx.warm_reset(LinkConfig::PROTOTYPE);
        assert_eq!(tx.config.clock_mhz, 800);
        assert_eq!(tx.queued(VirtualChannel::Posted), 0, "queues dropped");
        // Speed visibly changed: a 64B packet serialises 8x faster.
        tx.enqueue(pw64(0));
        let d = tx.pump(SimTime::ZERO).remove(0);
        assert!(d.arrival.nanos() < 80.0);
    }

    #[test]
    fn crc_resends_cost_retries_but_deliver() {
        // 200 posted writes over a link that corrupts 30 % of windows.
        let run = |seed| {
            let mut tx = LinkTx::new(LinkConfig::PROTOTYPE, seed);
            tx.crc_error_rate = 0.3;
            let mut arrivals = Vec::new();
            for i in 0..200u64 {
                tx.enqueue(pw64(i * 64));
                arrivals.extend(tx.pump(SimTime::ZERO).iter().map(|d| d.arrival));
                // Drain credits so the next packet can go.
                tx.credit_return(CreditReturn {
                    cmd: [1, 0, 0],
                    data: [1, 0, 0],
                })
                .unwrap();
            }
            (arrivals, tx.stats)
        };
        let (arrivals, stats) = run(7);
        assert_eq!(arrivals.len(), 200, "every packet eventually delivered");
        assert!(stats.retries > 20, "retries = {}", stats.retries);
        // The channel carried every resend, not only the delivered copy.
        let wire = pw64(0).wire_bytes();
        assert_eq!(
            stats.wire_bytes_sent,
            (stats.packets_sent + stats.retries) * wire
        );
        // Seeded: the same seed replays exactly, another seed does not.
        let (again, again_stats) = run(7);
        assert_eq!((again, again_stats.retries), (arrivals, stats.retries));
        assert_ne!(run(8).1.retries, stats.retries);
    }

    #[test]
    fn sustained_rate_is_wire_limited() {
        let mut tx = LinkTx::new(LinkConfig::PROTOTYPE, 8);
        let n = 1000u64;
        let mut last = SimTime::ZERO;
        for i in 0..n {
            tx.enqueue(pw64(i * 64));
            for d in tx.pump(SimTime::ZERO) {
                last = last.max(d.arrival);
            }
            tx.credit_return(CreditReturn {
                cmd: [1, 0, 0],
                data: [1, 0, 0],
            })
            .unwrap();
        }
        // Goodput = 64B per 72 wire bytes at ~3.175 GB/s ≈ 2.82 GB/s.
        let goodput = (n * 64) as f64 / ((last.picos() - 50_000) as f64 / 1e12) / 1e6;
        assert!(
            (goodput - 2822.0).abs() < 30.0,
            "goodput = {goodput:.0} MB/s"
        );
    }
}
