//! The simulated TCCluster: a booted [`Platform`] plus the paper's two
//! microbenchmark drivers (§VI) — ping-pong latency and streaming
//! bandwidth — reproduced at packet level over the Opteron/HT models.
//!
//! Measurement semantics follow the paper's methodology:
//!
//! * **Latency** (Fig. 7): a ping-pong kernel; the receiver polls an
//!   uncacheable location, the half-round-trip time is reported. Polling
//!   is modelled as back-to-back UC reads (`uc_read` apart) whose data
//!   sample point is mid-flight; the poll phase is staggered across
//!   iterations so the reported mean includes the expected residual wait.
//! * **Bandwidth** (Fig. 6): per-message sender-side timing — the clock
//!   stops when the core's last store has been *accepted by the on-chip
//!   buffering*, not when the data reaches the far node. That is exactly
//!   the artifact the paper names when explaining the 5300 MB/s point at
//!   256 KB ("leverages caching structures within the Opteron and does not
//!   reflect the bandwidth performance of the TCCluster link").

use crate::engine::{
    pattern_pairs, CommitRec, EngineKind, EngineOptions, EventEngine, TrafficPattern,
    WorkloadReport, DEFAULT_DRAIN,
};
use tcc_fabric::time::{Duration, SimTime};
use tcc_firmware::machine::{DeliveredWrite, Platform};
use tcc_firmware::tcc_boot::{boot, BootReport};
use tcc_firmware::topology::ClusterSpec;
use tcc_msglib::ring::{CELL_BYTES, CELL_PAYLOAD};
use tcc_msglib::SendMode;
use tcc_opteron::{Action, ActionSink, BurstPattern, StoreOutcome, UarchParams};

/// A booted, simulated TCCluster.
pub struct SimCluster {
    pub platform: Platform,
    pub boot: BootReport,
    /// Reusable action/commit buffers for the measurement drivers — the
    /// benchmark loops allocate nothing per message.
    sink: ActionSink,
    commits: Vec<DeliveredWrite>,
    /// Executive options for the event engine (threads, profile clock),
    /// preserved across `reset_timebase` rebuilds.
    options: EngineOptions,
    /// The event-driven fabric, present iff the cluster was booted on
    /// [`EngineKind::EventDriven`]. The
    /// nodes run with `raw_egress` set: their store paths hand packets to
    /// this engine at northbridge-exit time and it owns all wire
    /// serialisation, credits and hop-by-hop forwarding.
    event: Option<EventEngine>,
}

/// Per-message software overhead of the message library (compose header,
/// advance pointers). ~11 core cycles.
const LIB_SEND_OVERHEAD: Duration = Duration(4_000);
/// Software cost from poll success to the reply's first store issuing.
const LIB_TURNAROUND: Duration = Duration(10_000);
/// Rendezvous setup cost per large message (zone-credit check, descriptor
/// composition, library bookkeeping).
const RDVZ_HANDSHAKE: Duration = Duration(400_000);
/// Cells a burst issues before its actions are propagated: one 4 KiB page
/// of payload. Host memory per message is bounded by this window, not by
/// the message size.
const BURST_WINDOW_CELLS: usize = 64;
// An eager message is never split.
const _: () = assert!(tcc_msglib::MAX_EAGER.div_ceil(CELL_PAYLOAD) <= BURST_WINDOW_CELLS);

impl SimCluster {
    /// Assemble and boot on `engine`; `options` persist across
    /// [`SimCluster::reset_timebase`] rebuilds. The public way in is
    /// [`crate::TcclusterBuilder::build_sim`].
    pub(crate) fn new(
        spec: ClusterSpec,
        params: UarchParams,
        tcc_link: tcc_ht::link::LinkConfig,
        engine: EngineKind,
        options: EngineOptions,
    ) -> Self {
        let mut platform = Platform::assemble(spec, params);
        platform.tcc_target = tcc_link;
        let boot = boot(&mut platform);
        let mut cluster = SimCluster {
            platform,
            boot,
            sink: ActionSink::new(),
            commits: Vec::new(),
            options,
            event: None,
        };
        if engine == EngineKind::EventDriven {
            cluster.install_event_engine(DEFAULT_DRAIN);
        }
        cluster
    }

    /// Flip every node to raw egress and mount a fresh event engine over
    /// the trained wires. Boot always runs chained (its self-tests assume
    /// the analytic path); the switch happens once, here.
    fn install_event_engine(&mut self, drain: Duration) {
        for node in &mut self.platform.nodes {
            node.raw_egress = true;
        }
        // Drop the old engine and its commit log before building the next.
        self.event = None;
        self.event = Some(EventEngine::with_options(
            &mut self.platform,
            drain,
            self.options,
        ));
    }

    pub fn spec(&self) -> ClusterSpec {
        self.platform.spec
    }

    /// Base of global processor `p`'s exported DRAM slice.
    fn proc_base(&self, p: usize) -> u64 {
        let spec = self.spec();
        let procs = spec.supernode.processors;
        spec.node_base(p / procs, p % procs)
    }

    /// The event-executive options this cluster runs with.
    pub fn engine_options(&self) -> EngineOptions {
        self.options
    }

    /// The event-driven fabric, when this cluster runs on it.
    pub fn event_engine(&self) -> Option<&EventEngine> {
        self.event.as_ref()
    }

    /// Start a fresh measurement epoch: drain every node's pipeline and
    /// link occupancy (the boot sequence itself moved traffic and left
    /// channel clocks far in the future). In event mode the fabric engine
    /// is rebuilt, restarting its clock, ports and credit pools.
    pub fn reset_timebase(&mut self) {
        for node in &mut self.platform.nodes {
            node.quiesce();
        }
        if let Some(e) = &self.event {
            let drain = e.drain();
            self.install_event_engine(drain);
        }
    }

    /// Event mode: run the fabric to quiescence — every in-flight packet
    /// delivered, every credit home — and return the latest commit time
    /// of the run. Chained mode: no-op returning `ZERO` (propagation
    /// already completed inside `drain_visible`), so call sites can
    /// simply `max()` this in.
    fn settle(&mut self) -> SimTime {
        match self.event.as_mut() {
            Some(engine) => engine.run_quiescent(&mut self.platform),
            None => SimTime::ZERO,
        }
    }

    /// Write one eager message of `len` payload bytes into the ring at
    /// `base` (in the target's exported memory) from `node`, starting at
    /// `at`. Returns (sender retire time, last-byte-visible time).
    ///
    /// `mode` selects the paper's two mechanisms: strictly ordered fences
    /// after every cell; weakly ordered lets WC buffers coalesce freely.
    /// `push_tail` issues a final fence so the last header leaves the WC
    /// buffers (needed whenever someone waits for this message).
    fn send_eager(
        &mut self,
        node: usize,
        base: u64,
        len: usize,
        at: SimTime,
        mode: SendMode,
        push_tail: bool,
    ) -> (SimTime, SimTime) {
        let mut now = at + LIB_SEND_OVERHEAD;
        self.send_eager_at(node, base, len, &mut now, mode, push_tail)
    }

    /// The one eager-send implementation: a single [`BurstPattern`] issue
    /// through [`Self::issue_burst`], chained on a running issue clock
    /// (`now` is advanced to where the next message may begin issuing).
    /// An eager message fits one window, so all its payload/header stores
    /// and fences — and their fabric propagation — happen in one
    /// `store_burst` + one drain, with no per-cell buffers or per-store
    /// action vectors.
    fn send_eager_at(
        &mut self,
        node: usize,
        base: u64,
        len: usize,
        now: &mut SimTime,
        mode: SendMode,
        push_tail: bool,
    ) -> (SimTime, SimTime) {
        let pattern = BurstPattern {
            cell_payload: CELL_PAYLOAD,
            cell_stride: CELL_BYTES as u64,
            header_bytes: 8,
            payload_fill: 0xD5,
            header_fill: 0xAD,
            fence_every: if mode == SendMode::StrictlyOrdered {
                1
            } else {
                0
            },
            final_fence: push_tail && mode == SendMode::WeaklyOrdered,
            wrap_bytes: 0,
        };
        let start = *now;
        let (out, visible) = self.issue_burst(node, *now, base, &pattern, len);
        *now = out.issued;
        (start.max(out.retire), start.max(visible))
    }

    /// Issue a `len`-byte burst in `pattern` from `node` at `now`, window
    /// by window: [`BURST_WINDOW_CELLS`] cells into the scratch sink, then
    /// [`Self::drain_visible`]. Returns the whole burst's outcome and its
    /// latest locally visible time.
    ///
    /// Timing equals one `store_burst` over the whole message: every burst
    /// goes to one destination, so each resource on its route sees its
    /// transfers in issue order either way. Event mode only injects each
    /// window; the engine holds the packets until [`Self::settle`].
    fn issue_burst(
        &mut self,
        node: usize,
        now: SimTime,
        base: u64,
        pattern: &BurstPattern,
        len: usize,
    ) -> (StoreOutcome, SimTime) {
        let cells = pattern.cells(len);
        let mut out = StoreOutcome {
            issued: now,
            retire: now,
        };
        let mut visible = SimTime::ZERO;
        self.sink.clear();
        for first in (0..cells).step_by(BURST_WINDOW_CELLS) {
            let window = first..cells.min(first + BURST_WINDOW_CELLS);
            let w = self.platform.nodes[node].store_burst(
                out.issued,
                base,
                pattern,
                len,
                window,
                &mut self.sink,
            );
            out.issued = w.issued;
            out.retire = out.retire.max(w.retire);
            visible = visible.max(self.drain_visible(node));
        }
        (out, visible)
    }

    /// Move everything in the scratch sink into the fabric and return the
    /// latest *locally* DRAM-visible time (ZERO if nothing landed).
    ///
    /// Chained mode propagates to completion analytically. Event mode
    /// only *injects* the raw-egress packets into the engine's queue —
    /// remote visibility exists once [`Self::settle`] has run the fabric.
    fn drain_visible(&mut self, node: usize) -> SimTime {
        if let Some(engine) = self.event.as_mut() {
            let mut vis = SimTime::ZERO;
            for action in self.sink.drain() {
                match action {
                    Action::LocalCommit { visible, .. } => vis = vis.max(visible),
                    Action::PacketOut {
                        link,
                        packet,
                        arrival,
                    } => engine.inject_at(node, link, packet, arrival),
                    Action::BroadcastFiltered => {}
                }
            }
            return vis;
        }
        self.commits.clear();
        self.platform
            .propagate(node, &mut self.sink, &mut self.commits);
        self.commits
            .iter()
            .map(|c| c.visible)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Model of the receive-side poll: back-to-back UC reads `uc_read`
    /// apart, data sampled mid-flight, result available at read
    /// completion. `stagger` (0..uc_read) is the phase of the poll loop
    /// relative to the message's arrival.
    fn poll_detect(&self, node: usize, visible: SimTime, stagger: Duration) -> SimTime {
        let uc = self.platform.nodes[node].params.uc_read;
        // The first sample point at or after `visible`, then half a round
        // trip for the data to come back.
        visible + stagger + Duration(uc.picos() / 2)
    }

    fn stagger(&self, node: usize, iter: u32) -> Duration {
        let uc = self.platform.nodes[node].params.uc_read.picos();
        Duration((iter as u64).wrapping_mul(6_967) % uc)
    }

    /// Paper Fig. 7: mean half-round-trip latency of `size`-byte messages
    /// between global processors `a` and `b`.
    pub fn pingpong(&mut self, a: usize, b: usize, size: usize, iters: u32) -> Duration {
        self.reset_timebase();
        let ring_at_b = self.proc_base(b); // ping lands at B's ring
        let ring_at_a = self.proc_base(a) + 0x1000; // pong ring at A
        let mut t = SimTime::ZERO;
        let mut total = Duration::ZERO;
        for iter in 0..iters {
            let t0 = t;
            let (_, vis_b) = self.send_eager(a, ring_at_b, size, t0, SendMode::WeaklyOrdered, true);
            // Event mode: the leg is only *injected* so far — run the
            // fabric to quiescence for the delivered time. Chained mode:
            // settle() is ZERO and the max is a no-op.
            let vis_b = vis_b.max(self.settle());
            let got_b = self.poll_detect(b, vis_b, self.stagger(b, iter));
            let reply_at = got_b + LIB_TURNAROUND;
            let (_, vis_a) =
                self.send_eager(b, ring_at_a, size, reply_at, SendMode::WeaklyOrdered, true);
            let vis_a = vis_a.max(self.settle());
            let got_a = self.poll_detect(a, vis_a, self.stagger(a, iter.wrapping_add(13)));
            total += got_a - t0;
            // Idle gap before the next iteration lets queues drain.
            t = got_a + Duration::from_nanos(500);
        }
        Duration(total.picos() / (iters as u64).saturating_mul(2))
    }

    /// Paper Fig. 6: sender-side streaming bandwidth in MB/s for
    /// `size`-byte messages from `a` to `b`.
    ///
    /// Methodology mirrors the paper's microbenchmark:
    ///
    /// * **eager sizes** (≤ [`tcc_msglib::MAX_EAGER`]) are streamed
    ///   back-to-back until the flow is steady — the ring's credit window
    ///   makes the link the bottleneck, so the curve sits at wire goodput
    ///   (~2500 MB/s at 64 B);
    /// * **rendezvous sizes** are timed per message with the pipeline
    ///   drained in between, stopping the clock when the last store is
    ///   accepted by the on-chip buffering. That is the sender-side
    ///   measurement the paper itself flags at 256 KB: the burst is
    ///   absorbed faster than the link drains, "leveraging caching
    ///   structures within the Opteron".
    pub fn stream_bandwidth(
        &mut self,
        a: usize,
        b: usize,
        size: usize,
        mode: SendMode,
        iters: u32,
    ) -> f64 {
        self.reset_timebase();
        let dst_base = self.proc_base(b);
        if size <= tcc_msglib::MAX_EAGER {
            // Stream messages back to back; measure the steady state by
            // timing only the second half, after the absorption window
            // has filled and the link is pacing the sender.
            let window = self.platform.nodes[a].params.absorb_capacity_bytes as usize;
            let count = (iters as usize).max((8 * window) / size.max(1)).min(65_536);
            // Raw egress removes the sender-side absorption backpressure,
            // so event mode measures the receiver instead: remember where
            // the commit log stands and time deliveries, not retires.
            let commit_floor = self.event.as_ref().map(|e| e.commits().len());
            let mut now = SimTime::ZERO;
            let mut retire = SimTime::ZERO;
            let mut mid_retire = SimTime::ZERO;
            for i in 0..count {
                // Consecutive ring cells, wrapping over a 4 KB ring.
                let cells = size.div_ceil(CELL_PAYLOAD).max(1);
                let slot = (i * cells) % tcc_msglib::ring::RING_CELLS;
                let base = dst_base + (slot * CELL_BYTES) as u64;
                let (r, _) = self.send_eager_at(a, base, size, &mut now, mode, false);
                retire = retire.max(r);
                if i + 1 == count / 2 {
                    mid_retire = retire;
                }
            }
            if let Some(floor) = commit_floor {
                self.settle();
                let engine = self.event.as_ref().expect("event engine");
                return eager_delivered_goodput(engine.commits(), floor, size);
            }
            let second_half = count - count / 2;
            (size * second_half) as f64 / (retire.since(mid_retire).picos() as f64 / 1e12) / 1e6
        } else {
            let mut t = SimTime::ZERO;
            let mut sum_ps = 0.0;
            for _ in 0..iters {
                let t0 = t;
                let (retire, visible) = self.send_rendezvous(a, dst_base + 0x1000, size, t0, mode);
                let stamp = self.message_stamp(retire, visible);
                sum_ps += stamp.since(t0).picos() as f64;
                // Drain fully before the next message (per-message timing).
                t = stamp.max(visible) + Duration::from_micros(2);
            }
            size as f64 / (sum_ps / iters as f64 / 1e12) / 1e6
        }
    }

    /// The per-message clock stop. Chained: the paper's sender-side
    /// stamp, the last store's `retire`. Event: the absorption artifact
    /// does not exist under raw egress (retire is not backpressured), so
    /// the fabric runs to quiescence and the stamp is delivery completion.
    fn message_stamp(&mut self, retire: SimTime, visible: SimTime) -> SimTime {
        if self.event.is_some() {
            retire.max(visible).max(self.settle())
        } else {
            retire
        }
    }

    /// Ablation harness (sfence-interval sweep): like the weakly ordered
    /// send, but an `sfence` is issued every `every` cells (0 = never,
    /// 1 = the paper's strictly ordered mechanism). Returns MB/s.
    pub fn bandwidth_fence_interval(
        &mut self,
        a: usize,
        b: usize,
        size: usize,
        every: usize,
        iters: u32,
    ) -> f64 {
        self.reset_timebase();
        let pattern = BurstPattern {
            cell_payload: CELL_PAYLOAD,
            cell_stride: CELL_BYTES as u64,
            header_bytes: 0,
            payload_fill: 0,
            header_fill: 0,
            fence_every: every,
            final_fence: false,
            wrap_bytes: 0,
        };
        self.timed_bursts(a, self.proc_base(b), &pattern, size, size, iters)
    }

    /// Ablation harness (write combining on/off): with WC disabled the
    /// remote window is mapped uncacheable, so every 8-byte store becomes
    /// its own serialised HT packet — the paper's §VI rationale for
    /// "intensive use of the write combining capability". Returns MB/s.
    pub fn bandwidth_without_wc(&mut self, a: usize, b: usize, size: usize, iters: u32) -> f64 {
        self.reset_timebase();
        let dst = self.proc_base(b);
        let slice = self.spec().supernode.slice_bytes();
        // Remap the remote slice UC on the sender.
        let saved = self.platform.nodes[a].mtrrs.clone();
        self.platform.nodes[a].mtrrs.clear();
        self.platform.nodes[a]
            .mtrrs
            .program(dst, dst + slice, tcc_opteron::MemType::Uncacheable);
        // Every 8 B slot is stored in full (the driver loop wrote whole
        // qwords), so round the burst length up to the stride.
        let pattern = BurstPattern {
            cell_payload: 8,
            cell_stride: 8,
            header_bytes: 0,
            payload_fill: 0,
            header_fill: 0,
            fence_every: 0,
            final_fence: false,
            wrap_bytes: 0,
        };
        let bw = self.timed_bursts(a, dst, &pattern, size.div_ceil(8) * 8, size, iters);
        self.platform.nodes[a].mtrrs = saved;
        bw
    }

    /// The ablations' timed loop: `iters` bursts of `len` bytes in
    /// `pattern` from `a` to `dst`, each drained fully before the next
    /// starts. Returns MB/s for `size` application bytes per burst.
    fn timed_bursts(
        &mut self,
        a: usize,
        dst: u64,
        pattern: &BurstPattern,
        len: usize,
        size: usize,
        iters: u32,
    ) -> f64 {
        let mut t = SimTime::ZERO;
        let mut sum_ps = 0.0;
        for _ in 0..iters {
            let t0 = t + LIB_SEND_OVERHEAD;
            let (out, visible) = self.issue_burst(a, t0, dst, pattern, len);
            let fin = self.message_stamp(t0.max(out.retire), visible);
            sum_ps += (fin - t0).picos() as f64;
            t = fin + Duration::from_micros(2);
        }
        size as f64 / (sum_ps / iters as f64 / 1e12) / 1e6
    }

    /// One-sided rendezvous: raw payload streamed to the landing zone in
    /// 64 B lines, then an 8 B descriptor. Payload larger than the zone is
    /// chunked, each chunk gated by zone reuse (the sender must wait for
    /// the previous lap to drain — modelled by the absorption window).
    fn send_rendezvous(
        &mut self,
        node: usize,
        zone_base: u64,
        len: usize,
        at: SimTime,
        mode: SendMode,
    ) -> (SimTime, SimTime) {
        // Rendezvous setup: zone-credit check and descriptor preparation
        // through the library (~400 ns of software per large message).
        let mut now = at + RDVZ_HANDSHAKE + LIB_SEND_OVERHEAD;
        let start = now;
        // Payload streamed as contiguous 64 B lines lapping the zone; in
        // strict mode "after each cache line sized store operation an
        // Sfence instruction is triggered" (paper §VI).
        let pattern = BurstPattern {
            cell_payload: CELL_PAYLOAD,
            cell_stride: CELL_PAYLOAD as u64,
            header_bytes: 0,
            payload_fill: 0xB6,
            header_fill: 0,
            fence_every: if mode == SendMode::StrictlyOrdered {
                1
            } else {
                0
            },
            final_fence: false,
            wrap_bytes: tcc_msglib::RDVZ_BYTES,
        };
        let (out, visible) = self.issue_burst(node, now, zone_base, &pattern, len);
        now = out.issued;
        let mut retire = start.max(out.retire);
        let mut visible = start.max(visible);
        // Descriptor through the ring (one header-sized store + fence).
        let out =
            self.platform.nodes[node].store(now, zone_base - 0x1000, &[1u8; 8], &mut self.sink);
        retire = retire.max(out.retire);
        let f = self.platform.nodes[node].sfence(out.issued, &mut self.sink);
        retire = retire.max(f.retire);
        visible = visible.max(self.drain_visible(node));
        (retire, visible)
    }

    /// Drive a concurrent synthetic traffic pattern through the
    /// event-driven fabric: one credit-paced 64 B posted-write flow of
    /// `bytes_per_flow` per (src, dst) pair the pattern expands to, all
    /// interleaved in one event queue so they genuinely contend for
    /// links. Requires [`EngineKind::EventDriven`].
    pub fn run_workload(&mut self, pattern: TrafficPattern, bytes_per_flow: u64) -> WorkloadReport {
        assert!(
            self.event.is_some(),
            "run_workload requires EngineKind::EventDriven (builder: .engine(..))"
        );
        // Fresh engine and clocks: each workload is its own epoch.
        self.reset_timebase();
        let pairs = pattern_pairs(&self.spec(), pattern);
        assert!(
            !pairs.is_empty(),
            "pattern yields no flows on this topology"
        );
        let engine = self.event.as_mut().expect("event engine");
        for (src, dst) in pairs {
            engine.add_flow(&mut self.platform, src, dst, bytes_per_flow);
        }
        engine.run_quiescent(&mut self.platform);
        engine.assert_quiescent_credits();
        let flows = engine.flow_reports();
        let injected_packets: u64 = flows.iter().map(|f| f.injected_packets).sum();
        WorkloadReport {
            stalls_no_credit: engine.stalls_no_credit(),
            events: engine.events_handled(),
            elapsed: engine.now(),
            injected_packets,
            delivered_packets: engine.commits().len() as u64,
            flows,
        }
    }
}

/// Receiver-side steady-state goodput for the event engine's eager
/// stream: application bytes per second over the second half of the
/// commit log (sorted by visibility), scaling the ring traffic down by
/// the header overhead each message carries.
fn eager_delivered_goodput(commits: &[CommitRec], floor: usize, size: usize) -> f64 {
    let cells = size.div_ceil(CELL_PAYLOAD).max(1);
    let app_frac = size as f64 / (size + 8 * cells) as f64;
    let mut vis: Vec<(SimTime, u64)> = commits[floor..]
        .iter()
        .map(|c| (c.visible, u64::from(c.bytes)))
        .collect();
    vis.sort();
    assert!(vis.len() >= 4, "not enough deliveries to measure");
    let mid = vis.len() / 2;
    let t0 = vis[mid].0;
    let t1 = vis.last().expect("nonempty").0;
    let ring: u64 = vis[mid + 1..].iter().map(|x| x.1).sum();
    ring as f64 * app_frac / (t1.since(t0).picos() as f64 / 1e12) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TcclusterBuilder;
    use tcc_firmware::topology::ClusterTopology;

    fn pair() -> SimCluster {
        TcclusterBuilder::new().build_sim()
    }

    fn pair_event() -> SimCluster {
        TcclusterBuilder::new()
            .engine(EngineKind::EventDriven)
            .build_sim()
    }

    #[test]
    fn headline_latency_64b_is_about_227ns() {
        let mut c = pair();
        let lat = c.pingpong(0, 1, 64, 50);
        let ns = lat.nanos();
        assert!(
            (ns - 227.0).abs() < 25.0,
            "64 B half-RTT = {ns:.1} ns (paper: 227 ns)"
        );
    }

    #[test]
    fn latency_1kb_below_1us() {
        let mut c = pair();
        let lat = c.pingpong(0, 1, 1024, 20);
        assert!(lat.micros() < 1.0, "1 KB half-RTT = {lat}");
        assert!(lat.nanos() > 300.0, "sanity: bigger than 64 B");
    }

    #[test]
    fn weak_bandwidth_64b_about_2500() {
        let mut c = pair();
        let bw = c.stream_bandwidth(0, 1, 64, SendMode::WeaklyOrdered, 20);
        assert!(
            (bw - 2500.0).abs() < 400.0,
            "64 B weak bandwidth = {bw:.0} MB/s (paper: ~2500)"
        );
    }

    #[test]
    fn strict_bandwidth_plateaus_near_2000() {
        let mut c = pair();
        let bw = c.stream_bandwidth(0, 1, 4096, SendMode::StrictlyOrdered, 10);
        assert!(
            (bw - 2000.0).abs() < 300.0,
            "strict bandwidth = {bw:.0} MB/s (paper: ~2000)"
        );
    }

    #[test]
    fn weak_peak_at_256k_exceeds_5000() {
        let mut c = pair();
        let bw = c.stream_bandwidth(0, 1, 256 << 10, SendMode::WeaklyOrdered, 5);
        assert!(
            bw > 5000.0 && bw < 5800.0,
            "256 KB weak bandwidth = {bw:.0} MB/s (paper: ~5300)"
        );
    }

    #[test]
    fn event_engine_reproduces_headline_latency() {
        // The paper's 227 ns anchor must hold on the event-driven fabric
        // too: same store path, same wire math, now with real credits.
        let mut c = pair_event();
        let lat = c.pingpong(0, 1, 64, 50);
        let ns = lat.nanos();
        assert!(
            (ns - 227.0).abs() < 25.0,
            "event-driven 64 B half-RTT = {ns:.1} ns (paper: 227 ns)"
        );
    }

    #[test]
    fn event_engine_bandwidth_agrees_with_chained() {
        // Cross-validation pin: the two engines must tell the same story
        // for a single 64 B eager stream — the paper's ~2500 MB/s point —
        // within 10% of each other.
        let mut chained = pair();
        let mut event = pair_event();
        let bw_c = chained.stream_bandwidth(0, 1, 64, SendMode::WeaklyOrdered, 20);
        let bw_e = event.stream_bandwidth(0, 1, 64, SendMode::WeaklyOrdered, 20);
        assert!(
            (bw_e - 2500.0).abs() < 400.0,
            "event-driven 64 B bandwidth = {bw_e:.0} MB/s (paper: ~2500)"
        );
        let err = (bw_e - bw_c).abs() / bw_c;
        assert!(
            err < 0.10,
            "engines disagree: chained {bw_c:.0} vs event {bw_e:.0} MB/s"
        );
    }

    #[test]
    fn concurrent_all_to_all_contends_without_loss() {
        // The tentpole behaviour: concurrent flows on a 2x2 mesh through
        // the event engine see real backpressure (credit stalls) and
        // still deliver every packet.
        let mut c = TcclusterBuilder::new()
            .topology(ClusterTopology::Mesh { x: 2, y: 2 })
            .processors_per_supernode(2)
            .engine(EngineKind::EventDriven)
            .build_sim();
        let report = c.run_workload(TrafficPattern::AllToAll, 16 << 10);
        assert_eq!(report.flows.len(), 12);
        assert_eq!(report.lost_packets(), 0, "{report:?}");
        assert_eq!(report.delivered_packets, 12 * 256);
        assert!(
            report.stalls_no_credit > 0,
            "concurrent mesh traffic never hit flow control"
        );
        for f in &report.flows {
            assert_eq!(f.delivered_bytes, 16 << 10, "flow {}->{}", f.src, f.dst);
        }
    }

    #[test]
    fn weak_large_declines_toward_sustained() {
        let mut c = pair();
        let peak = c.stream_bandwidth(0, 1, 256 << 10, SendMode::WeaklyOrdered, 3);
        let big = c.stream_bandwidth(0, 1, 4 << 20, SendMode::WeaklyOrdered, 3);
        assert!(big < peak * 0.65, "peak {peak:.0}, 4 MB {big:.0}");
        assert!(big > 2500.0, "sustained stays near link rate: {big:.0}");
    }
}
