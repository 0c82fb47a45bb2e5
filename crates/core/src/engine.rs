//! The fabric timing engines.
//!
//! Every benchmark and workload in this crate runs over one of two
//! interchangeable timing engines selected by [`EngineKind`]:
//!
//! * **Chained** — the fast analytic path: `Platform::propagate` walks a
//!   sender's actions to completion through busy-tracked channels, with
//!   link credits auto-returned. Valid for open-loop traffic whose
//!   receiver provably drains at line rate; this is what regenerates the
//!   paper's figures in milliseconds of wall clock.
//! * **EventDriven** — a discrete-event model of the whole fabric with
//!   **real credit-based flow control**: every trained `Platform` wire
//!   becomes an event-driven channel pair ([`PortState`]) with per-VC
//!   credit pools, receiver buffers that drain with a modelled latency,
//!   credit returns riding back in NOP packets on the reverse direction,
//!   and hop-by-hop forwarding through each intermediate northbridge
//!   (via [`Node::deliver_routed`](tcc_opteron::node::Node::deliver_routed)
//!   and the same route tables the chained engine uses). Because the
//!   event queue interleaves all transmitters, many nodes can issue
//!   traffic *concurrently* — all-to-all, hotspot and halo-exchange
//!   patterns on `Mesh{x,y}` topologies exhibit genuine link contention,
//!   backpressure and fairness.
//!
//! # Parallel execution
//!
//! The event engine is a conservative parallel discrete-event simulator
//! (Chandy–Misra style). The fabric is sharded **by supernode**: each
//! `Shard` owns the ports, flows, drain clocks and event queue of one
//! supernode's nodes, so shard state is fully disjoint. Wire latency
//! gives the synchronization lookahead for free — every cross-shard
//! event is a packet arrival produced by `put_on_wire`, which lies at
//! least one hop latency in the future. With
//! `L = min(hop_latency over cut links)`, every epoch processes events
//! strictly below the horizon `min(next event anywhere) + L`; events a
//! shard generates for another shard during the epoch land at or past
//! the horizon, so exchanging mailboxes at the epoch barrier never
//! delivers an event into a shard's past.
//!
//! Determinism: every event carries an [`EventKey`] `(time, shard, seq)`
//! stamped by the shard that *scheduled* it, and each shard pops its
//! queue in total key order. Every thread count runs the same epoch
//! loop; `threads = 1` is one worker on the caller's thread. Results
//! match bit for bit for any thread count: each shard handles its events
//! in key order, and no cross-shard event lands below the horizon, whose
//! sequence depends only on the global event minima, so the partition
//! of shards over workers is unobservable (docs/engine.md, "Epochs" and
//! "Determinism"). DRAM commits are concatenated in
//! shard-index order after each run, and monitor callbacks are recorded
//! per shard and replayed in merged global key order (see
//! `replay_monitors`), which is likewise thread-count-invariant.
//!
//! The two engines are pinned to each other by cross-validation: on a
//! single flow their goodput must agree within a few percent (see
//! `tests/engine_crossval.rs` and the module tests below), and the
//! paper's 227 ns / ~2500 MB/s anchors reproduce on both. `docs/engine.md`
//! describes when each engine's answers are valid.
//!
//! Deadlock freedom: TCCluster restricts itself to posted writes, so all
//! data moves in one VC, and credit-return NOPs are info packets that
//! never wait for credits. A forward releases its input buffer under one
//! of two policies, chosen by the output port (`act_on_delivery`):
//! - onto a TCC link it holds the buffer until the packet leaves on that
//!   link (hold-until-forwarded), which is safe because X-Y
//!   dimension-ordered routing keeps the channel dependency graph acyclic;
//! - into the coherent crossbar inside a supernode it releases the buffer
//!   at handoff, because holding across the shared internal links would
//!   couple the X- and Y-phase dependency graphs into credit cycles.
//!   The coherent port's transmit queue is therefore unbounded.

use bytes::Bytes;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use tcc_fabric::event::{EventKey, LaneQueue, Popped};
use tcc_fabric::protocol_violation;
use tcc_fabric::time::{Duration, SimTime};
use tcc_firmware::machine::{PacketEvent, Platform};
use tcc_firmware::topology::{ClusterSpec, ClusterTopology, Port};
use tcc_ht::link::{Delivery, LinkRx, LinkTx};
use tcc_ht::packet::{Packet, VirtualChannel};
use tcc_msglib::handoff::{BatchRing, EpochBarrier};
use tcc_opteron::nb::FlatTable;
use tcc_opteron::node::{DeliverOutcome, FlatOutcome, Node};
use tcc_opteron::regs::{LinkId, NodeId, LINKS_PER_NODE};
use tcc_opteron::{Disposition, Source};

/// Which timing engine a [`SimCluster`](crate::sim::SimCluster) runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The analytic chained-channel path (`Platform::propagate`).
    #[default]
    Chained,
    /// The discrete-event fabric with real flow control.
    EventDriven,
}

/// Tuning knobs for the event engine's executive.
///
/// No `PartialEq`: the profile clock is a function pointer, and function
/// pointer identity is not stable across codegen units.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Worker threads for the sharded conservative-PDES executive. One
    /// shard per supernode; threads beyond the shard count are clamped.
    /// `1` runs the one epoch worker on the caller's thread (no spawn);
    /// every count gives the same results bit for bit.
    pub threads: usize,
    /// Monotonic nanosecond clock for per-stage attribution
    /// ([`EventEngine::stage_profile`]). `None` (the default) runs the
    /// unconditional hot loop with zero instrumentation; benches inject
    /// a clock for attribution runs. A function pointer — not a reading
    /// of any wall clock by this crate — so the engine itself stays free
    /// of nondeterminism sources.
    pub profile_clock: Option<fn() -> u64>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            threads: 1,
            profile_clock: None,
        }
    }
}

/// Wall-clock attribution of a profiled run, split over the three hot
/// sections of the epoch loop. Every field but `epochs` is filled only
/// when [`EngineOptions::profile_clock`] is set and stays zero otherwise;
/// `epochs` counts productive shard visits on every run.
///
/// Queue and exec time are **sampled**: one event in
/// [`PROFILE_SAMPLE_EVERY`] gets clocked (`sampled_events` counts them),
/// the rest run the uninstrumented hot path — so a profiled run's
/// absolute rate stays close to the headline rate and the split stays
/// accurate. Per-event figures divide `queue_ns`/`exec_ns` (and the exec
/// sub-stages) by `sampled_events`, but `mailbox_ns` — measured per
/// epoch phase, not per event — by `profiled_events`.
///
/// The exec sub-stages cover `Arrive` events (the dominant kind):
/// `credit_ns` is receive-buffer and credit accounting (including whole
/// NOP arrivals), `route_ns` is the routing decision plus DRAM timing
/// (flat classification + table lookup, or the northbridge walk), and
/// `deliver_ns` is acting on the outcome (drain scheduling, commit
/// logging, forward enqueue and transmit pump). Their sum is below
/// `exec_ns`; the remainder is Pump/Inject/Drained handling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageProfile {
    /// Nanoseconds inside event-queue pops (including refused
    /// `pop_keyed_before` horizon probes), sampled events only.
    pub queue_ns: u64,
    /// Nanoseconds draining and publishing cross-shard mailboxes
    /// (measured on every epoch phase, not sampled).
    pub mailbox_ns: u64,
    /// Nanoseconds executing event handlers (the model itself), sampled
    /// events only.
    pub exec_ns: u64,
    /// Exec sub-stage: routing decision + DRAM timing of sampled arrivals.
    pub route_ns: u64,
    /// Exec sub-stage: credit/buffer accounting of sampled arrivals.
    pub credit_ns: u64,
    /// Exec sub-stage: outcome handling of sampled arrivals.
    pub deliver_ns: u64,
    /// Events handled under profiling (clocked or not).
    pub profiled_events: u64,
    /// Events whose queue + exec time was actually clocked.
    pub sampled_events: u64,
    /// Productive shard visits (a shard × horizon round with at least
    /// one due event is visited; shards with nothing due are skipped).
    pub epochs: u64,
}

impl StageProfile {
    fn merge(&mut self, other: StageProfile) {
        self.queue_ns += other.queue_ns;
        self.mailbox_ns += other.mailbox_ns;
        self.exec_ns += other.exec_ns;
        self.route_ns += other.route_ns;
        self.credit_ns += other.credit_ns;
        self.deliver_ns += other.deliver_ns;
        self.profiled_events += other.profiled_events;
        self.sampled_events += other.sampled_events;
        self.epochs += other.epochs;
    }
}

/// Events by kind, from [`EventEngine::event_counts`]. The first five are
/// the event kinds and sum to the events handled; `cross_shard_sends`
/// counts the arrivals among them that crossed a shard boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Arrivals of data-bearing packets (wire packets minus NOPs).
    pub data_arrivals: u64,
    /// Arrivals of credit-return NOPs.
    pub nop_arrivals: u64,
    /// Receive-buffer drains.
    pub drains: u64,
    /// Flow pumps.
    pub pumps: u64,
    /// Store-path injects.
    pub injects: u64,
    /// Arrivals sent over a wire whose ends live in different shards.
    pub cross_shard_sends: u64,
}

/// Sampling stride of the profiled epoch loop: one event in this many
/// gets the clock reads. 32 keeps the instrumented run within a few
/// percent of the uninstrumented rate while still clocking hundreds of
/// thousands of events on the 8×8 workload.
pub const PROFILE_SAMPLE_EVERY: u64 = 32;

/// Time the receiving northbridge takes to drain one packet's buffers —
/// the memory-controller write for a 64 B payload (~6 ns at DDR2 rates
/// plus queue overhead). The IO-bridge conversion latency is on the
/// packet's path, not the buffer-occupancy path, so it does not throttle
/// the drain *rate*.
pub const DEFAULT_DRAIN: Duration = Duration(8_000);

/// Per-flow landing window in the destination's DRAM (64 packets deep).
const WIN: u64 = 0x1000;
/// Node-local offset of the first flow window — far above the message
/// rings at the bottom of each node's exported slice.
const WIN_BASE: u64 = 0x8_0000;

/// Hard per-run event budget — a run that exceeds it did not quiesce.
const EVENT_BUDGET: u64 = 500_000_000;

static ZERO64: [u8; 64] = [0u8; 64];

/// What a shard lane entry carries beyond its `(at, seq)`: the lane names
/// the port (for arrivals) or the node (for drains) and the source shard.
#[derive(Debug)]
enum LaneEntry {
    /// A packet arrives on the lane's in-wire.
    Arrive(Packet),
    /// The receiver at the lane's node finished a packet of this shape
    /// that came in on port `port`; its buffers become returnable credits.
    Drained {
        port: usize,
        vc: VirtualChannel,
        has_data: bool,
    },
}

/// The shard heap's payload: the event kinds whose keys follow no lane
/// order. `flow` indexes the owning shard's flow table (a flow lives at
/// its source node's shard), `port` its port table.
#[derive(Debug)]
enum Timer {
    /// Flow `flow` tries to enqueue + pump more packets at its source.
    Pump { flow: usize },
    /// A node's store path handed a packet to the fabric at `port`.
    Inject { port: usize, packet: Packet },
}

/// A cross-shard arrival in flight through an outbox or batch ring; the
/// receiving shard appends it to the in-wire lane of its port `port`.
#[derive(Debug)]
struct Mail {
    at: SimTime,
    seq: u64,
    port: usize,
    packet: Packet,
}

// A shard has at most `NodeId::MAX_COHERENT` nodes of `LINKS_PER_NODE`
// ports each, so a port index fits the byte `PortState::provenance`
// stores it in.
const _: () = assert!(NodeId::MAX_COHERENT as usize * LINKS_PER_NODE <= u8::MAX as usize);

/// One directed end of a trained wire: the transmitter leaving a node via
/// `link` plus the receiver for packets arriving there.
#[derive(Debug)]
pub struct PortState {
    tx: LinkTx,
    rx: LinkRx,
    /// Node-local index of this end's node.
    ln: usize,
    link: LinkId,
    peer: usize,
    peer_link: LinkId,
    /// Shard of the far end, and the far end's index in that shard's port
    /// table (which is also its in-wire lane there).
    peer_shard: u32,
    peer_port: usize,
    /// Index of the shard's outbox bound for `peer_shard` when the wire
    /// crosses shards; `None` when both ends share this shard.
    outbox: Option<u32>,
    coherent: bool,
    /// Input port each queued (Posted, data-bearing) packet came in on;
    /// `None` for locally injected packets. Exactly parallel to the tx
    /// Posted queue: the engine never enqueues NOPs (they go out via
    /// `send_nop`), so one delivery pops one entry. One byte per index:
    /// forwards into the coherent crossbar free their input buffer at
    /// handoff, so credits do not bound this queue, and with 16-byte
    /// entries the 4×4 hotspot's peak heap grew by 8 MB.
    provenance: VecDeque<Option<u8>>,
    /// Shard-local indices of flows whose first hop leaves through this
    /// port — woken when a credit NOP arrives.
    flows: Vec<usize>,
}

impl PortState {
    /// The receiving (node, link) at the far end of this wire direction.
    pub fn peer(&self) -> (usize, LinkId) {
        (self.peer, self.peer_link)
    }

    pub fn coherent(&self) -> bool {
        self.coherent
    }

    pub fn tx(&self) -> &LinkTx {
        &self.tx
    }

    pub fn rx(&self) -> &LinkRx {
        &self.rx
    }
}

/// A posted write that landed in some node's DRAM through the event
/// engine (the event-side analogue of `DeliveredWrite`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRec {
    /// Global node index the write committed on.
    pub node: u32,
    /// Node-local DRAM offset.
    pub offset: u64,
    /// When the write became visible to polls.
    pub visible: SimTime,
    /// Payload bytes committed: a posted write carries at most 64.
    pub bytes: u32,
}

// The commit log is the engine's largest allocation (one record per
// delivered packet); keep a record at three words.
const _: () = assert!(std::mem::size_of::<CommitRec>() == 24);

/// One synthetic traffic source: a stream of 64 B posted writes from
/// `src` into a dedicated window of `dst`'s DRAM, injected as fast as
/// credits allow.
#[derive(Debug)]
pub struct Flow {
    /// Global source node index.
    pub src: usize,
    /// Global destination node index.
    pub dst: usize,
    /// First-hop port out of `src` (from the northbridge's own routing),
    /// indexing the source shard's port table.
    port: usize,
    /// Node-local offset of the landing window in `dst`'s DRAM.
    win_off: u64,
    /// Window size in bytes; packet addresses wrap within it.
    window: u64,
    /// Global base address of the window.
    base: u64,
    /// Global address of the next packet.
    next: u64,
    /// Packets still to inject.
    remaining: u64,
    /// Packets enqueued so far.
    pub injected: u64,
}

/// A monitor callback captured on a shard during a run, replayed to the
/// platform's `FabricMonitor` in merged key order after the run so
/// monitors observe one deterministic global packet order regardless of
/// thread count.
#[derive(Debug)]
struct MonRec {
    key: EventKey,
    src: (usize, LinkId),
    dst: (usize, LinkId),
    coherent: bool,
    arrival: SimTime,
    packet: Packet,
}

/// Everything one supernode's slice of the fabric owns: its ports, its
/// flows, its receive-bridge drain clocks and its event queue. Shards
/// share nothing; cross-shard traffic moves only through staged outboxes
/// at epoch boundaries.
#[derive(Debug)]
struct Shard {
    /// Shard index == supernode index; also the `src` stamp of every
    /// event this shard schedules.
    id: u32,
    /// First global node index of this supernode.
    base: usize,
    /// The trained wire ends of this supernode's nodes, in ascending
    /// (node, link) order. A port's index is also its in-wire lane.
    ports: Vec<PortState>,
    /// Node-local `(ln, link)` → index into `ports`; `None` where the link
    /// is not trained.
    port_at: Vec<[Option<usize>; LINKS_PER_NODE]>,
    /// Per-node receive-bridge serialisation clock for buffer drains.
    drain_free: Vec<SimTime>,
    /// Flows sourced at this shard's nodes.
    flows: Vec<Flow>,
    /// Lane `p < ports.len()` holds the arrivals on port `p`'s in-wire,
    /// lane `ports.len() + ln` node `ln`'s drains; pumps and injects go
    /// to the heap.
    queue: LaneQueue<LaneEntry, Timer>,
    /// Drain, pump and inject events pushed so far (one add per push),
    /// for [`EventEngine::event_counts`].
    drains: u64,
    pumps: u64,
    injects: u64,
    /// Monotonic scheduling counter — the `seq` of the next event key,
    /// shared by local scheduling and cross-shard sends so keys are
    /// globally unique.
    seq: u64,
    /// Shard clock (last event handled).
    now: SimTime,
    /// Events handled since the counter was last merged.
    events: u64,
    /// Commits of this run, merged into the engine log in shard order.
    commits: Vec<CommitRec>,
    /// Scratch for link deliveries pumped by one event.
    dels: Vec<Delivery>,
    /// Monitor records of this run (empty unless a monitor is mounted).
    monlog: Vec<MonRec>,
    /// Double-buffer for mailbox drains; capacity ping-pongs with the
    /// ring batches so the steady state allocates nothing.
    inscratch: Vec<Mail>,
    /// Ring-mailbox staging, one per ring in `out_peers`: cross-shard
    /// sends accumulate here during an epoch and publish in one batch at
    /// the barrier.
    outbox: Vec<Vec<Mail>>,
    /// The rings this shard publishes into, one per shard its cut wires
    /// lead to, ascending by that shard.
    out_peers: Vec<u32>,
    /// The rings into this shard, ascending by source shard — the drain
    /// order. The order is cosmetic: each in-wire lane is fed by exactly
    /// one source shard, whose batch holds its sends in `seq` order, so
    /// every lane still receives its entries in key order.
    in_peers: Vec<u32>,
    /// Per-stage attribution of this run (profiled runs only).
    profile: StageProfile,
}

impl Shard {
    /// Append an arrival to its port's in-wire lane.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    fn push_arrival(&mut self, m: Mail) {
        self.queue
            .push_lane(m.port, m.at, m.seq, LaneEntry::Arrive(m.packet));
    }

    /// The index of the port at node-local `ln`, `link`.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    fn port_index(&self, ln: usize, link: LinkId) -> usize {
        match self.port_at[ln][link.0 as usize] {
            Some(p) => p,
            None => protocol_violation!("n{} l{}: port not wired", self.base + ln, link.0),
        }
    }

    /// The (global node, link) of port `p`, for diagnostics.
    fn wire_end(&self, p: usize) -> (usize, u8) {
        let port = &self.ports[p];
        (self.base + port.ln, port.link.0)
    }
}

/// One epoch batch in flight from one shard to another. The cross-shard
/// transport of the epoch executive is a flat list of these, one per
/// directed pair of shards that some wire crosses between, so it grows
/// with the cut, not with the square of the shard count. Each carries at
/// most one batch per epoch (published before the epoch barrier, taken
/// after it, with the barrier providing the happens-before edge).
type EventRing = BatchRing<Mail>;

/// One shard coupled to its slice of platform nodes for the duration of
/// a run — the unit of work a PDES worker thread owns.
struct ShardRun<'a> {
    shard: &'a mut Shard,
    /// This supernode's nodes, indexed node-locally.
    nodes: &'a mut [Node],
    /// Per-node flat dispatch tables (node-local indexing, parallel to
    /// `nodes`), snapshotted at engine build.
    flat: &'a [FlatTable],
    rings: &'a [EventRing],
    drain: Duration,
    /// Record monitor callbacks for post-run replay. Also selects the
    /// wire lane: unmonitored runs take the flat fast lane for 64 B
    /// posted writes, monitored runs send every packet down the general
    /// path, which is the lane's differential oracle.
    record: bool,
    /// Injected nanosecond clock for stage attribution, `None` on
    /// unprofiled (hot) runs.
    clock: Option<fn() -> u64>,
    /// The epoch executive's view of the shard's next event time
    /// (picoseconds, `u64::MAX` when idle), taken in the epoch's minima
    /// phase.
    next: u64,
}

impl ShardRun<'_> {
    /// Take the shard's next scheduling sequence number.
    fn next_seq(&mut self) -> u64 {
        let seq = self.shard.seq;
        self.shard.seq += 1;
        seq
    }

    /// Serialise the drain of a buffer of port `p` through its node's
    /// receive bridge.
    fn schedule_drain(&mut self, now: SimTime, p: usize, vc: VirtualChannel, has_data: bool) {
        let ln = self.shard.ports[p].ln;
        let start = now.max(self.shard.drain_free[ln]);
        self.shard.drain_free[ln] = start + self.drain;
        let seq = self.next_seq();
        let lane = self.shard.ports.len() + ln;
        self.shard.drains += 1;
        self.shard.queue.push_lane(
            lane,
            start + self.drain,
            seq,
            LaneEntry::Drained {
                port: p,
                vc,
                has_data,
            },
        );
    }

    /// Send an `Arrive` over port `p`'s wire to whichever shard owns the
    /// far end: onto our own in-wire lane, or toward the peer shard
    /// (applied at the next epoch barrier — sound because the arrival is
    /// at least one lookahead past the current horizon's base). A
    /// cross-shard send is a plain push onto this shard's private staging
    /// buffer — no lock, no atomic. The worker publishes the whole buffer
    /// once at the epoch barrier (`publish_outboxes`).
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    fn send_arrive(&mut self, at: SimTime, p: usize, packet: Packet) {
        let (outbox, port) = {
            let out = &self.shard.ports[p];
            (out.outbox, out.peer_port)
        };
        let seq = self.next_seq();
        let m = Mail {
            at,
            seq,
            port,
            packet,
        };
        match outbox {
            None => self.shard.push_arrival(m),
            Some(i) => self.shard.outbox[i as usize].push(m),
        }
    }

    /// Publish every non-empty staging buffer into its pair ring — once
    /// per epoch, before the B0 barrier (run_worker). The epoch protocol
    /// guarantees at most one batch in flight per pair, so a full ring is
    /// a protocol bug.
    // tcc_transfer_ok: published batches stay in flight in the pair
    // rings until the receiver shard's drain_mail takes them next epoch.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    #[cfg_attr(lint, tcc_linear(batch), tcc_transfer_ok)]
    fn publish_outboxes(&mut self) {
        let src = self.shard.id;
        for (staging, &r) in self.shard.outbox.iter_mut().zip(&self.shard.out_peers) {
            assert!(
                self.rings[r as usize].publish(staging),
                "shard {src}: batch ring {r} full (epoch protocol violated)"
            );
        }
    }

    /// Apply every event other shards mailed us since the last barrier:
    /// take each in-ring's published batch, recycling the shard's scratch
    /// buffer so the steady state moves events without allocating.
    ///
    /// Debug builds check the causality the horizon argument rests on:
    /// no mailed arrival is earlier than the receiver's `now`, the time of
    /// the last event it handled.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    #[cfg_attr(lint, tcc_linear(batch))]
    fn drain_mail(&mut self) {
        let mut scratch = std::mem::take(&mut self.shard.inscratch);
        let me = self.shard.id;
        for i in 0..self.shard.in_peers.len() {
            let r = self.shard.in_peers[i];
            if self.rings[r as usize].take(&mut scratch) {
                for m in scratch.drain(..) {
                    debug_assert!(
                        m.at >= self.shard.now,
                        "shard {} -> {me}: mailed arrival at {:?} is before the \
                         receiver's now {:?}",
                        self.shard.ports[m.port].peer_shard,
                        m.at,
                        self.shard.now
                    );
                    self.shard.push_arrival(m);
                }
            }
        }
        self.shard.inscratch = scratch;
    }

    /// Handle one popped lane or heap entry; an arrival's lane index is
    /// its port. The profiled instantiation sends
    /// arrivals through the instrumented [`on_arrive`](Self::on_arrive)
    /// so exec time sub-attributes into credit/route/deliver; the other
    /// event kinds have no sub-stages.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    fn dispatch<const PROF: bool>(&mut self, ev: Popped<LaneEntry, Timer>) {
        match ev {
            Popped::Lane(p, key, LaneEntry::Arrive(packet)) => {
                self.shard.now = key.at;
                self.on_arrive::<PROF>(key, p, packet);
            }
            Popped::Lane(_, key, LaneEntry::Drained { port, vc, has_data }) => {
                self.shard.now = key.at;
                self.on_drained(key.at, port, vc, has_data);
            }
            Popped::Heap(key, Timer::Pump { flow }) => {
                self.shard.now = key.at;
                self.pump_flow(key.at, flow);
            }
            Popped::Heap(key, Timer::Inject { port, packet }) => {
                self.shard.now = key.at;
                self.on_inject(key.at, port, packet);
            }
        }
    }

    /// Handle every queued event strictly below `horizon`, in key order.
    /// Returns the number handled.
    ///
    /// The unprofiled instantiation is the bare pop/dispatch loop. The
    /// profiled one clocks one event in [`PROFILE_SAMPLE_EVERY`] around
    /// the pop and the handler (arrivals sub-attribute into
    /// credit/route/deliver); the other N-1 run the exact uninstrumented
    /// path, so attribution costs ~2/N clock reads per event and the
    /// measured run stays close to the headline run it explains.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    fn run_epoch<const PROF: bool>(&mut self, horizon: SimTime) -> u64 {
        self.shard.profile.epochs += 1;
        let mut handled = 0u64;
        loop {
            // events + handled is monotone across the whole run, so the
            // sample pattern is deterministic and phase-independent.
            if !PROF || !(self.shard.events + handled).is_multiple_of(PROFILE_SAMPLE_EVERY) {
                let Some(ev) = self.shard.queue.pop_keyed_before(horizon) else {
                    break;
                };
                handled += 1;
                self.dispatch::<false>(ev);
                continue;
            }
            let t0 = self.tick::<PROF>();
            let popped = self.shard.queue.pop_keyed_before(horizon);
            let t1 = self.tick::<PROF>();
            self.shard.profile.queue_ns += t1.saturating_sub(t0);
            let Some(ev) = popped else { break };
            handled += 1;
            self.shard.profile.sampled_events += 1;
            self.dispatch::<PROF>(ev);
            self.shard.profile.exec_ns += self.tick::<PROF>().saturating_sub(t1);
        }
        if PROF {
            self.shard.profile.profiled_events += handled;
        }
        self.shard.events += handled;
        handled
    }

    /// Keep flow `i`'s transmit queue primed and pump its port. The flow
    /// reschedules itself only while the wire (not credits) paces it: an
    /// empty queue after pumping means everything went out, so poll again
    /// when the wire frees; a non-empty queue means credits blocked and
    /// the arrival of a credit NOP will re-pump (no busy-spin).
    fn pump_flow(&mut self, now: SimTime, i: usize) {
        let Shard { flows, ports, .. } = &mut *self.shard;
        let f = &mut flows[i];
        let port = &mut ports[f.port];
        while f.remaining > 0 && port.tx.queued(VirtualChannel::Posted) < 4 {
            port.tx
                .enqueue(Packet::posted_write(f.next, Bytes::from_static(&ZERO64)));
            port.provenance.push_back(None);
            f.next = f.base + (f.next - f.base + 64) % f.window;
            f.remaining -= 1;
            f.injected += 1;
        }
        let (p, remaining) = (f.port, f.remaining);
        self.pump_port(now, p);
        let port = &self.shard.ports[p];
        if remaining > 0 && port.tx.queued(VirtualChannel::Posted) == 0 {
            let at = port.tx.next_free().max(now + Duration(1_000));
            let key = EventKey {
                at,
                src: self.shard.id,
                seq: self.next_seq(),
            };
            self.shard.pumps += 1;
            self.shard
                .queue
                .schedule_keyed(key, Timer::Pump { flow: i });
        }
    }

    /// Transmit whatever credits admit at port `p`, scheduling an arrival
    /// per delivery. A delivery whose provenance names an input port
    /// releases that port's buffer (hold-until-forwarded), serialised
    /// through the node's receive bridge.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    fn pump_port(&mut self, now: SimTime, p: usize) {
        // Idle transmitter: nothing to send, nothing to stall-count, no
        // provenance to release. Redundant pumps (a credit NOP on a
        // caught-up port, a flow wake that enqueued nothing) are common
        // enough that the early-out pays.
        if self.shard.ports[p].tx.is_idle() {
            return;
        }
        let mut out = std::mem::take(&mut self.shard.dels);
        out.clear();
        self.shard.ports[p].tx.pump_into(now, &mut out);
        for d in out.drain(..) {
            let Some(from) = self.shard.ports[p].provenance.pop_front() else {
                let (node, link) = self.shard.wire_end(p);
                protocol_violation!("n{node} l{link}: provenance out of step with deliveries");
            };
            if let Some(in_port) = from {
                let (vc, has_data) = (d.packet.vc(), !d.packet.data.is_empty());
                self.schedule_drain(now, usize::from(in_port), vc, has_data);
            }
            self.send_arrive(d.arrival, p, d.packet);
        }
        self.shard.dels = out;
    }

    /// A node's own store path handed a packet to the fabric at port `p`.
    fn on_inject(&mut self, now: SimTime, p: usize, packet: Packet) {
        let port = &mut self.shard.ports[p];
        port.tx.enqueue(packet);
        port.provenance.push_back(None);
        self.pump_port(now, p);
    }

    /// Clock read for the profiled instantiation; compiles to nothing on
    /// the hot (`PROF = false`) one.
    #[inline(always)]
    fn tick<const PROF: bool>(&self) -> u64 {
        if PROF {
            self.clock.map_or(0, |c| c())
        } else {
            0
        }
    }

    /// A packet lands at port `p`: record it for the monitors, occupy
    /// a buffer, and route it — commit locally, forward out another link,
    /// or (for a NOP) release the credits it carries and wake blocked
    /// transmitters. The profiled instantiation fills
    /// `route_ns`/`credit_ns`/`deliver_ns`.
    // tcc_transfer_ok: an accepted packet's buffer stays occupied until
    // the Drain event scheduled here fires and on_drained releases it.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    #[cfg_attr(lint, tcc_linear(credit, rxbuf), tcc_transfer_ok)]
    fn on_arrive<const PROF: bool>(&mut self, key: EventKey, p: usize, packet: Packet) {
        let now = key.at;
        let port = &self.shard.ports[p];
        let (ln, link, coherent) = (port.ln, port.link, port.coherent);
        let node = self.shard.base + ln;
        if self.record {
            let rec = MonRec {
                key,
                src: (port.peer, port.peer_link),
                dst: (node, link),
                coherent,
                arrival: now,
                packet: packet.clone(),
            };
            self.shard.monlog.push(rec);
        }
        let t0 = self.tick::<PROF>();
        // ── Flat fast lane: the fixed-shape 64 B posted write whose
        // disposition was precomputed per address range at engine build.
        // Classify, one table scan, straight-line accept → deliver — no
        // command dispatch, no northbridge walk. Bit-identical effects
        // to the general path below, which monitored runs take (the
        // determinism suite diffs the two).
        if !self.record {
            if let Some(addr) = packet.flat_addr() {
                if let Some(plan) = self.flat[ln].lookup(addr) {
                    let t_route = self.tick::<PROF>();
                    if let Err(e) = self.shard.ports[p].rx.accept_flat() {
                        protocol_violation!(
                            "n{node} l{}: sender violated flow control: {e}",
                            link.0
                        );
                    }
                    let t_credit = self.tick::<PROF>();
                    let outcome =
                        self.nodes[ln].deliver_flat(now, plan, addr, &packet.data, !coherent);
                    let t_deliver = self.tick::<PROF>();
                    let outcome = match outcome {
                        FlatOutcome::Committed { offset, visible } => {
                            DeliverOutcome::Committed { offset, visible }
                        }
                        FlatOutcome::Forward { link, at } => {
                            DeliverOutcome::Forward { link, packet, at }
                        }
                    };
                    self.act_on_delivery(now, p, VirtualChannel::Posted, 64, outcome);
                    if PROF {
                        let end = self.tick::<PROF>();
                        let prof = &mut self.shard.profile;
                        prof.route_ns +=
                            t_route.saturating_sub(t0) + t_deliver.saturating_sub(t_credit);
                        prof.credit_ns += t_credit.saturating_sub(t_route);
                        prof.deliver_ns += end.saturating_sub(t_deliver);
                    }
                    return;
                }
            }
        }
        let accepted = self.shard.ports[p].rx.accept(&packet).unwrap_or_else(|e| {
            protocol_violation!("n{node} l{}: sender violated flow control: {e}", link.0)
        });
        let t_credit = self.tick::<PROF>();
        if PROF {
            self.shard.profile.credit_ns += t_credit.saturating_sub(t0);
        }
        match accepted {
            Some(ret) => {
                // A credit NOP: freed credits may unblock the queue and
                // any flow sourced at this port, immediately.
                if let Err(e) = self.shard.ports[p].tx.credit_return(ret) {
                    protocol_violation!("n{node} l{}: bad credit return: {e}", link.0);
                }
                self.pump_port(now, p);
                let mut k = 0;
                while k < self.shard.ports[p].flows.len() {
                    let port = &self.shard.ports[p];
                    // Once the transmit queue is full again the freed
                    // credits are spoken for: no later flow can enqueue
                    // (the queue caps at 4) or transmit (pump_flow's own
                    // pump already drained whatever credits admitted),
                    // so the remaining wakes would be pure no-ops. On
                    // congested ports this turns an O(flows) fan-out per
                    // credit NOP into O(queue slots).
                    if port.tx.queued(VirtualChannel::Posted) >= 4 {
                        break;
                    }
                    let fi = port.flows[k];
                    // An exhausted flow never enqueues or reschedules
                    // again, so its wake would be a no-op forever: drop
                    // it from the list, keeping the live flows in order.
                    if self.shard.flows[fi].remaining == 0 {
                        self.shard.ports[p].flows.remove(k);
                        continue;
                    }
                    self.pump_flow(now, fi);
                    k += 1;
                }
                if PROF {
                    let end = self.tick::<PROF>();
                    self.shard.profile.credit_ns += end.saturating_sub(t_credit);
                }
            }
            None => {
                let vc = packet.vc();
                let bytes = packet.data.len() as u32;
                let outcome = self.nodes[ln]
                    .deliver_routed(now, link, packet, coherent)
                    .unwrap_or_else(|e| {
                        protocol_violation!("delivery failed at node {node}: {e:?}")
                    });
                let t_route = self.tick::<PROF>();
                if PROF {
                    self.shard.profile.route_ns += t_route.saturating_sub(t_credit);
                }
                self.act_on_delivery(now, p, vc, bytes, outcome);
                if PROF {
                    let end = self.tick::<PROF>();
                    self.shard.profile.deliver_ns += end.saturating_sub(t_route);
                }
            }
        }
    }

    /// Act on where a packet of `bytes` payload in `vc`, accepted at port
    /// `p`, went, for both wire lanes: a commit schedules the input
    /// buffer's drain and logs the write; a filtered broadcast schedules
    /// the drain; a forward enqueues the packet on its output port and
    /// pumps it.
    ///
    /// Across a TCC hop a forward holds the input buffer until the packet
    /// leaves on the output link (hold-until-forwarded: `pump_port`
    /// schedules the drain). Into the *coherent* crossbar inside the
    /// supernode it releases the buffer at handoff instead: cHT has its
    /// own per-port buffering, and holding across the shared internal
    /// links would couple the X- and Y-phase dependency graphs into
    /// credit cycles (a real deadlock on meshes of 4x4 and up — the 2x2
    /// the model checker covers is too small to close the loop).
    // Inlined into both arms so the flat arm's `FlatOutcome` →
    // `DeliverOutcome` mapping folds away instead of being built on the
    // stack for an out-of-line call on every data arrival.
    #[inline(always)]
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    fn act_on_delivery(
        &mut self,
        now: SimTime,
        p: usize,
        vc: VirtualChannel,
        bytes: u32,
        outcome: DeliverOutcome,
    ) {
        let has_data = bytes != 0;
        let ln = self.shard.ports[p].ln;
        match outcome {
            DeliverOutcome::Committed { offset, visible } => {
                self.schedule_drain(now, p, vc, has_data);
                let node = (self.shard.base + ln) as u32;
                self.shard.commits.push(CommitRec {
                    node,
                    offset,
                    visible,
                    bytes,
                });
            }
            DeliverOutcome::Forward {
                link: out,
                packet,
                at,
            } => {
                let q = self.shard.port_index(ln, out);
                let out_port = &mut self.shard.ports[q];
                let hold = !out_port.coherent;
                out_port.tx.enqueue(packet);
                out_port.provenance.push_back(hold.then_some(p as u8));
                if !hold {
                    self.schedule_drain(now, p, vc, has_data);
                }
                self.pump_port(at, q);
            }
            DeliverOutcome::Filtered => self.schedule_drain(now, p, vc, has_data),
        }
    }

    /// Buffers freed: harvest the pending credits into NOPs on the
    /// reverse direction (NOPs bypass credit checks, so returns can never
    /// deadlock).
    #[cfg_attr(lint, tcc_linear(rxbuf))]
    fn on_drained(&mut self, now: SimTime, p: usize, vc: VirtualChannel, has_data: bool) {
        if let Err(e) = self.shard.ports[p].rx.drain_parts(vc, has_data) {
            let (node, link) = self.shard.wire_end(p);
            protocol_violation!("n{node} l{link}: drained a buffer never accepted: {e}");
        }
        while self.shard.ports[p].rx.has_pending_credits() {
            let port = &mut self.shard.ports[p];
            let ret = port.rx.harvest();
            let d = port.tx.send_nop(now, ret);
            self.send_arrive(d.arrival, p, d.packet);
        }
    }
}

/// Epoch coordination shared by the PDES workers. Two barrier phases
/// per epoch: (B1) every worker has drained its mailboxes and published
/// its local minimum, so each worker folds the same minima into the same
/// horizon; (B0) every worker has finished the epoch, so all cross-shard
/// sends for it are in the mailboxes. Both are waits on one
/// [`EpochBarrier`], which polls and then yields rather than parking the
/// thread in the kernel: an epoch is tens of microseconds of work (about
/// 1,100 events on the 8×8 all-to-all), short enough that a futex
/// wake-up per wait was a large share of a two-thread run.
struct Coord {
    barrier: EpochBarrier,
    /// Per-worker minimum next-event time (picoseconds), `u64::MAX` when
    /// the worker's shards are all idle.
    mins: Vec<AtomicU64>,
    /// Events handled so far this run, for the budget check. Workers add
    /// to it only between B1 and B0 and read it only between B0 and B1,
    /// so every worker reads the same total in an epoch.
    events: AtomicU64,
    lookahead: u64,
}

/// One PDES worker: loops epochs over its contiguous group of shards
/// until every queue and mailbox is empty (verdict `true`) or the event
/// budget blows (verdict `false`), and returns the verdict with the
/// number of epochs it ran. Every worker folds the same minima and
/// total, so all of them stop in the same epoch, count the same epochs,
/// and none is left waiting at `coord.barrier`. A worker that panics
/// never arrives there again, so the others spin and yield at the
/// barrier forever: a deadlock, which is why this function must not
/// panic.
///
/// Profiled runs clock the drain and the publish pass once each per
/// epoch and charge the time to the worker's first shard, so
/// `mailbox_ns` sums the workers' wall time in the mailbox phases.
#[cfg_attr(lint, tcc_no_panic)]
fn run_worker<const PROF: bool>(runs: &mut [ShardRun<'_>], w: usize, coord: &Coord) -> (bool, u64) {
    let clock = runs.first().and_then(|r| r.clock);
    let tick = || if PROF { clock.map_or(0, |c| c()) } else { 0 };
    let mut mailbox_ns = 0u64;
    let mut epochs = 0u64;
    let verdict = loop {
        // Each phase is its own pass over the shards, so the worker's
        // calls follow the protocol order across shards too.
        let t0 = tick();
        for run in runs.iter_mut() {
            run.drain_mail();
        }
        mailbox_ns += tick().saturating_sub(t0);
        let mut min = u64::MAX;
        for run in runs.iter_mut() {
            run.next = run.shard.queue.peek_time().map_or(u64::MAX, |t| t.picos());
            min = min.min(run.next);
        }
        coord.mins[w].store(min, Ordering::Release);
        let total = coord.events.load(Ordering::Relaxed);
        coord.barrier.wait(); // B1: all minima published.
        let gmin = coord
            .mins
            .iter()
            .map(|m| m.load(Ordering::Acquire))
            .fold(u64::MAX, u64::min);
        if gmin == u64::MAX {
            break true;
        }
        if total > EVENT_BUDGET {
            break false;
        }
        epochs += 1;
        let horizon = gmin.saturating_add(coord.lookahead);
        // A shard whose minimum sits at or past the horizon pops nothing
        // (pops are strictly below), and having dispatched nothing it has
        // staged no sends, so publishing is a no-op too: skip the visit
        // outright. Only this worker mutates its shards' queues, so the
        // minimum is still the one the horizon was computed from.
        let mut delta = 0u64;
        for run in runs.iter_mut().filter(|r| r.next < horizon) {
            delta += run.run_epoch::<PROF>(SimTime(horizon));
        }
        let t0 = tick();
        for run in runs.iter_mut().filter(|r| r.next < horizon) {
            run.publish_outboxes();
        }
        mailbox_ns += tick().saturating_sub(t0);
        coord.events.fetch_add(delta, Ordering::Relaxed);
        coord.barrier.wait(); // B0: epoch done, all sends mailed/published.
    };
    if let Some(run) = runs.first_mut() {
        run.shard.profile.mailbox_ns += mailbox_ns;
    }
    (verdict, epochs)
}

/// Split the shard runs into `threads` contiguous groups and drive them
/// with scoped workers (worker 0 runs on the caller's thread). Returns
/// `true` on quiescence, with the number of epochs run.
fn run_threaded<const PROF: bool>(
    runs: &mut [ShardRun<'_>],
    lookahead: Duration,
    threads: usize,
) -> (bool, u64) {
    let coord = Coord {
        barrier: EpochBarrier::new(threads),
        mins: (0..threads).map(|_| AtomicU64::new(u64::MAX)).collect(),
        events: AtomicU64::new(0),
        lookahead: lookahead.picos(),
    };
    let n = runs.len();
    let mut groups: Vec<&mut [ShardRun<'_>]> = Vec::with_capacity(threads);
    let mut rest = runs;
    for w in 0..threads {
        let take = n / threads + usize::from(w < n % threads);
        let (head, tail) = rest.split_at_mut(take);
        groups.push(head);
        rest = tail;
    }
    std::thread::scope(|s| {
        let mut iter = groups.into_iter().enumerate();
        let (_, first) = iter.next().expect("at least one group");
        for (w, group) in iter {
            let coord = &coord;
            s.spawn(move || run_worker::<PROF>(group, w, coord));
        }
        // Every worker reaches the same verdict in the same epoch.
        run_worker::<PROF>(first, 0, &coord)
    })
}

/// Replay recorded monitor callbacks in merged global key order. Each
/// shard's log is already key-sorted (shards process events in key
/// order), so a k-way min-merge walks them once.
fn replay_monitors(platform: &mut Platform, shards: &mut [Shard]) {
    let mut idx = vec![0usize; shards.len()];
    loop {
        let mut best: Option<(EventKey, usize)> = None;
        for (s, shard) in shards.iter().enumerate() {
            if let Some(rec) = shard.monlog.get(idx[s]) {
                if best.is_none_or(|(k, _)| rec.key < k) {
                    best = Some((rec.key, s));
                }
            }
        }
        let Some((_, s)) = best else { break };
        let rec = &shards[s].monlog[idx[s]];
        idx[s] += 1;
        platform.monitor_packet(&PacketEvent {
            src: rec.src,
            dst: rec.dst,
            coherent: rec.coherent,
            packet: &rec.packet,
            arrival: rec.arrival,
        });
    }
    for shard in shards {
        shard.monlog.clear();
    }
}

/// The event-driven fabric engine: one [`PortState`] per trained wire
/// direction, persistent across runs against a borrowed [`Platform`],
/// sharded by supernode for the conservative-PDES executive.
#[derive(Debug)]
pub struct EventEngine {
    shards: Vec<Shard>,
    /// Cross-shard batch rings, one per directed cut shard pair, indexed
    /// by each shard's `out_peers` and `in_peers` (see [`EventRing`]).
    rings: Vec<EventRing>,
    /// Global flow index → (shard, shard-local flow index), in
    /// registration order.
    flow_dir: Vec<(u32, u32)>,
    /// Commits of all runs, concatenated in shard-index order per run.
    commits_log: Vec<CommitRec>,
    /// Next free landing-window offset per destination node.
    win_next: Vec<u64>,
    dram_per_node: u64,
    procs: usize,
    /// Conservative lookahead: minimum hop latency over cut links.
    lookahead: Duration,
    drain: Duration,
    threads: usize,
    /// Per-node flat dispatch tables, rebuilt at engine construction
    /// (i.e. once per train), indexed like `platform.nodes`.
    flat: Vec<FlatTable>,
    profile_clock: Option<fn() -> u64>,
    /// Aggregated per-stage attribution across profiled runs.
    profile: StageProfile,
    now: SimTime,
    events: u64,
    epochs: u64,
}

impl EventEngine {
    /// Build an engine over every trained wire of `platform`, with link
    /// configurations taken from the negotiated endpoint state (the same
    /// tables the chained engine serialises against) and the given
    /// executive options.
    pub fn with_options(platform: &mut Platform, drain: Duration, options: EngineOptions) -> Self {
        let spec = platform.spec;
        let procs = spec.supernode.processors;
        let n = platform.nodes.len();
        let nshards = n / procs;
        let mut lookahead = Duration(u64::MAX);
        // A port's index is its rank among its shard's trained wire ends
        // in (node, link) order; fixed here for both ends of every wire.
        let mut port_at = vec![[None; LINKS_PER_NODE]; n];
        let mut next = 0;
        for (node, row) in port_at.iter_mut().enumerate() {
            if node % procs == 0 {
                next = 0;
            }
            for (l, slot) in row.iter_mut().enumerate() {
                if platform.route_hop(node, LinkId(l as u8)).is_some() {
                    *slot = Some(next);
                    next += 1;
                }
            }
        }
        let mut shards = Vec::with_capacity(nshards);
        // One ring per directed shard pair with a cut wire — exactly the
        // pairs that ever exchange cross-shard events (arrivals travel
        // the wire's direction; credit NOPs travel the reverse wire,
        // which is its own port and registers its own pair) — numbered
        // in (src, dst) order, with each ring's receiving shard.
        let mut rings = Vec::new();
        let mut ring_dst = Vec::new();
        for sid in 0..nshards {
            let base = sid * procs;
            let mut ports = Vec::new();
            // Shards across this shard's cut wires.
            let mut peers = Vec::new();
            for ln in 0..procs {
                let node = base + ln;
                for l in 0..LINKS_PER_NODE {
                    let link = LinkId(l as u8);
                    let Some((peer, peer_link, coherent)) = platform.route_hop(node, link) else {
                        continue;
                    };
                    let config = platform
                        .active_config(node, link)
                        .expect("trained wire has an active config");
                    let peer_shard = peer / procs;
                    if peer_shard != sid {
                        lookahead = lookahead.min(config.hop_latency);
                        peers.push(peer_shard as u32);
                    }
                    // Wires are symmetric, so the in-wire at (node, link)
                    // is fed by the transmitter at (peer, peer_link): its
                    // lane's source is the peer's shard.
                    debug_assert_eq!(
                        platform.route_hop(peer, peer_link).map(|(n, l, _)| (n, l)),
                        Some((node, link))
                    );
                    let seed = 0x1000 | ((node as u64) << 4) | l as u64;
                    ports.push(PortState {
                        tx: LinkTx::new(config, seed),
                        rx: LinkRx::new(),
                        ln,
                        link,
                        peer,
                        peer_link,
                        peer_shard: peer_shard as u32,
                        peer_port: port_at[peer][peer_link.0 as usize]
                            .expect("the far end of a trained wire is trained"),
                        outbox: None,
                        coherent,
                        provenance: VecDeque::new(),
                        flows: Vec::new(),
                    });
                }
            }
            peers.sort_unstable();
            peers.dedup();
            for port in &mut ports {
                port.outbox = peers.binary_search(&port.peer_shard).ok().map(|i| i as u32);
            }
            let out_peers: Vec<u32> = (rings.len() as u32..).take(peers.len()).collect();
            rings.extend(peers.iter().map(|_| BatchRing::new()));
            ring_dst.append(&mut peers);
            // One lane per port's in-wire, stamped by the shard across the
            // wire, then one drain lane per node.
            let srcs = ports.iter().map(|p| p.peer_shard);
            let queue = LaneQueue::new(srcs.chain(std::iter::repeat_n(sid as u32, procs)));
            shards.push(Shard {
                id: sid as u32,
                base,
                ports,
                port_at: port_at[base..base + procs].to_vec(),
                drain_free: vec![SimTime::ZERO; procs],
                flows: Vec::new(),
                queue,
                drains: 0,
                pumps: 0,
                injects: 0,
                seq: 0,
                now: SimTime::ZERO,
                events: 0,
                commits: Vec::new(),
                dels: Vec::new(),
                monlog: Vec::new(),
                inscratch: Vec::new(),
                outbox: out_peers.iter().map(|_| Vec::new()).collect(),
                out_peers,
                in_peers: Vec::new(),
                profile: StageProfile::default(),
            });
        }
        for (r, &dst) in ring_dst.iter().enumerate() {
            shards[dst as usize].in_peers.push(r as u32);
        }
        // A zero lookahead would make the horizon equal the minimum and
        // process nothing; one picosecond still admits the minimum event.
        let lookahead = Duration(lookahead.picos().max(1));
        EventEngine {
            shards,
            rings,
            flow_dir: Vec::new(),
            commits_log: Vec::new(),
            win_next: vec![WIN_BASE; n],
            dram_per_node: spec.supernode.dram_per_node,
            procs,
            lookahead,
            drain,
            threads: options.threads.max(1),
            flat: platform.nodes.iter().map(|n| n.nb.flat_table()).collect(),
            profile_clock: options.profile_clock,
            profile: StageProfile::default(),
            now: SimTime::ZERO,
            events: 0,
            epochs: 0,
        }
    }

    /// The configured receiver drain latency.
    pub fn drain(&self) -> Duration {
        self.drain
    }

    /// Per-stage wall-clock attribution accumulated over runs. Without a
    /// [`profile_clock`](EngineOptions::profile_clock) only `epochs`
    /// (productive shard visits) is counted; every other field is zero.
    pub fn stage_profile(&self) -> StageProfile {
        self.profile
    }

    /// The engine clock (last event handled).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events handled across all runs.
    pub fn events_handled(&self) -> u64 {
        self.events
    }

    /// Epochs the executive ran, summed over runs. Each epoch's horizon
    /// depends only on the global event minima, so the count is the same
    /// for every thread count. Not to be confused with
    /// [`StageProfile::epochs`], which counts shard visits.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Every DRAM commit delivered so far: per run, shards' commits in
    /// processing order, concatenated in shard-index order.
    pub fn commits(&self) -> &[CommitRec] {
        &self.commits_log
    }

    /// The port at (node, link), if that wire end is trained.
    pub fn port(&self, node: usize, link: LinkId) -> Option<&PortState> {
        let shard = &self.shards[node / self.procs];
        shard.port_at[node - shard.base][link.0 as usize].map(|p| &shard.ports[p])
    }

    /// All active (node, link) port coordinates, in ascending order.
    pub fn port_ids(&self) -> Vec<(usize, LinkId)> {
        self.shards
            .iter()
            .flat_map(|s| s.ports.iter().map(|p| (s.base + p.ln, p.link)))
            .collect()
    }

    /// Total transmitter stalls for want of a credit, across all ports —
    /// nonzero exactly when flow control engaged.
    pub fn stalls_no_credit(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.ports)
            .map(|p| p.tx.stats.stalls_no_credit)
            .sum()
    }

    /// Total credit NOPs sent across all ports.
    pub fn nops_sent(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.ports)
            .map(|p| p.tx.stats.nops_sent)
            .sum()
    }

    /// Events by kind over the engine's life. Arrivals and cross-shard
    /// sends are read off the per-port transmit stats (every packet put
    /// on a wire is one arrival); drains, pumps and injects are counted
    /// as they are queued. After a quiescent run every queued event has
    /// been handled, so the kinds sum to [`events_handled`](Self::events_handled).
    pub fn event_counts(&self) -> EventCounts {
        let mut c = EventCounts::default();
        for shard in &self.shards {
            c.drains += shard.drains;
            c.pumps += shard.pumps;
            c.injects += shard.injects;
            for port in &shard.ports {
                let st = &port.tx.stats;
                c.data_arrivals += st.packets_sent - st.nops_sent;
                c.nop_arrivals += st.nops_sent;
                if port.peer_shard != shard.id {
                    c.cross_shard_sends += st.packets_sent;
                }
            }
        }
        c
    }

    /// Queue a packet leaving `node` on `link`, no earlier than `ready`
    /// (clamped to the engine clock — the store path's issue clock can
    /// lag a fabric that already ran ahead).
    pub fn inject_at(&mut self, node: usize, link: LinkId, packet: Packet, ready: SimTime) {
        let at = ready.max(self.now);
        let sid = node / self.procs;
        let shard = &mut self.shards[sid];
        let port = shard.port_index(node - shard.base, link);
        let key = EventKey {
            at,
            src: sid as u32,
            seq: shard.seq,
        };
        shard.seq += 1;
        shard.injects += 1;
        shard
            .queue
            .schedule_keyed(key, Timer::Inject { port, packet });
    }

    /// Register a flow of `bytes` (rounded up to 64 B packets) from
    /// global node `src` into a dedicated window of `dst`'s DRAM, routed
    /// by `src`'s own northbridge. Returns the global flow index.
    pub fn add_flow(
        &mut self,
        platform: &mut Platform,
        src: usize,
        dst: usize,
        bytes: u64,
    ) -> usize {
        let spec = platform.spec;
        let gidx = self.flow_dir.len();
        let win_off = self.win_next[dst];
        assert!(
            win_off + WIN <= self.dram_per_node,
            "flow {gidx}: node {dst} is out of landing windows"
        );
        self.win_next[dst] = win_off + WIN;
        let (s, p) = (dst / self.procs, dst % self.procs);
        let base = spec.node_base(s, p) + win_off;
        let probe = Packet::posted_write(base, Bytes::from_static(&ZERO64));
        let link = match platform.nodes[src].nb.dispose(&probe, Source::Core) {
            Ok(Disposition::Forward { link }) => link,
            other => panic!("flow {src}->{dst} does not leave node {src}: {other:?}"),
        };
        let packets = bytes.div_ceil(64).max(1);
        let sid = src / self.procs;
        let shard = &mut self.shards[sid];
        let port = shard.port_index(src - shard.base, link);
        let lidx = shard.flows.len();
        shard.flows.push(Flow {
            src,
            dst,
            port,
            win_off,
            window: WIN,
            base,
            next: base,
            remaining: packets,
            injected: 0,
        });
        shard.ports[port].flows.push(lidx);
        let key = EventKey {
            at: self.now,
            src: sid as u32,
            seq: shard.seq,
        };
        shard.seq += 1;
        shard.pumps += 1;
        shard.queue.schedule_keyed(key, Timer::Pump { flow: lidx });
        self.flow_dir.push((sid as u32, lidx as u32));
        gidx
    }

    /// Run the fabric until every pending packet, drain and credit return
    /// has completed, over `threads` PDES workers (clamped to the shard
    /// count; worker 0 runs on the caller's thread). Returns the latest commit-visible time of
    /// this run (`SimTime::ZERO` if nothing landed).
    pub fn run_quiescent(&mut self, platform: &mut Platform) -> SimTime {
        let first_new = self.commits_log.len();
        let record = platform.has_monitor();
        let procs = self.procs;
        let drain = self.drain;
        let lookahead = self.lookahead;
        let threads = self.threads.min(self.shards.len()).max(1);
        let rings = &self.rings;
        let clock = self.profile_clock;
        let mut runs: Vec<ShardRun<'_>> = self
            .shards
            .iter_mut()
            .zip(platform.nodes.chunks_mut(procs))
            .zip(self.flat.chunks(procs))
            .map(|((shard, nodes), flat)| ShardRun {
                shard,
                nodes,
                rings,
                drain,
                record,
                flat,
                clock,
                next: u64::MAX,
            })
            .collect();
        let (clean, epochs) = if clock.is_some() {
            run_threaded::<true>(&mut runs, lookahead, threads)
        } else {
            run_threaded::<false>(&mut runs, lookahead, threads)
        };
        self.epochs += epochs;
        drop(runs);
        assert!(
            clean,
            "event fabric did not quiesce within {EVENT_BUDGET} events"
        );
        // The executive reads "no next event" as a minimum of u64::MAX,
        // so an event at SimTime::MAX looks like an empty queue. Nothing
        // may be left behind when it reports quiescence.
        for shard in &self.shards {
            let pending = shard.queue.len();
            assert!(
                pending == 0,
                "event fabric did not quiesce: shard {} still holds {pending} \
                 event(s) at SimTime::MAX, which no horizon reaches",
                shard.id
            );
        }
        // Each commit is held once: a shard's buffer moves into an empty
        // log; otherwise it is copied into a log reserved exactly for the
        // rest of the run and freed at once.
        let mut pending: usize = self.shards.iter().map(|s| s.commits.len()).sum();
        let mut now = self.now;
        for shard in &mut self.shards {
            now = now.max(shard.now);
            self.events += shard.events;
            shard.events = 0;
            self.profile.merge(shard.profile);
            shard.profile = StageProfile::default();
            let commits = std::mem::take(&mut shard.commits);
            if self.commits_log.is_empty() {
                pending -= commits.len();
                self.commits_log = commits;
            } else {
                self.commits_log.reserve_exact(pending);
                pending -= commits.len();
                self.commits_log.extend_from_slice(&commits);
            }
        }
        self.now = now;
        if record {
            replay_monitors(platform, &mut self.shards);
        }
        self.commits_log[first_new..]
            .iter()
            .map(|c| c.visible)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// After quiescence every credit must be home: transmit pools full,
    /// receive buffers empty, nothing pending return. Panics otherwise —
    /// a failure here means the engine lost or duplicated a credit.
    pub fn assert_quiescent_credits(&self) {
        for shard in &self.shards {
            for (p, port) in shard.ports.iter().enumerate() {
                let (node, l) = shard.wire_end(p);
                assert!(
                    port.provenance.is_empty(),
                    "n{node} l{l}: packets still queued"
                );
                for vc in VirtualChannel::ALL {
                    let c = port.tx.credits();
                    assert_eq!(
                        c.available_cmd(vc),
                        c.initial_cmd(vc),
                        "n{node} l{l} {vc}: cmd credits missing"
                    );
                    assert_eq!(
                        c.available_data(vc),
                        c.initial_data(vc),
                        "n{node} l{l} {vc}: data credits missing"
                    );
                    let b = port.rx.buffers();
                    assert_eq!(b.held(vc), 0, "n{node} l{l} {vc}: buffers occupied");
                    assert_eq!(b.pending(vc), 0, "n{node} l{l} {vc}: returns unharvested");
                }
            }
        }
    }

    /// Per-flow delivery accounting, attributing commits by landing
    /// window, in flow-registration order.
    ///
    /// One pass over the commit log: each destination's windows are
    /// carved upward from `WIN_BASE` in steps of `WIN`, so a commit's
    /// (node, window index) names at most one flow. Commits outside every
    /// window (message rings below `WIN_BASE`) are ignored.
    pub fn flow_reports(&self) -> Vec<FlowReport> {
        let flows: Vec<&Flow> = self
            .flow_dir
            .iter()
            .map(|&(sid, lidx)| &self.shards[sid as usize].flows[lidx as usize])
            .collect();
        // by_window[node][k]: global index of the flow landing in node's
        // k-th window.
        let mut by_window: Vec<Vec<usize>> = vec![Vec::new(); self.win_next.len()];
        for (g, f) in flows.iter().enumerate() {
            let windows = &mut by_window[f.dst];
            debug_assert_eq!(f.win_off, WIN_BASE + windows.len() as u64 * WIN);
            windows.push(g);
        }
        // (bytes, first visible, last visible) per flow.
        let mut acc = vec![(0u64, SimTime::MAX, SimTime::ZERO); flows.len()];
        for c in &self.commits_log {
            if c.offset < WIN_BASE {
                continue;
            }
            let k = ((c.offset - WIN_BASE) / WIN) as usize;
            if let Some(&g) = by_window[c.node as usize].get(k) {
                let a = &mut acc[g];
                a.0 += u64::from(c.bytes);
                a.1 = a.1.min(c.visible);
                a.2 = a.2.max(c.visible);
            }
        }
        flows
            .iter()
            .zip(acc)
            .map(|(f, (delivered, first, last))| FlowReport {
                src: f.src,
                dst: f.dst,
                injected_packets: f.injected,
                delivered_bytes: delivered,
                first_visible: if delivered == 0 { SimTime::ZERO } else { first },
                last_visible: last,
            })
            .collect()
    }
}

/// Synthetic concurrent traffic shapes over the cluster's supernodes
/// (each supernode is represented by its processor 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Every supernode streams to every other supernode.
    AllToAll,
    /// Every supernode streams to one `target` supernode.
    Hotspot { target: usize },
    /// Every supernode streams to each of its mesh neighbours
    /// (halo exchange).
    Halo,
    /// Matrix transpose: supernode (r, c) of a mesh streams to (c, r) —
    /// the classic adversarial case for X-Y routing (every flow turns at
    /// the diagonal). On non-mesh topologies: `s → n-1-s`.
    Transpose,
    /// Tornado: each supernode streams to the one half the ring away in
    /// its own row — the worst case for minimal routing on tori, here a
    /// maximum-distance row-parallel load. On non-mesh topologies:
    /// `s → (s + n/2) mod n`.
    Tornado,
    /// One flow from supernode `src` to supernode `dst`.
    Single { src: usize, dst: usize },
}

/// (src, dst) global node pairs a pattern expands to on `spec`.
pub fn pattern_pairs(spec: &ClusterSpec, pattern: TrafficPattern) -> Vec<(usize, usize)> {
    let rep = |s: usize| spec.proc_index(s, 0);
    let n = spec.supernode_count();
    let mut pairs = Vec::new();
    match pattern {
        TrafficPattern::Single { src, dst } => pairs.push((rep(src), rep(dst))),
        TrafficPattern::AllToAll => {
            for s in 0..n {
                for d in 0..n {
                    if s != d {
                        pairs.push((rep(s), rep(d)));
                    }
                }
            }
        }
        TrafficPattern::Hotspot { target } => {
            for s in 0..n {
                if s != target {
                    pairs.push((rep(s), rep(target)));
                }
            }
        }
        TrafficPattern::Halo => {
            for s in 0..n {
                for port in Port::ALL {
                    if let Some(d) = spec.neighbor(s, port) {
                        pairs.push((rep(s), rep(d)));
                    }
                }
            }
        }
        TrafficPattern::Transpose => {
            for s in 0..n {
                let d = match spec.topology {
                    ClusterTopology::Mesh { x, y } => {
                        let (r, c) = (s / x, s % x);
                        // (r, c) → (c, r): valid only when the transposed
                        // coordinate exists, i.e. c < y and r < x.
                        if c < y && r < x {
                            c * x + r
                        } else {
                            s
                        }
                    }
                    _ => n - 1 - s,
                };
                if d != s {
                    pairs.push((rep(s), rep(d)));
                }
            }
        }
        TrafficPattern::Tornado => {
            for s in 0..n {
                let d = match spec.topology {
                    ClusterTopology::Mesh { x, .. } if x > 1 => {
                        let (r, c) = (s / x, s % x);
                        r * x + (c + x / 2) % x
                    }
                    _ => (s + n / 2) % n,
                };
                if d != s {
                    pairs.push((rep(s), rep(d)));
                }
            }
        }
    }
    pairs
}

/// Delivery accounting for one flow of a workload run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowReport {
    pub src: usize,
    pub dst: usize,
    pub injected_packets: u64,
    pub delivered_bytes: u64,
    pub first_visible: SimTime,
    pub last_visible: SimTime,
}

impl FlowReport {
    /// Delivered goodput across the flow's active window, MB/s.
    pub fn goodput_mbps(&self) -> f64 {
        let span = self.last_visible.since(self.first_visible).picos();
        if span == 0 {
            return 0.0;
        }
        self.delivered_bytes as f64 / (span as f64 / 1e12) / 1e6
    }
}

/// Result of one [`SimCluster::run_workload`](crate::sim::SimCluster::run_workload).
///
/// Derives `Eq`: two reports are equal iff every counter, timestamp and
/// per-flow record matches exactly — which is what the determinism suite
/// asserts across thread counts and wire lanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadReport {
    pub flows: Vec<FlowReport>,
    /// Transmitter stalls for want of a credit — nonzero under load iff
    /// flow control engaged.
    pub stalls_no_credit: u64,
    /// Events the engine handled.
    pub events: u64,
    /// Simulated completion time of the whole workload.
    pub elapsed: SimTime,
    pub injected_packets: u64,
    pub delivered_packets: u64,
}

impl WorkloadReport {
    pub fn lost_packets(&self) -> u64 {
        self.injected_packets.saturating_sub(self.delivered_packets)
    }

    /// Aggregate delivered goodput over the run, MB/s.
    pub fn aggregate_goodput_mbps(&self) -> f64 {
        let bytes: u64 = self.flows.iter().map(|f| f.delivered_bytes).sum();
        bytes as f64 / (self.elapsed.picos() as f64 / 1e12) / 1e6
    }
}

/// Run a single closed-loop flow of `packets` 64 B posted writes over a
/// freshly booted two-supernode platform with `config` as the TCC cable,
/// returning delivered goodput in MB/s. This is the cross-validation
/// primitive: the chained model's analytic expectation for the same wire
/// is `config.effective_bytes_per_sec() * 64 / 72`.
pub fn stream_goodput(config: tcc_ht::link::LinkConfig, packets: u64) -> f64 {
    stream_goodput_with_drain(config, packets, DEFAULT_DRAIN)
}

/// [`stream_goodput`] with an explicit receiver drain latency — a slow
/// receiver collapses goodput to credits-per-round-trip, which is how the
/// tests prove flow control is live.
pub fn stream_goodput_with_drain(
    config: tcc_ht::link::LinkConfig,
    packets: u64,
    drain: Duration,
) -> f64 {
    let (mut platform, mut engine) = booted_pair_engine(config, drain);
    engine.add_flow(&mut platform, 0, 1, packets * 64);
    engine.run_quiescent(&mut platform);
    assert_eq!(engine.commits().len() as u64, packets, "lost packets");
    engine.assert_quiescent_credits();
    let last = engine
        .commits()
        .iter()
        .map(|c| c.visible)
        .max()
        .expect("at least one packet");
    (packets * 64) as f64 / (last.picos() as f64 / 1e12) / 1e6
}

/// A booted paper-prototype pair plus a fresh engine over it, with node
/// pipelines quiesced so the measurement epoch starts at time zero.
fn booted_pair_engine(
    config: tcc_ht::link::LinkConfig,
    drain: Duration,
) -> (Platform, EventEngine) {
    booted_pair_engine_with(config, drain, EngineOptions::default())
}

/// [`booted_pair_engine`] with explicit executive options.
fn booted_pair_engine_with(
    config: tcc_ht::link::LinkConfig,
    drain: Duration,
    options: EngineOptions,
) -> (Platform, EventEngine) {
    use tcc_firmware::topology::SupernodeSpec;
    let spec = ClusterSpec::new(SupernodeSpec::new(1, 1 << 20), ClusterTopology::Pair);
    let mut platform = Platform::assemble(spec, tcc_opteron::UarchParams::shanghai());
    platform.tcc_target = config;
    let _ = tcc_firmware::tcc_boot::boot(&mut platform);
    for node in &mut platform.nodes {
        node.quiesce();
    }
    let engine = EventEngine::with_options(&mut platform, drain, options);
    (platform, engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcc_ht::link::LinkConfig;

    #[test]
    fn drain_scheduling_saturates_at_the_never_sentinel() {
        // `schedule_drain` advances the per-node drain clock with
        // `start + self.drain`; that `+` is the blessed SimTime/Duration
        // operator, which saturates so SimTime::MAX ("never") stays
        // absorbing instead of wrapping the drain-free clock into the
        // past. Exercise exactly the arithmetic the scheduler performs.
        let drain = DEFAULT_DRAIN;
        let start = SimTime::MAX.max(SimTime(123));
        assert_eq!(start + drain, SimTime::MAX);
        // A near-MAX clock saturates rather than wrapping below `now`.
        let near = SimTime(u64::MAX - 1) + drain;
        assert_eq!(near, SimTime::MAX);
        assert!(near >= SimTime(u64::MAX - 1));
        // The epoch-horizon guard arithmetic survives the sentinel too.
        assert_eq!(SimTime::MAX + Duration(1_000), SimTime::MAX);
    }

    #[test]
    fn closed_loop_delivers_everything() {
        let bw = stream_goodput(LinkConfig::PROTOTYPE, 2_000);
        // 64 B goodput behind 72 wire bytes at ~3.175 GB/s ≈ 2.82 GB/s;
        // with real credit stalls it must stay within ~10% of that.
        assert!(
            (2500.0..2850.0).contains(&bw),
            "credit-limited goodput = {bw:.0} MB/s"
        );
    }

    #[test]
    fn credits_actually_bind_under_slow_drain() {
        // A receiver that takes 200 ns per packet drains far slower than
        // the wire delivers: the 8-credit pools empty, the transmitter
        // genuinely stalls, and goodput collapses toward
        // credits-per-round-trip instead of wire rate.
        let slow = stream_goodput_with_drain(LinkConfig::PROTOTYPE, 500, Duration::from_nanos(200));
        assert!(
            slow < 600.0,
            "slow drain must collapse goodput: {slow:.0} MB/s"
        );
        let fast = stream_goodput(LinkConfig::PROTOTYPE, 500);
        assert!(
            fast > slow * 3.0,
            "line-rate drain {fast:.0} vs slow drain {slow:.0} MB/s"
        );
    }

    #[test]
    fn slow_drain_engages_flow_control_without_loss() {
        let (mut platform, mut engine) =
            booted_pair_engine(LinkConfig::PROTOTYPE, Duration::from_nanos(200));
        engine.add_flow(&mut platform, 0, 1, 500 * 64);
        engine.run_quiescent(&mut platform);
        assert!(engine.stalls_no_credit() > 0, "flow control never engaged");
        assert_eq!(engine.commits().len(), 500, "lost packets");
        engine.assert_quiescent_credits();
    }

    #[test]
    fn event_engine_agrees_with_channel_model() {
        // The event engine's wire-rate goodput must agree with the
        // analytic expectation used throughout the chained-channel model.
        let bw = stream_goodput(LinkConfig::PROTOTYPE, 5_000);
        let wire = LinkConfig::PROTOTYPE.effective_bytes_per_sec() as f64;
        let expected = wire * 64.0 / 72.0 / 1e6;
        let err = (bw - expected).abs() / expected;
        assert!(
            err < 0.10,
            "event engine {bw:.0} vs model {expected:.0} MB/s"
        );
    }

    #[test]
    fn faster_link_scales_goodput_until_credits_bind() {
        let slow = stream_goodput(LinkConfig::PROTOTYPE, 2_000);
        let fast = stream_goodput(LinkConfig::HT3_FULL, 2_000);
        // At HT800 the wire is the bottleneck (~2.8 GB/s goodput). At HT3
        // the wire would do ~9 GB/s, but the 8-entry credit pools and the
        // 3-credit-per-NOP return rate bind first: goodput improves ~1.6x,
        // not 3.3x. (Real HT3 parts grew their buffer counts for exactly
        // this reason.)
        assert!(
            fast > slow * 1.4,
            "HT3 should still beat HT800: {slow:.0} -> {fast:.0}"
        );
        assert!(
            fast < slow * 2.5,
            "credits should bind well below the 3.3x wire ratio: {fast:.0}"
        );
    }

    #[test]
    fn pattern_pairs_cover_the_mesh() {
        use tcc_firmware::topology::SupernodeSpec;
        let spec = ClusterSpec::new(
            SupernodeSpec::new(2, 1 << 20),
            ClusterTopology::Mesh { x: 2, y: 2 },
        );
        assert_eq!(pattern_pairs(&spec, TrafficPattern::AllToAll).len(), 12);
        assert_eq!(
            pattern_pairs(&spec, TrafficPattern::Hotspot { target: 0 }).len(),
            3
        );
        // Every supernode in a 2x2 mesh has exactly two neighbours.
        assert_eq!(pattern_pairs(&spec, TrafficPattern::Halo).len(), 8);
        let single = pattern_pairs(&spec, TrafficPattern::Single { src: 0, dst: 3 });
        assert_eq!(single, vec![(spec.proc_index(0, 0), spec.proc_index(3, 0))]);
    }

    #[test]
    fn transpose_and_tornado_patterns() {
        use tcc_firmware::topology::SupernodeSpec;
        let spec = ClusterSpec::new(
            SupernodeSpec::new(2, 1 << 20),
            ClusterTopology::Mesh { x: 4, y: 4 },
        );
        // Transpose on a 4x4 mesh: the 4 diagonal supernodes sit still,
        // the other 12 stream; the map is an involution. pattern_pairs
        // returns global node indices (processor 0 of each supernode).
        let t = pattern_pairs(&spec, TrafficPattern::Transpose);
        assert_eq!(t.len(), 12);
        for &(a, b) in &t {
            assert!(t.contains(&(b, a)), "transpose must be an involution");
            let (s, d) = (a / 2, b / 2);
            let (r, c) = (s / 4, s % 4);
            assert_eq!(d, c * 4 + r);
        }
        // Tornado on a 4x4 mesh: every supernode streams 2 columns right
        // within its own row.
        let t = pattern_pairs(&spec, TrafficPattern::Tornado);
        assert_eq!(t.len(), 16);
        for &(a, b) in &t {
            let (s, d) = (a / 2, b / 2);
            assert_eq!(s / 4, d / 4, "tornado stays in its row");
            assert_eq!(d % 4, (s % 4 + 2) % 4);
        }
    }

    /// The per-flow rescan that `flow_reports` replaced: every flow tests
    /// every commit in the log against its window, O(flows × commits).
    /// Kept only as the oracle for the one-pass attribution.
    fn flow_reports_by_rescan(engine: &EventEngine) -> Vec<FlowReport> {
        engine
            .flow_dir
            .iter()
            .map(|&(sid, lidx)| {
                let f = &engine.shards[sid as usize].flows[lidx as usize];
                let mut delivered = 0u64;
                let mut first = SimTime::MAX;
                let mut last = SimTime::ZERO;
                for c in &engine.commits_log {
                    if c.node as usize == f.dst
                        && c.offset >= f.win_off
                        && c.offset < f.win_off + f.window
                    {
                        delivered += u64::from(c.bytes);
                        first = first.min(c.visible);
                        last = last.max(c.visible);
                    }
                }
                if delivered == 0 {
                    first = SimTime::ZERO;
                }
                FlowReport {
                    src: f.src,
                    dst: f.dst,
                    injected_packets: f.injected,
                    delivered_bytes: delivered,
                    first_visible: first,
                    last_visible: last,
                }
            })
            .collect()
    }

    /// One-pass attribution agrees with the rescan oracle on a 4×4
    /// all-to-all at t1 and t2, after a second round of flows on the same
    /// engine (commits of two runs in the log), with stray posted writes
    /// outside every flow window in the log too.
    #[test]
    fn one_pass_attribution_matches_the_rescan() {
        const BYTES: u64 = 2 << 10;
        for threads in [1usize, 2] {
            let mut platform = crate::TcclusterBuilder::new()
                .topology(ClusterTopology::Mesh { x: 4, y: 4 })
                .processors_per_supernode(2)
                .build_sim()
                .platform;
            for node in &mut platform.nodes {
                node.quiesce();
                node.raw_egress = true;
            }
            let options = EngineOptions {
                threads,
                profile_clock: None,
            };
            let mut engine = EventEngine::with_options(&mut platform, DEFAULT_DRAIN, options);
            let spec = platform.spec;
            let pairs = pattern_pairs(&spec, TrafficPattern::AllToAll);
            for &(src, dst) in &pairs {
                engine.add_flow(&mut platform, src, dst, BYTES);
            }
            engine.run_quiescent(&mut platform);
            let first = engine.flow_reports();
            assert_eq!(first.len(), 16 * 15);
            assert_eq!(
                first,
                flow_reports_by_rescan(&engine),
                "t{threads}, one run"
            );

            for &(src, dst) in &pairs {
                engine.add_flow(&mut platform, src, dst, BYTES);
            }
            // Node 1 (processor 1 of supernode 0) gets no flows; node 2
            // gets one window per source and round. Land a write in node
            // 2's ring area, one just past its last window, and one in
            // node 1 at the first window offset.
            let strays = [(2, 0x100), (2, engine.win_next[2]), (1, WIN_BASE)];
            for (dst, offset) in strays {
                let (s, p) = (dst / engine.procs, dst % engine.procs);
                let packet = Packet::posted_write(
                    spec.node_base(s, p) + offset,
                    Bytes::from_static(&ZERO64),
                );
                let link = match platform.nodes[0].nb.dispose(&packet, Source::Core) {
                    Ok(Disposition::Forward { link }) => link,
                    other => panic!("stray write to node {dst} stays home: {other:?}"),
                };
                engine.inject_at(0, link, packet, engine.now());
            }
            let before = engine.commits().len();
            engine.run_quiescent(&mut platform);
            assert_eq!(
                engine.commits().len() - before,
                pairs.len() * 32 + strays.len()
            );
            let both = engine.flow_reports();
            assert_eq!(both.len(), 2 * pairs.len());
            assert_eq!(
                both[..first.len()],
                first[..],
                "t{threads}: round two moved round one"
            );
            assert!(both.iter().all(|r| r.delivered_bytes == BYTES));
            assert_eq!(
                both,
                flow_reports_by_rescan(&engine),
                "t{threads}, two runs"
            );
        }
    }

    /// An event at `SimTime::MAX` reads as an empty queue to the
    /// executive, so it used to be stranded while the run reported
    /// quiescence. It must fail as loudly as a run that never quiesces.
    #[test]
    #[should_panic(expected = "did not quiesce: shard 0 still holds 1 event(s) at SimTime::MAX")]
    fn an_event_at_the_never_sentinel_fails_quiescence() {
        let (mut platform, mut engine) = booted_pair_engine(LinkConfig::PROTOTYPE, DEFAULT_DRAIN);
        let (node, link) = engine.port_ids()[0];
        assert_eq!(node, 0);
        let packet = Packet::posted_write(0x1000, Bytes::from_static(&ZERO64));
        engine.inject_at(node, link, packet, SimTime::MAX);
        engine.run_quiescent(&mut platform);
    }

    /// The whole point of the conservative executive: running the two
    /// shards of a pair on two real threads must produce byte-for-byte
    /// the commits, clock, event count and epoch count of one worker
    /// running both. Profiling is not a semantic either: the profiled
    /// instantiation gives the same results and fills every stage.
    #[test]
    fn runs_are_bit_identical_across_thread_counts() {
        // A deterministic stand-in for a wall clock: every read advances.
        fn counter_clock() -> u64 {
            static NOW: AtomicU64 = AtomicU64::new(0);
            NOW.fetch_add(1, Ordering::Relaxed)
        }
        let run = |options: EngineOptions| {
            let (mut platform, mut engine) =
                booted_pair_engine_with(LinkConfig::PROTOTYPE, DEFAULT_DRAIN, options);
            engine.add_flow(&mut platform, 0, 1, 300 * 64);
            engine.add_flow(&mut platform, 1, 0, 300 * 64);
            engine.run_quiescent(&mut platform);
            engine.assert_quiescent_credits();
            let outcome = (
                engine.commits().to_vec(),
                engine.now(),
                engine.events_handled(),
                engine.flow_reports(),
                engine.epochs(),
            );
            (outcome, engine.stage_profile())
        };
        let (baseline, _) = run(EngineOptions::default());
        for threads in [1, 2, 4] {
            for profile_clock in [None, Some(counter_clock as fn() -> u64)] {
                let (got, p) = run(EngineOptions {
                    threads,
                    profile_clock,
                });
                let profiled = profile_clock.is_some();
                assert_eq!(
                    got, baseline,
                    "{threads} threads (profiled: {profiled}) diverged from one unprofiled worker"
                );
                if profiled {
                    assert!(
                        [
                            p.queue_ns,
                            p.mailbox_ns,
                            p.exec_ns,
                            p.route_ns,
                            p.credit_ns,
                            p.deliver_ns,
                            p.sampled_events,
                        ]
                        .iter()
                        .all(|&v| v > 0),
                        "{threads} threads: a stage stayed empty: {p:?}"
                    );
                    assert_eq!(p.profiled_events, baseline.2);
                } else {
                    // Unprofiled runs count productive visits and nothing else.
                    assert!(p.epochs > 0, "{threads} threads: no visit counted");
                    assert_eq!(
                        p,
                        StageProfile {
                            epochs: p.epochs,
                            ..StageProfile::default()
                        },
                        "{threads} threads: an unprofiled run filled a timing field"
                    );
                }
            }
        }
    }

    /// The dense port table on the perfbench shape, a 4×4 mesh with two
    /// processors per supernode (corner, edge and interior supernodes):
    /// exactly the trained wire ends in ascending (node, link) order, each
    /// pointing at its far end, and one lane per trained in-wire plus one
    /// drain lane per node. The cross-shard transport is sized by the
    /// cut: one ring per directed pair of neighbouring supernodes, each
    /// shard's outboxes and in-rings matching the peer shards of its cut
    /// wires.
    #[test]
    fn port_table_holds_exactly_the_trained_wire_ends() {
        let mut platform = crate::TcclusterBuilder::new()
            .topology(ClusterTopology::Mesh { x: 4, y: 4 })
            .processors_per_supernode(2)
            .build_sim()
            .platform;
        let engine =
            EventEngine::with_options(&mut platform, DEFAULT_DRAIN, EngineOptions::default());
        let procs = 2;
        let mut trained = Vec::new();
        for node in 0..platform.nodes.len() {
            for l in 0..LINKS_PER_NODE {
                let link = LinkId(l as u8);
                match platform.route_hop(node, link) {
                    Some((peer, peer_link, coherent)) => {
                        trained.push((node, link));
                        let port = engine.port(node, link).expect("trained end has a port");
                        assert_eq!(port.peer(), (peer, peer_link));
                        assert_eq!(port.coherent(), coherent);
                    }
                    None => assert!(engine.port(node, link).is_none(), "n{node} l{l}"),
                }
            }
        }
        assert_eq!(engine.port_ids(), trained);
        let mut wired: Vec<usize> = Vec::new();
        for (sid, shard) in engine.shards.iter().enumerate() {
            let in_wires = trained.iter().filter(|(n, _)| n / procs == sid).count();
            wired.push(in_wires);
            assert_eq!(shard.queue.lane_count(), in_wires + procs, "shard {sid}");
            for (p, port) in shard.ports.iter().enumerate() {
                let far = &engine.shards[port.peer_shard as usize].ports[port.peer_port];
                assert_eq!((far.peer_shard, far.peer_port), (shard.id, p));
            }
        }
        wired.sort_unstable();
        wired.dedup();
        assert_eq!(wired, [4, 5, 6], "corner, edge and interior supernodes");

        // One ring per directed neighbour pair (12 pairs along x and 12
        // along y), each published into by one shard and drained by one.
        let all: Vec<u32> = (0..48).collect();
        for peers in [
            |s: &Shard| s.out_peers.clone(),
            |s: &Shard| s.in_peers.clone(),
        ] {
            let mut rings: Vec<u32> = engine.shards.iter().flat_map(peers).collect();
            rings.sort_unstable();
            assert_eq!(rings, all);
        }
        assert_eq!(engine.rings.len(), 48);
        let into = |r: &u32| engine.shards.iter().position(|s| s.in_peers.contains(r));
        let from = |r: &u32| engine.shards.iter().position(|s| s.out_peers.contains(r));
        for (sid, shard) in engine.shards.iter().enumerate() {
            let peer =
                |p: &PortState| (p.peer_shard as usize != sid).then_some(p.peer_shard as usize);
            let mut cut: Vec<usize> = shard.ports.iter().filter_map(peer).collect();
            cut.sort_unstable();
            cut.dedup();
            let outs: Vec<_> = shard.out_peers.iter().filter_map(into).collect();
            let ins: Vec<_> = shard.in_peers.iter().filter_map(from).collect();
            assert_eq!(
                (&outs, &ins, shard.outbox.len()),
                (&cut, &cut, cut.len()),
                "shard {sid}"
            );
            for port in &shard.ports {
                let ring = port.outbox.map(|i| shard.out_peers[i as usize]);
                assert_eq!(ring.and_then(|r| into(&r)), peer(port), "shard {sid}");
            }
        }
    }
}
