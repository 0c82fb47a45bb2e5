//! The assembled Opteron node: core store path (issue → MTRR → WC →
//! absorption), northbridge, memory controller and four HT links.
//!
//! The node is a *timed functional* model: every operation moves real bytes
//! and returns the simulated times at which effects become visible. The
//! cluster layer wires nodes' links together and turns emitted
//! [`Action`]s into events.
//!
//! The store/deliver path is allocation-free in steady state: callers
//! provide a reusable [`ActionSink`], packet payloads come from a per-node
//! [`PayloadPool`], and a message's cells can be
//! issued with [`Node::store_burst`] calls, one per window of cells,
//! instead of a store-per-cell driver loop.

use crate::mem::MemoryController;
use crate::mtrr::{MemType, Mtrrs};
use crate::nb::{Disposition, FlatPlan, NbError, Northbridge, Source};
use crate::params::UarchParams;
use crate::pool::PayloadPool;
use crate::regs::{LinkId, NodeId, NodeRegs, LINKS_PER_NODE};
use crate::wc::{Flush, WcBuffers};
use std::collections::VecDeque;
use std::ops::Range;
use tcc_fabric::channel::Channel;
use tcc_fabric::protocol_violation;
use tcc_fabric::time::{Duration, SimTime};
use tcc_ht::link::{Delivery, LinkConfig, LinkTx};
use tcc_ht::packet::Packet;

/// An externally visible consequence of a node operation.
#[derive(Debug, Clone)]
pub enum Action {
    /// A packet left on `link`; it arrives at the far end at `arrival`.
    PacketOut {
        link: LinkId,
        packet: Packet,
        arrival: SimTime,
    },
    /// Data was committed to local DRAM, visible to polls at `visible`.
    LocalCommit { offset: u64, visible: SimTime },
    /// A broadcast was filtered (interrupt kept inside the node).
    BroadcastFiltered,
}

/// What the northbridge decided about one delivered packet — the routed
/// form of [`Node::deliver`] for engines that own the wire themselves and
/// must see a forward *before* it is transmitted.
#[derive(Debug)]
pub enum DeliverOutcome {
    /// The packet landed in local DRAM.
    Committed { offset: u64, visible: SimTime },
    /// The packet must leave again on `link`, entering that transmitter
    /// no earlier than `at` (crossbar forward latency paid).
    Forward {
        link: LinkId,
        packet: Packet,
        at: SimTime,
    },
    /// A broadcast was filtered (kept inside the node).
    Filtered,
}

/// Outcome of the flat fast lane ([`Node::deliver_flat`]). Unlike
/// [`DeliverOutcome`] it carries no packet: the caller classified the
/// packet, keeps ownership, and only needed the routing decision and
/// timing. Flat traffic is posted writes only, so `Filtered` cannot occur.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlatOutcome {
    /// The line landed in local DRAM.
    Committed { offset: u64, visible: SimTime },
    /// The line must leave again on `link` no earlier than `at`.
    Forward { link: LinkId, at: SimTime },
}

/// Caller-provided scratch buffer collecting the [`Action`]s of one or
/// more node operations. Reusing one sink across a whole message (or a
/// whole benchmark loop) keeps the store path free of heap allocation.
#[derive(Debug, Default)]
pub struct ActionSink {
    actions: Vec<Action>,
}

impl ActionSink {
    pub fn new() -> Self {
        ActionSink::default()
    }

    pub fn clear(&mut self) {
        self.actions.clear();
    }

    pub fn len(&self) -> usize {
        self.actions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    pub fn push(&mut self, action: Action) {
        self.actions.push(action);
    }

    pub fn as_slice(&self) -> &[Action] {
        &self.actions
    }

    /// Drain the collected actions in emission (FIFO) order.
    pub fn drain(&mut self) -> std::vec::Drain<'_, Action> {
        self.actions.drain(..)
    }
}

/// Result of issuing a store (or a burst of them).
#[derive(Debug, Clone, Copy)]
pub struct StoreOutcome {
    /// When the core may issue its next store: issue-stage time including
    /// store-queue backpressure. A streaming loop chains on this.
    pub issued: SimTime,
    /// When the store's data was accepted by the on-chip buffering — the
    /// time a sender-side benchmark observes for its last store. For
    /// `sfence` this is when the fence completes.
    pub retire: SimTime,
}

/// Shape of a [`Node::store_burst`]: a message as the paper's send loops
/// issue it — fixed-size payload cells at a fixed stride, an optional
/// trailing header store per cell, and the fence policy of the selected
/// ordering mode.
#[derive(Debug, Clone, Copy)]
pub struct BurstPattern {
    /// Payload bytes per cell (64 for ring cells, 8 for the UC ablation).
    pub cell_payload: usize,
    /// Address stride between consecutive cells (72 for ring cells with
    /// their headers, 64 for rendezvous lines).
    pub cell_stride: u64,
    /// Header store appended at `cell_payload` into each cell (0 = none).
    pub header_bytes: usize,
    /// Fill byte for payload stores.
    pub payload_fill: u8,
    /// Fill byte for header stores.
    pub header_fill: u8,
    /// Issue an `sfence` after every N cells, advancing the issue clock to
    /// the fence's retire (0 = never). 1 is the paper's strictly ordered
    /// mechanism.
    pub fence_every: usize,
    /// Issue one trailing `sfence` after the last cell without advancing
    /// the issue clock (the weakly ordered "push the tail out" fence).
    pub final_fence: bool,
    /// Wrap cell addresses at `base + wrap_bytes` (0 = no wrap); used by
    /// rendezvous payloads lapping their landing zone.
    pub wrap_bytes: u64,
}

impl BurstPattern {
    /// Cells a `len`-byte message occupies. At least one: a zero-length
    /// message still issues its header store.
    pub fn cells(&self, len: usize) -> usize {
        len.div_ceil(self.cell_payload).max(1)
    }
}

/// One simulated Opteron package.
#[derive(Debug)]
pub struct Node {
    pub params: UarchParams,
    pub regs: NodeRegs,
    pub nb: Northbridge,
    pub mem: MemoryController,
    pub mtrrs: Mtrrs,
    wc: WcBuffers,
    links: [Option<LinkTx>; LINKS_PER_NODE],
    /// Store-issue rate limiter (the copy loop reading its source).
    issue: Channel,
    /// On-chip burst absorption stage (store queue + SRQ + downstream
    /// buffering; the Fig. 6 artifact).
    absorb: Channel,
    /// Wire-entry times of absorbed lines, for capacity backpressure.
    inflight: VecDeque<SimTime>,
    inflight_bytes: u64,
    /// Recycled packet payload slabs.
    pool: PayloadPool,
    /// Scratch for WC flushes drained by one store/fence.
    flush_scratch: Vec<Flush>,
    /// Scratch for link deliveries pumped by one disposition.
    dels_scratch: Vec<Delivery>,
    /// Memoised store-queue headroom keyed on its inputs (computing it
    /// involves an exact `u128` division, far too costly per store).
    sq_headroom_memo: (u64, u64, Duration),
    /// If set, the transmit path bypasses the node's `LinkTx` and emits
    /// the packet at its northbridge-exit time: an external
    /// fabric engine owns wire serialisation, credits and arrival timing
    /// per hop, so the node must not serialise (or gate on credits) a
    /// second time.
    pub raw_egress: bool,
}

impl Node {
    pub fn new(node_id: NodeId, dram_capacity: usize, params: UarchParams) -> Self {
        let issue = Channel::new(Duration::ZERO, params.store_issue_bytes_per_sec);
        let absorb = Channel::new(Duration::ZERO, params.absorb_bytes_per_sec);
        let mem = MemoryController::new(dram_capacity, &params);
        let wc = WcBuffers::new(params.wc_buffers, params.wc_buffer_bytes);
        let flush_scratch = Vec::with_capacity(params.wc_buffers + 1);
        Node {
            nb: Northbridge::new(node_id),
            regs: NodeRegs::power_on(),
            mem,
            mtrrs: Mtrrs::new(),
            wc,
            links: [None, None, None, None],
            issue,
            absorb,
            inflight: VecDeque::new(),
            inflight_bytes: 0,
            pool: PayloadPool::new(),
            flush_scratch,
            dels_scratch: Vec::new(),
            sq_headroom_memo: (0, 0, Duration::ZERO),
            params,
            raw_egress: false,
        }
    }

    pub fn node_id(&self) -> NodeId {
        self.nb.node_id
    }

    /// Attach (or reconfigure) a link transmitter.
    pub fn attach_link(&mut self, link: LinkId, config: LinkConfig, seed: u64) {
        self.links[link.0 as usize] = Some(LinkTx::new(config, seed));
    }

    pub fn link(&self, link: LinkId) -> Option<&LinkTx> {
        self.links[link.0 as usize].as_ref()
    }

    pub fn link_mut(&mut self, link: LinkId) -> Option<&mut LinkTx> {
        self.links[link.0 as usize].as_mut()
    }

    /// Time by which the issue stage may run ahead of the absorption
    /// stage — the store queue's worth of buffering.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    fn sq_headroom(&mut self) -> Duration {
        let bytes = (self.params.srq_entries * self.params.wc_buffer_bytes) as u64;
        let rate = self.params.absorb_bytes_per_sec;
        if self.sq_headroom_memo.0 != bytes || self.sq_headroom_memo.1 != rate {
            self.sq_headroom_memo = (
                bytes,
                rate,
                Duration(tcc_fabric::channel::serialization_ps(bytes, rate)),
            );
        }
        self.sq_headroom_memo.2
    }

    /// Issue a store of `data` to global address `addr` at `now`,
    /// appending any externally visible consequences to `sink`.
    ///
    /// Stages pipeline: the returned `issued` (issue stage, gated by the
    /// store queue) is where a streaming loop chains its next store, while
    /// downstream stages (WC flush → absorption → northbridge → wire)
    /// proceed concurrently, each modelled by a busy-tracking channel.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    pub fn store(
        &mut self,
        now: SimTime,
        addr: u64,
        data: &[u8],
        sink: &mut ActionSink,
    ) -> StoreOutcome {
        // Store-queue backpressure: issue may lead absorption only by the
        // queue's drain time.
        let headroom = self.sq_headroom();
        let gate = SimTime(
            self.absorb
                .next_free()
                .picos()
                .saturating_sub(headroom.picos()),
        );
        let issued = self.issue.transfer(now.max(gate), data.len() as u64).sent;

        match self.mtrrs.resolve_span(addr, data.len() as u64) {
            MemType::WriteCombining => {
                let mut flushes = std::mem::take(&mut self.flush_scratch);
                flushes.clear();
                self.wc.store(addr, data, &mut flushes);
                let mut retire = issued;
                for f in &flushes {
                    retire = retire.max(self.emit_flush(issued, f, sink));
                }
                self.flush_scratch = flushes;
                StoreOutcome { issued, retire }
            }
            MemType::Uncacheable => {
                // UC stores bypass WC and are strongly ordered: issue one
                // packet/commit per store, serialised.
                let line_mask = self.params.wc_buffer_bytes as u64 - 1;
                let line_addr = addr & !line_mask;
                let off = (addr & line_mask) as usize;
                let retire = self.emit_runs(
                    issued,
                    line_addr,
                    data.len() as u64,
                    once_run(off, data),
                    sink,
                );
                StoreOutcome {
                    issued: retire,
                    retire,
                }
            }
            MemType::WriteBack => {
                // Ordinary cacheable store: local memory only. (A WB store
                // to a remote-mapped address would be a firmware bug; the
                // dispose path will reject it if it is not local DRAM.)
                let retire = self.commit_or_send(
                    issued,
                    addr & !63,
                    once_run((addr & 63) as usize, data),
                    sink,
                );
                StoreOutcome { issued, retire }
            }
        }
    }

    /// `sfence`: drain WC buffers, wait for all previously flushed stores
    /// to be accepted downstream, pay the serialisation cost, and return
    /// when the core may proceed.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    pub fn sfence(&mut self, now: SimTime, sink: &mut ActionSink) -> StoreOutcome {
        let mut drained = std::mem::take(&mut self.flush_scratch);
        drained.clear();
        self.wc.fence(&mut drained);
        // Serialises on *all* prior stores: earlier flushes still queued in
        // the absorption stage hold the fence too.
        let mut retire = now.max(self.absorb.next_free());
        for f in &drained {
            retire = retire.max(self.emit_flush(now, f, sink));
        }
        self.flush_scratch = drained;
        retire += self.params.sfence_drain;
        StoreOutcome {
            issued: retire,
            retire,
        }
    }

    /// Issue cells `cells` of a message: `len` payload bytes split into
    /// `pattern.cell_payload`-sized cells at `pattern.cell_stride`,
    /// optionally followed by a per-cell header store, fenced per the
    /// pattern. The issue clock chains through every store exactly as a
    /// caller looping over [`store`](Self::store)/[`sfence`](Self::sfence)
    /// would chain it, so timing is identical — but the driver loop, its
    /// per-cell payload buffers, and its per-store action vectors are gone.
    ///
    /// `cells` is a window of `0..pattern.cells(len)`. A caller may issue
    /// a message in consecutive windows, chaining each on the previous
    /// window's `issued` and draining `sink` in between: cell addresses,
    /// chunk sizes and fences depend on the absolute cell index, and the
    /// `final_fence` fires only with the window that holds the last cell.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    pub fn store_burst(
        &mut self,
        now: SimTime,
        base: u64,
        pattern: &BurstPattern,
        len: usize,
        cells: Range<usize>,
        sink: &mut ActionSink,
    ) -> StoreOutcome {
        let cp = pattern.cell_payload;
        assert!(cp > 0 && cp <= 64, "cells are at most one line");
        assert!(pattern.header_bytes <= 8, "headers are at most 8 B");
        let total = pattern.cells(len);
        assert!(cells.end <= total, "cell window past the message");
        let last = cells.contains(&(total - 1));
        let payload = [pattern.payload_fill; 64];
        let header = [pattern.header_fill; 8];
        let mut now = now;
        let mut retire = now;
        for c in cells {
            let lane = (c as u64) * pattern.cell_stride;
            let cell_base = if pattern.wrap_bytes > 0 {
                base + lane % pattern.wrap_bytes
            } else {
                base + lane
            };
            let chunk = cp.min(len - (c * cp).min(len));
            if chunk > 0 {
                let out = self.store(now, cell_base, &payload[..chunk], sink);
                now = out.issued;
                retire = retire.max(out.retire);
            }
            if pattern.header_bytes > 0 {
                let out = self.store(
                    now,
                    cell_base + cp as u64,
                    &header[..pattern.header_bytes],
                    sink,
                );
                now = out.issued;
                retire = retire.max(out.retire);
            }
            if pattern.fence_every > 0 && (c + 1) % pattern.fence_every == 0 {
                let f = self.sfence(now, sink);
                now = f.retire;
                retire = retire.max(f.retire);
            }
        }
        if pattern.final_fence && last {
            let f = self.sfence(now, sink);
            retire = retire.max(f.retire);
        }
        StoreOutcome {
            issued: now,
            retire,
        }
    }

    /// Turn one WC flush into packets/commits. Returns the retire time —
    /// when the absorption stage accepted the data; the packet cuts
    /// through to the northbridge at absorption *start*.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    fn emit_flush(&mut self, at: SimTime, flush: &Flush, sink: &mut ActionSink) -> SimTime {
        self.emit_runs(
            at,
            flush.line_addr,
            flush.payload_bytes() as u64,
            flush.runs(),
            sink,
        )
    }

    /// Absorption-stage accounting shared by WC flushes and UC stores.
    /// `bytes` must equal the total length of `runs`.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    fn emit_runs<'a>(
        &mut self,
        at: SimTime,
        line_addr: u64,
        bytes: u64,
        runs: impl Iterator<Item = (usize, &'a [u8])>,
        sink: &mut ActionSink,
    ) -> SimTime {
        let t_wc = at + self.params.wc_flush;
        // Absorption-window backpressure: acceptance stalls until the
        // oldest absorbed line has reached the wire.
        let mut gate = t_wc;
        while self.inflight_bytes + bytes > self.params.absorb_capacity_bytes {
            // inflight_bytes > 0 implies a tracked arrival; an empty
            // deque just means nothing is left to wait on.
            let Some(oldest) = self.inflight.pop_front() else {
                break;
            };
            self.inflight_bytes -= self.params.wc_buffer_bytes as u64;
            gate = gate.max(oldest);
        }
        let tr = self.absorb.transfer(gate, bytes);
        let before = sink.len();
        let wire_time = self.commit_or_send(tr.start, line_addr, runs, sink);
        // Track in-flight for capacity backpressure (only traffic that
        // leaves on a link occupies the window; local commits drain fast).
        if sink.as_slice()[before..]
            .iter()
            .any(|a| matches!(a, Action::PacketOut { .. }))
        {
            self.inflight.push_back(wire_time);
            self.inflight_bytes += self.params.wc_buffer_bytes as u64;
        }
        tr.sent
    }

    /// Dispose runs of bytes at `line_addr` through the northbridge: local
    /// commit or posted-write packets out a link. Returns the time the
    /// last packet entered the wire / commit finished.
    fn commit_or_send<'a>(
        &mut self,
        at: SimTime,
        line_addr: u64,
        runs: impl Iterator<Item = (usize, &'a [u8])>,
        sink: &mut ActionSink,
    ) -> SimTime {
        let mut done = at;
        for (off, bytes) in runs {
            let addr = line_addr + off as u64;
            let pkt = Packet::posted_write(addr, self.pool.alloc(bytes));
            match self.nb.dispose(&pkt, Source::Core) {
                Ok(Disposition::LocalMemory { offset, .. }) => {
                    let visible = self.mem.write(at + self.params.nb_tx, offset, bytes);
                    done = done.max(visible);
                    sink.push(Action::LocalCommit { offset, visible });
                }
                Ok(Disposition::Forward { link }) => {
                    let t_nb = at + self.params.nb_tx;
                    done = done.max(self.transmit(link, pkt, t_nb, sink));
                }
                Ok(Disposition::Filtered { .. }) => sink.push(Action::BroadcastFiltered),
                Err(e) => protocol_violation!("store to {addr:#x} unroutable: {e:?}"),
            }
        }
        done
    }

    /// Enqueue `pkt` on `link`, pump the transmitter at `t`, return each
    /// delivery's credits at once (this path models a receiver draining
    /// at line rate; an engine that models credits sets `raw_egress`),
    /// and sink a `PacketOut` per delivery. Returns the latest arrival
    /// time.
    fn transmit(
        &mut self,
        link: LinkId,
        pkt: Packet,
        t: SimTime,
        sink: &mut ActionSink,
    ) -> SimTime {
        if self.raw_egress {
            sink.push(Action::PacketOut {
                link,
                packet: pkt,
                arrival: t,
            });
            return t;
        }
        let mut dels = std::mem::take(&mut self.dels_scratch);
        dels.clear();
        let Some(tx) = self.links[link.0 as usize].as_mut() else {
            protocol_violation!("packet routed to unattached link {link:?}");
        };
        tx.send_into(t, pkt, &mut dels);
        for d in &dels {
            let mut ret = tcc_ht::flow::CreditReturn::default();
            ret.cmd[d.packet.vc().index()] = 1;
            if !d.packet.data.is_empty() {
                ret.data[d.packet.vc().index()] = 1;
            }
            if let Err(e) = tx.credit_return(ret) {
                protocol_violation!("auto-credit return out of step: {e}");
            }
        }
        let mut done = t;
        for d in dels.drain(..) {
            done = done.max(d.arrival);
            sink.push(Action::PacketOut {
                link,
                packet: d.packet,
                arrival: d.arrival,
            });
        }
        self.dels_scratch = dels;
        done
    }

    /// A packet arrives on `link` at `now` — the receive path. Follow-on
    /// consequences (DRAM commit, forwarded packets) are appended to
    /// `sink`.
    pub fn deliver(
        &mut self,
        now: SimTime,
        link: LinkId,
        packet: Packet,
        coherent: bool,
        sink: &mut ActionSink,
    ) -> Result<(), NbError> {
        match self.deliver_routed(now, link, packet, coherent)? {
            DeliverOutcome::Committed { offset, visible } => {
                sink.push(Action::LocalCommit { offset, visible });
            }
            DeliverOutcome::Forward {
                link: out,
                packet,
                at,
            } => {
                self.transmit(out, packet, at, sink);
            }
            DeliverOutcome::Filtered => sink.push(Action::BroadcastFiltered),
        }
        Ok(())
    }

    /// The receive path with the routing decision *returned* instead of
    /// acted on: a local commit happens here (DRAM timing is the node's),
    /// but a forward is handed back untransmitted so an event-driven
    /// fabric engine can put the packet on its own per-wire channel.
    pub fn deliver_routed(
        &mut self,
        now: SimTime,
        link: LinkId,
        packet: Packet,
        coherent: bool,
    ) -> Result<DeliverOutcome, NbError> {
        let src = Source::Link { id: link, coherent };
        match self.nb.dispose(&packet, src)? {
            Disposition::LocalMemory { offset, bridged } => {
                let lat = if bridged {
                    self.params.nb_rx // includes the IO bridge conversion
                } else {
                    self.params.xbar_forward
                };
                let visible = self.mem.write(now + lat, offset, &packet.data);
                Ok(DeliverOutcome::Committed { offset, visible })
            }
            Disposition::Forward { link: out } => Ok(DeliverOutcome::Forward {
                link: out,
                packet,
                at: now + self.params.xbar_forward,
            }),
            Disposition::Filtered { .. } => Ok(DeliverOutcome::Filtered),
        }
    }

    /// The flat fast lane of [`deliver_routed`](Self::deliver_routed):
    /// the routing decision was precomputed into `plan` (one
    /// [`FlatTable`](crate::nb::FlatTable) lookup at the caller), so only
    /// the timed effects remain — a straight line with no command match,
    /// no address-map walk, no routing-table hop. Statistics advance
    /// exactly as `dispose` would advance them, so counters stay identical
    /// whichever lane a packet took.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    pub fn deliver_flat(
        &mut self,
        now: SimTime,
        plan: FlatPlan,
        addr: u64,
        data: &[u8],
        bridged: bool,
    ) -> FlatOutcome {
        self.nb.requests_routed += 1;
        match plan {
            FlatPlan::Local { base, local_base } => {
                let lat = if bridged {
                    self.params.nb_rx
                } else {
                    self.params.xbar_forward
                };
                let offset = local_base + (addr - base);
                let visible = self.mem.write(now + lat, offset, data);
                FlatOutcome::Committed { offset, visible }
            }
            FlatPlan::Forward { link } => {
                self.nb.packets_forwarded += 1;
                FlatOutcome::Forward {
                    link,
                    at: now + self.params.xbar_forward,
                }
            }
        }
    }

    /// An uncached poll: read `len` bytes at local DRAM `offset`. Returns
    /// the bytes and the completion time (`now + uc_read`).
    pub fn uc_poll(&mut self, now: SimTime, offset: u64, len: usize) -> (Vec<u8>, SimTime) {
        (self.mem.peek(offset, len), now + self.params.uc_read)
    }

    /// Reset the node's dynamic pipeline state (between benchmark runs),
    /// keeping configuration (address map, MTRRs, link configs).
    pub fn quiesce(&mut self) {
        self.issue.reset();
        self.absorb.reset();
        self.inflight.clear();
        self.inflight_bytes = 0;
        self.mem.quiesce();
        for tx in self.links.iter_mut().flatten() {
            let cfg = tx.config;
            tx.warm_reset(cfg);
        }
        // Drop any residue held in WC buffers.
        let mut drained = std::mem::take(&mut self.flush_scratch);
        drained.clear();
        self.wc.fence(&mut drained);
        drained.clear();
        self.flush_scratch = drained;
    }
}

/// A single-run iterator for the UC/WB store paths (the run may be longer
/// than the remainder of the line; the packet carries it whole, exactly
/// as the pre-pool implementation did).
fn once_run(off: usize, data: &[u8]) -> impl Iterator<Item = (usize, &[u8])> + Clone {
    std::iter::once((off, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{symmetric, Route};
    use bytes::Bytes;

    const TCC: LinkId = LinkId(2);

    /// A node configured like paper Fig. 3 Node0: local DRAM 64 KB at
    /// global 0x1_0000, remote window above it out the TCC link.
    fn tcc_node() -> Node {
        let mut n = Node::new(NodeId(0), 1 << 20, UarchParams::shanghai());
        n.nb.addr_map
            .add_dram(0x1_0000, 0x2_0000, NodeId(0))
            .unwrap();
        n.nb.addr_map
            .add_mmio(0x2_0000, 0x10_0000, NodeId(0), TCC)
            .unwrap();
        n.nb.routes.set(NodeId(0), symmetric(Route::SelfRoute));
        n.mtrrs.program(0x1_0000, 0x2_0000, MemType::Uncacheable);
        n.mtrrs
            .program(0x2_0000, 0x10_0000, MemType::WriteCombining);
        n.attach_link(TCC, LinkConfig::PROTOTYPE, 7);
        n
    }

    #[test]
    fn remote_wc_store_emits_packet_on_line_fill() {
        let mut n = tcc_node();
        let mut sink = ActionSink::new();
        for i in 0..8u64 {
            n.store(SimTime::ZERO, 0x2_0000 + i * 8, &[i as u8; 8], &mut sink);
        }
        let pkts: Vec<_> = sink
            .as_slice()
            .iter()
            .filter_map(|a| match a {
                Action::PacketOut {
                    packet, arrival, ..
                } => Some((packet, *arrival)),
                _ => None,
            })
            .collect();
        assert_eq!(pkts.len(), 1, "one full-line packet");
        assert_eq!(pkts[0].0.data.len(), 64);
        assert_eq!(pkts[0].0.addr(), Some(0x2_0000));
        // Arrival ≈ wc_flush(5) + nb_tx(20) + ser(~22.7) + hop(50) ≈ 98 ns
        // (plus issue-rate time for 64 B at 12.8 GB/s = 5 ns).
        let ns = pkts[0].1.nanos();
        assert!((ns - 103.0).abs() < 3.0, "arrival = {ns} ns");
    }

    #[test]
    fn local_uc_store_commits_to_dram() {
        let mut n = tcc_node();
        let mut sink = ActionSink::new();
        n.store(SimTime::ZERO, 0x1_0040, &[9u8; 8], &mut sink);
        match sink.as_slice() {
            [Action::LocalCommit { offset, visible }] => {
                assert_eq!(*offset, 0x40);
                assert!(visible.nanos() > 0.0);
                assert_eq!(n.mem.peek(0x40, 8), &[9u8; 8]);
            }
            other => panic!("unexpected actions {other:?}"),
        }
    }

    #[test]
    fn partial_line_needs_fence() {
        let mut n = tcc_node();
        let mut sink = ActionSink::new();
        n.store(SimTime::ZERO, 0x2_0000, &[1u8; 8], &mut sink);
        assert!(sink.is_empty(), "held in WC buffer");
        let f = n.sfence(SimTime(100_000), &mut sink);
        let pkts = sink
            .as_slice()
            .iter()
            .filter(|a| matches!(a, Action::PacketOut { .. }))
            .count();
        assert_eq!(pkts, 1);
        assert!(f.retire >= SimTime(100_000) + UarchParams::shanghai().sfence_drain);
    }

    #[test]
    fn store_burst_matches_manual_loop() {
        // Two identical nodes: one driven by store_burst, one by the
        // equivalent store()/sfence() loop. Times and memory must agree
        // exactly.
        let pattern = BurstPattern {
            cell_payload: 64,
            cell_stride: 72,
            header_bytes: 8,
            payload_fill: 0xD5,
            header_fill: 0xAD,
            fence_every: 1,
            final_fence: false,
            wrap_bytes: 0,
        };
        let len = 200; // 4 cells, short tail
        let mut burst_node = tcc_node();
        let mut sink = ActionSink::new();
        let out = burst_node.store_burst(
            SimTime::ZERO,
            0x2_0000,
            &pattern,
            len,
            0..pattern.cells(len),
            &mut sink,
        );

        let mut loop_node = tcc_node();
        let mut loop_sink = ActionSink::new();
        let mut now = SimTime::ZERO;
        let mut retire = now;
        let cells = len.div_ceil(64);
        for c in 0..cells {
            let base = 0x2_0000 + (c as u64) * 72;
            let chunk = 64.min(len - c * 64);
            let o = loop_node.store(now, base, &[0xD5u8; 64][..chunk], &mut loop_sink);
            now = o.issued;
            retire = retire.max(o.retire);
            let o = loop_node.store(now, base + 64, &[0xADu8; 8], &mut loop_sink);
            now = o.issued;
            retire = retire.max(o.retire);
            let f = loop_node.sfence(now, &mut loop_sink);
            now = f.retire;
            retire = retire.max(f.retire);
        }
        assert_eq!(out.issued, now);
        assert_eq!(out.retire, retire);
        assert_eq!(sink.len(), loop_sink.len());
    }

    #[test]
    fn final_fence_fires_once_with_the_last_window() {
        // Ring cells (72 B stride) leave a partial WC line open at every
        // window boundary, so a fence there would flush extra packets.
        let fenced = BurstPattern {
            cell_payload: 64,
            cell_stride: 72,
            header_bytes: 8,
            payload_fill: 0xD5,
            header_fill: 0xAD,
            fence_every: 0,
            final_fence: true,
            wrap_bytes: 0,
        };
        let plain = BurstPattern {
            final_fence: false,
            ..fenced
        };
        let len = 5 * 64;
        let mut whole = tcc_node();
        let mut whole_sink = ActionSink::new();
        let want = whole.store_burst(SimTime::ZERO, 0x2_0000, &fenced, len, 0..5, &mut whole_sink);

        let (mut a, mut b) = (tcc_node(), tcc_node());
        let (mut now_a, mut now_b) = (SimTime::ZERO, SimTime::ZERO);
        let (mut retire, mut actions) = (SimTime::ZERO, 0);
        for window in [0..2, 2..4, 4..5] {
            let last = window.end == 5;
            let (mut sa, mut sb) = (ActionSink::new(), ActionSink::new());
            let oa = a.store_burst(now_a, 0x2_0000, &fenced, len, window.clone(), &mut sa);
            let ob = b.store_burst(now_b, 0x2_0000, &plain, len, window, &mut sb);
            // The trailing fence never advances the issue clock.
            assert_eq!(oa.issued, ob.issued);
            if last {
                assert!(oa.retire >= ob.issued + UarchParams::shanghai().sfence_drain);
                assert!(sa.len() > sb.len(), "the fence flushes the open tail");
            } else {
                assert_eq!(oa.retire, ob.retire, "no fence before the last window");
                assert_eq!(sa.len(), sb.len());
            }
            (now_a, now_b) = (oa.issued, ob.issued);
            retire = retire.max(oa.retire);
            actions += sa.len();
        }
        assert_eq!(now_a, want.issued);
        assert_eq!(retire, want.retire);
        assert_eq!(actions, whole_sink.len());
    }

    #[test]
    fn delivery_lands_in_dram_with_bridge_latency() {
        let mut n = tcc_node();
        let pkt = Packet::posted_write(0x1_0100, Bytes::from(vec![0x5A; 64]));
        let mut sink = ActionSink::new();
        n.deliver(SimTime::ZERO, TCC, pkt, false, &mut sink)
            .unwrap();
        match sink.as_slice() {
            [Action::LocalCommit { offset, visible }] => {
                assert_eq!(*offset, 0x100);
                // nb_rx(20) + DRAM ser(~6) + commit(10) ≈ 36 ns.
                assert!((visible.nanos() - 36.0).abs() < 3.0, "{visible}");
                assert_eq!(n.mem.peek(0x100, 64), &[0x5A; 64]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn deliver_flat_matches_deliver_routed() {
        // Local commit and forward, each on a fresh node per lane: times,
        // memory contents and northbridge counters must agree exactly.
        for addr in [0x1_0100u64, 0x2_0040] {
            let mut general = tcc_node();
            let mut flat = tcc_node();
            let table = flat.nb.flat_table();
            let pkt = Packet::posted_write(addr, Bytes::from(vec![0xC3; 64]));
            let plan = table.lookup(addr).expect("mapped address has a flat plan");
            let got = flat.deliver_flat(SimTime::ZERO, plan, addr, &pkt.data, true);
            let want = general
                .deliver_routed(SimTime::ZERO, TCC, pkt, false)
                .unwrap();
            match (got, want) {
                (
                    FlatOutcome::Committed { offset, visible },
                    DeliverOutcome::Committed {
                        offset: o,
                        visible: v,
                    },
                ) => {
                    assert_eq!(offset, o);
                    assert_eq!(visible, v);
                    assert_eq!(flat.mem.peek(offset, 64), general.mem.peek(o, 64));
                }
                (
                    FlatOutcome::Forward { link, at },
                    DeliverOutcome::Forward { link: l, at: t, .. },
                ) => {
                    assert_eq!(link, l);
                    assert_eq!(at, t);
                }
                (g, w) => panic!("lanes disagree at {addr:#x}: {g:?} vs {w:?}"),
            }
            assert_eq!(flat.nb.requests_routed, general.nb.requests_routed);
            assert_eq!(flat.nb.packets_forwarded, general.nb.packets_forwarded);
        }
    }

    #[test]
    fn uc_poll_times_and_reads() {
        let mut n = tcc_node();
        n.mem.poke(0x200, &[0xEE; 8]);
        let (data, done) = n.uc_poll(SimTime::ZERO, 0x200, 8);
        assert_eq!(data, vec![0xEE; 8]);
        assert_eq!(done, SimTime(70_000), "one UC read round trip");
    }

    #[test]
    fn streaming_converges_to_wire_rate() {
        // 1 MB weakly-ordered stream: retire-rate far above capacity must
        // converge to the link rate (~2.82 GB/s goodput for 64 B packets).
        let mut n = tcc_node();
        let mut sink = ActionSink::new();
        let total: u64 = 1 << 20;
        let mut now = SimTime::ZERO;
        let mut retire = SimTime::ZERO;
        for i in 0..total / 64 {
            let addr = 0x2_0000 + (i * 64) % 0x4_0000; // reuse window
            let o = n.store(now, addr, &[0u8; 64], &mut sink);
            now = o.issued;
            retire = o.retire;
            sink.clear();
        }
        let rate = total as f64 / (retire.picos() as f64 / 1e12) / 1e6;
        // Above link goodput because the tail sits in buffers, but below
        // absorb rate; with capacity 256 KB and 1 MB sent the inflation is
        // bounded by ~33%.
        assert!(rate > 2700.0 && rate < 4000.0, "rate = {rate:.0} MB/s");
    }

    #[test]
    fn short_burst_absorbed_at_absorb_rate() {
        // 128 KB fits in the 256 KB absorption window: the sender-side
        // retire rate is the absorb rate (~5.5 GB/s), not the link rate —
        // the Fig. 6 artifact.
        let mut n = tcc_node();
        let mut sink = ActionSink::new();
        let total: u64 = 128 << 10;
        let mut now = SimTime::ZERO;
        let mut retire = SimTime::ZERO;
        for i in 0..total / 64 {
            let o = n.store(now, 0x2_0000 + i * 64, &[0u8; 64], &mut sink);
            now = o.issued;
            retire = o.retire;
            sink.clear();
        }
        let rate = total as f64 / (retire.picos() as f64 / 1e12) / 1e6;
        assert!((rate - 5500.0).abs() < 300.0, "rate = {rate:.0} MB/s");
    }

    #[test]
    fn steady_state_stream_recycles_payload_slabs() {
        let mut n = tcc_node();
        let mut sink = ActionSink::new();
        let mut now = SimTime::ZERO;
        for i in 0..4096u64 {
            let addr = 0x2_0000 + (i * 64) % 0x4_0000;
            let o = n.store(now, addr, &[0u8; 64], &mut sink);
            now = o.issued;
            sink.clear(); // dropping the actions releases the payloads
        }
        assert!(
            n.pool.slots() <= 4,
            "pool stays small: {} slabs",
            n.pool.slots()
        );
        assert!(n.pool.served > 4000);
    }

    #[test]
    fn quiesce_resets_pipeline() {
        let mut n = tcc_node();
        let mut sink = ActionSink::new();
        for i in 0..1000u64 {
            n.store(SimTime::ZERO, 0x2_0000 + i * 64, &[0u8; 64], &mut sink);
            sink.clear();
        }
        n.quiesce();
        let o = n.store(SimTime::ZERO, 0x2_0000, &[0u8; 64], &mut sink);
        assert!(o.retire.nanos() < 100.0, "fresh pipeline");
    }
}
