//! The physical machine the firmware brings up: Opteron nodes, link
//! endpoints, cables and southbridges — plus packet propagation, so a
//! booted platform can actually move data end to end (including multi-hop
//! forwarding through intermediate supernodes).

use crate::topology::{ClusterSpec, SOUTHBRIDGE};
use std::collections::BTreeMap;
use tcc_fabric::protocol_violation;
use tcc_fabric::time::SimTime;
use tcc_fabric::Trace;
use tcc_ht::init::{LinkEndpoint, LinkRegs};
use tcc_ht::link::LinkConfig;
use tcc_ht::Packet;
use tcc_opteron::node::{Action, ActionSink, Node};
use tcc_opteron::regs::{LinkId, NodeId};
use tcc_opteron::UarchParams;

/// One packet crossing a wire, as seen by a [`FabricMonitor`].
#[derive(Debug)]
pub struct PacketEvent<'a> {
    /// Transmitting (node, link) port.
    pub src: (usize, LinkId),
    /// Receiving (node, link) port.
    pub dst: (usize, LinkId),
    /// Negotiated coherence of the traversed link (false on TCC cables).
    pub coherent: bool,
    pub packet: &'a Packet,
    /// Arrival time at the receiving port.
    pub arrival: SimTime,
}

/// Observer attached to the fabric via [`Platform::with_monitors`]. Called
/// for every packet the propagation loop delivers; when no monitor is
/// installed the hook is a single `Option` discriminant test, so the hot
/// path is unaffected (the counting-allocator regression test checks it
/// allocates nothing; perfbench times it).
pub trait FabricMonitor: std::fmt::Debug {
    /// Invoked just before the packet is handed to the receiving node.
    fn on_packet(&mut self, ev: &PacketEvent<'_>);
}

/// A physical cable or board trace joining two node link ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wire {
    pub a: (usize, LinkId),
    pub b: (usize, LinkId),
    /// True for supernode-internal (board) links, false for TCC cables.
    pub internal: bool,
}

/// A posted write that landed in some node's DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveredWrite {
    pub node: usize,
    pub offset: u64,
    pub visible: SimTime,
}

/// The assembled (un-booted) machine.
#[derive(Debug)]
pub struct Platform {
    pub spec: ClusterSpec,
    pub nodes: Vec<Node>,
    /// Link-init FSM endpoint per (global node index, link).
    pub endpoints: BTreeMap<(usize, u8), LinkEndpoint>,
    /// Southbridge-side endpoints, keyed by the hosting node.
    pub southbridges: BTreeMap<usize, LinkEndpoint>,
    pub wires: Vec<Wire>,
    pub trace: Trace,
    /// Target configuration the firmware programs into TCC links.
    pub tcc_target: LinkConfig,
    /// Target configuration for supernode-internal coherent links.
    pub internal_target: LinkConfig,
    /// Reusable propagation frontier (node, action) — drained FIFO.
    propagate_work: Vec<(usize, Action)>,
    /// Reusable per-delivery follow-up sink.
    deliver_sink: ActionSink,
    /// Lazily built per-(node, link) forwarding cache:
    /// `(peer, peer_link, coherent)` for every trained wire end. Scanning
    /// the wire list and the endpoint map per packet dominates propagation
    /// otherwise; invalidated by [`train_all`](Self::train_all).
    route_cache: Vec<[Option<(usize, LinkId, bool)>; 4]>,
    /// Optional fabric observer; `None` in every perf-sensitive run.
    monitor: Option<Box<dyn FabricMonitor>>,
}

impl Platform {
    /// Build the machine: nodes powered off, cables in place.
    pub fn assemble(spec: ClusterSpec, params: UarchParams) -> Self {
        let n_nodes = spec.total_processors();
        let mut nodes = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            nodes.push(Node::new(
                NodeId::UNENUMERATED,
                spec.supernode.dram_per_node as usize,
                params.clone(),
            ));
        }

        let mut wires = Vec::new();
        // Supernode-internal chains: p.l1 <-> (p+1).l0.
        for s in 0..spec.supernode_count() {
            for p in 0..spec.supernode.processors - 1 {
                wires.push(Wire {
                    a: (spec.proc_index(s, p), LinkId(1)),
                    b: (spec.proc_index(s, p + 1), LinkId(0)),
                    internal: true,
                });
            }
        }
        // TCC cables.
        for ((sa, pa), (sb, pb)) in spec.cables() {
            let (qa, la) = pa.attach(&spec.supernode);
            let (qb, lb) = pb.attach(&spec.supernode);
            wires.push(Wire {
                a: (spec.proc_index(sa, qa), la),
                b: (spec.proc_index(sb, qb), lb),
                internal: false,
            });
        }

        let mut endpoints = BTreeMap::new();
        for w in &wires {
            for &(n, l) in [&w.a, &w.b] {
                endpoints.insert((n, l.0), LinkEndpoint::new(LinkRegs::processor_default()));
            }
        }
        // Southbridges: one per supernode on the BSP.
        let mut southbridges = BTreeMap::new();
        for s in 0..spec.supernode_count() {
            let bsp = spec.proc_index(s, SOUTHBRIDGE.0);
            endpoints.insert(
                (bsp, SOUTHBRIDGE.1 .0),
                LinkEndpoint::new(LinkRegs::processor_default()),
            );
            southbridges.insert(bsp, LinkEndpoint::new(LinkRegs::io_device()));
        }

        Platform {
            spec,
            nodes,
            endpoints,
            southbridges,
            wires,
            trace: Trace::new(),
            tcc_target: LinkConfig::PROTOTYPE,
            // On-board traces are far shorter than the HTX cable: a
            // supernode-internal hop costs ~15 ns of propagation, keeping
            // the per-hop adder under the paper's 50 ns envelope.
            internal_target: LinkConfig {
                hop_latency: tcc_fabric::time::Duration::from_nanos(15),
                ..LinkConfig::HT3_FULL
            },
            propagate_work: Vec::new(),
            deliver_sink: ActionSink::new(),
            route_cache: Vec::new(),
            monitor: None,
        }
    }

    /// Install a fabric monitor. Monitors observe every delivered packet;
    /// compose several with a fan-out monitor if more than one check is
    /// wanted. Replaces any previously installed monitor.
    pub fn with_monitors(&mut self, monitor: Box<dyn FabricMonitor>) {
        self.monitor = Some(monitor);
    }

    /// Whether a fabric monitor is installed. The sharded event engine
    /// checks this once per run: with no monitor it skips packet-event
    /// recording entirely, keeping the shard hot path allocation-free.
    pub fn has_monitor(&self) -> bool {
        self.monitor.is_some()
    }

    /// The wire attached to (node, link), if any.
    pub fn wire_at(&self, node: usize, link: LinkId) -> Option<&Wire> {
        self.wires
            .iter()
            .find(|w| w.a == (node, link) || w.b == (node, link))
    }

    /// The far end of (node, link).
    pub fn peer_of(&self, node: usize, link: LinkId) -> Option<(usize, LinkId)> {
        let w = self.wire_at(node, link)?;
        Some(if w.a == (node, link) { w.b } else { w.a })
    }

    /// Is the TCC cable/link at (node, link) — i.e. not a board link?
    pub fn is_tcc_port(&self, node: usize, link: LinkId) -> bool {
        self.wire_at(node, link).is_some_and(|w| !w.internal)
    }

    /// Negotiated coherence state of the link at (node, link).
    pub fn link_coherent(&self, node: usize, link: LinkId) -> Option<bool> {
        self.endpoints
            .get(&(node, link.0))
            .and_then(|e| e.active())
            .map(|a| a.coherent)
    }

    /// Rebuild the forwarding cache from the current wires and endpoint
    /// states. Untrained or unwired ports stay `None`.
    ///
    /// `tcc_alloc_ok`: runs only when the cache was invalidated by a
    /// topology change (link train/untrain) — never in the per-packet
    /// propagate loop, which hits the prebuilt cache.
    #[cfg_attr(lint, tcc_alloc_ok)]
    fn rebuild_route_cache(&mut self) {
        self.route_cache = vec![[None; 4]; self.nodes.len()];
        for w in &self.wires {
            for (here, there) in [(w.a, w.b), (w.b, w.a)] {
                let coherent = self
                    .endpoints
                    .get(&(here.0, here.1 .0))
                    .and_then(|e| e.active())
                    .map(|a| a.coherent);
                if let Some(c) = coherent {
                    self.route_cache[here.0][here.1 .0 as usize] = Some((there.0, there.1, c));
                }
            }
        }
    }

    /// The trained forwarding entry for (node, link): the receiving
    /// `(peer, peer_link, coherent)` triple, lazily (re)building the route
    /// cache exactly as [`propagate`](Self::propagate) does. External
    /// fabric engines use this to walk packets hop by hop with the same
    /// tables the chained engine uses.
    pub fn route_hop(&mut self, node: usize, link: LinkId) -> Option<(usize, LinkId, bool)> {
        if self.route_cache.is_empty() {
            self.rebuild_route_cache();
        }
        self.route_cache[node][link.0 as usize]
    }

    /// Fire the installed fabric monitor (if any) for one wire crossing.
    /// Both engines funnel every delivered packet through here, so a
    /// monitor mounted with [`with_monitors`](Self::with_monitors)
    /// observes chained and event-driven runs identically.
    pub fn monitor_packet(&mut self, ev: &PacketEvent<'_>) {
        if let Some(mon) = self.monitor.as_deref_mut() {
            mon.on_packet(ev);
        }
    }

    /// Negotiated configuration of the trained link at (node, link).
    pub fn active_config(&self, node: usize, link: LinkId) -> Option<LinkConfig> {
        self.endpoints
            .get(&(node, link.0))
            .and_then(|e| e.active())
            .map(|a| a.config)
    }

    /// Run link training on every wire (and southbridge stubs).
    /// `first_training` selects the post-cold-reset 200 MHz/8-bit pass.
    pub fn train_all(&mut self, now: SimTime, first_training: bool) {
        self.route_cache.clear();
        let wires = self.wires.clone();
        for w in wires {
            let hop = if w.internal {
                self.internal_target.hop_latency
            } else {
                self.tcc_target.hop_latency
            };
            // Two disjoint borrows out of the map.
            let mut a = self
                .endpoints
                .remove(&(w.a.0, w.a.1 .0))
                .expect("endpoint a");
            let mut b = self
                .endpoints
                .remove(&(w.b.0, w.b.1 .0))
                .expect("endpoint b");
            a.begin_training();
            b.begin_training();
            let link = tcc_ht::init::negotiate(&mut a, &mut b, hop, first_training);
            self.trace.log(
                now,
                format!("wire.n{}l{}-n{}l{}", w.a.0, w.a.1 .0, w.b.0, w.b.1 .0),
                format!(
                    "trained {} @{}MHz/{}bit",
                    if link.coherent {
                        "coherent"
                    } else {
                        "non-coherent"
                    },
                    link.config.clock_mhz,
                    link.config.width_bits
                ),
            );
            self.endpoints.insert((w.a.0, w.a.1 .0), a);
            self.endpoints.insert((w.b.0, w.b.1 .0), b);
            // Attach/reconfigure the serialising transmitters.
            let seed_a = (w.a.0 as u64) << 8 | w.a.1 .0 as u64;
            let seed_b = (w.b.0 as u64) << 8 | w.b.1 .0 as u64;
            self.nodes[w.a.0].attach_link(w.a.1, link.config, seed_a);
            self.nodes[w.b.0].attach_link(w.b.1, link.config, seed_b);
        }
        // Southbridge links (always non-coherent).
        let sbs: Vec<usize> = self.southbridges.keys().copied().collect();
        for bsp in sbs {
            let key = (bsp, SOUTHBRIDGE.1 .0);
            let mut cpu = self.endpoints.remove(&key).expect("SB cpu endpoint");
            let sb = self.southbridges.get_mut(&bsp).expect("SB endpoint");
            cpu.begin_training();
            sb.begin_training();
            let link =
                tcc_ht::init::negotiate(&mut cpu, sb, self.tcc_target.hop_latency, first_training);
            assert!(!link.coherent, "southbridge link must be non-coherent");
            self.endpoints.insert(key, cpu);
        }
    }

    /// Propagate a batch of node actions through the fabric until all
    /// packets have landed, delivering packets in FIFO (emission) order —
    /// deliveries happen in exactly the order a store-at-a-time driver
    /// loop would produce, so batching a whole message's actions into one
    /// call leaves the receive-side timing unchanged. Drains `actions`
    /// and appends every DRAM commit that resulted to `commits`; both
    /// buffers are caller-owned so the hot path reuses them without
    /// allocating.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    pub fn propagate(
        &mut self,
        from_node: usize,
        actions: &mut ActionSink,
        commits: &mut Vec<DeliveredWrite>,
    ) {
        if self.route_cache.is_empty() {
            self.rebuild_route_cache();
        }
        let mut work = std::mem::take(&mut self.propagate_work);
        work.clear();
        work.extend(actions.drain().map(|a| (from_node, a)));
        let mut i = 0;
        while i < work.len() {
            // Move the action out, leaving a cheap placeholder (the slot
            // is never revisited).
            let (node, action) =
                std::mem::replace(&mut work[i], (usize::MAX, Action::BroadcastFiltered));
            i += 1;
            match action {
                Action::LocalCommit { offset, visible } => commits.push(DeliveredWrite {
                    node,
                    offset,
                    visible,
                }),
                Action::BroadcastFiltered => {}
                Action::PacketOut {
                    link,
                    packet,
                    arrival,
                } => {
                    let Some((peer, peer_link, coherent)) = self.route_cache[node][link.0 as usize]
                    else {
                        protocol_violation!(
                            "packet out untrained/unwired link n{node} l{}",
                            link.0
                        );
                    };
                    self.monitor_packet(&PacketEvent {
                        src: (node, link),
                        dst: (peer, peer_link),
                        coherent,
                        packet: &packet,
                        arrival,
                    });
                    let mut followups = std::mem::take(&mut self.deliver_sink);
                    followups.clear();
                    self.nodes[peer]
                        .deliver(arrival, peer_link, packet, coherent, &mut followups)
                        .unwrap_or_else(|e| {
                            protocol_violation!("delivery failed at node {peer}: {e:?}")
                        });
                    work.extend(followups.drain().map(|a| (peer, a)));
                    self.deliver_sink = followups;
                }
            }
        }
        work.clear();
        self.propagate_work = work;
    }

    /// Issue a store on `node` and propagate its consequences. Returns
    /// (outcome retire time, commits). A convenience wrapper for boot
    /// code and tests; hot loops drive `store`/`propagate` with their own
    /// reusable buffers instead.
    pub fn store_and_propagate(
        &mut self,
        node: usize,
        now: SimTime,
        addr: u64,
        data: &[u8],
    ) -> (SimTime, Vec<DeliveredWrite>) {
        let mut sink = ActionSink::new();
        let mut commits = Vec::new();
        let out = self.nodes[node].store(now, addr, data, &mut sink);
        let retire = out.retire;
        self.propagate(node, &mut sink, &mut commits);
        // Flush any residue held in WC buffers so single stores land.
        self.nodes[node].sfence(retire, &mut sink);
        self.propagate(node, &mut sink, &mut commits);
        (retire, commits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ClusterTopology, SupernodeSpec};

    const MB: u64 = 1 << 20;

    fn pair_platform() -> Platform {
        let spec = ClusterSpec::new(SupernodeSpec::new(1, MB), ClusterTopology::Pair);
        Platform::assemble(spec, UarchParams::shanghai())
    }

    #[test]
    fn assembly_counts() {
        let p = pair_platform();
        assert_eq!(p.nodes.len(), 2);
        assert_eq!(p.wires.len(), 1, "one TCC cable");
        assert!(!p.wires[0].internal);
        assert_eq!(p.southbridges.len(), 2, "one SB per supernode");
        // Pair: node0 East(l3) <-> node1 West(l2).
        assert_eq!(p.peer_of(0, LinkId(3)), Some((1, LinkId(2))));
        assert_eq!(p.peer_of(0, LinkId(1)), None);
    }

    #[test]
    fn first_training_is_coherent_at_boot_speed() {
        let mut p = pair_platform();
        p.train_all(SimTime::ZERO, true);
        assert_eq!(p.link_coherent(0, LinkId(3)), Some(true));
        let ep = &p.endpoints[&(0, 3)];
        let active = ep.active().unwrap();
        assert_eq!(active.config.clock_mhz, 200);
        assert_eq!(active.config.width_bits, 8);
    }

    #[test]
    fn retraining_applies_programmed_registers() {
        let mut p = pair_platform();
        p.train_all(SimTime::ZERO, true);
        for key in [(0usize, 3u8), (1, 2)] {
            let ep = p.endpoints.get_mut(&key).unwrap();
            ep.regs.force_noncoherent = true;
            ep.regs.freq_mhz = 800;
            ep.regs.width_bits = 16;
            ep.warm_reset();
        }
        p.train_all(SimTime::ZERO, false);
        assert_eq!(p.link_coherent(0, LinkId(3)), Some(false));
        let active = p.endpoints[&(0, 3)].active().unwrap();
        assert_eq!(active.config.clock_mhz, 800);
    }

    #[test]
    fn supernode_internal_wiring() {
        let spec = ClusterSpec::new(SupernodeSpec::new(4, MB), ClusterTopology::Pair);
        let p = Platform::assemble(spec, UarchParams::shanghai());
        assert_eq!(p.nodes.len(), 8);
        // 3 internal wires per supernode x2 + 1 cable.
        assert_eq!(p.wires.len(), 7);
        assert_eq!(p.peer_of(1, LinkId(1)), Some((2, LinkId(0))));
        assert!(p.is_tcc_port(3, LinkId(2)) || p.is_tcc_port(3, LinkId(3)));
    }
}
