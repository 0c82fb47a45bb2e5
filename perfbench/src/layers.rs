//! Layer microbenchmarks: each calls one layer's public functions on
//! inputs built from the workload's booted platform, timing at least
//! 10^5 operations and 1 ms between two clock reads so the clock's own
//! cost stays under 0.1% of the reading.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;
use tccluster::fabric::event::{EventKey, EventQueue};
use tccluster::fabric::time::SimTime;
use tccluster::firmware::machine::Platform;
use tccluster::ht::flow::{CreditReturn, RxBuffers, TxCredits, DEFAULT_CREDITS};
use tccluster::ht::link::{LinkConfig, LinkRx, LinkTx};
use tccluster::ht::packet::{FlatWire, Packet, VirtualChannel};
use tccluster::msglib::handoff::BatchRing;
use tccluster::opteron::nb::{FlatPlan, FlatTable};
use tccluster::opteron::{ActionSink, LinkId, Source, LINKS_PER_NODE};

/// Operations per timed sample, and samples per microbenchmark (the
/// median is reported).
const OPS: u64 = 100_000;
const SAMPLES: usize = 3;
/// Shortest timed sample: a clock read (~30 ns) is then under 0.01% of it.
const MIN_SAMPLE_NS: u64 = 1_000_000;
/// Batch size of the handoff microbenchmark: the events a shard visit
/// handles on the 8×8 workload (~24).
const HANDOFF_BATCH: u64 = 24;
/// Node-local offset of the addresses the routing microbenchmarks use,
/// clear of the message rings at the bottom of each node's slice.
const FLOW_OFFSET: u64 = 0x8_0000;

/// Nanoseconds per operation of `op`, median of [`SAMPLES`] timings of
/// at least `ops` calls each, after a warm-up of a tenth as many. Very
/// cheap operations get more calls, so every timing spans at least
/// [`MIN_SAMPLE_NS`].
pub fn ns_per_op(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..ops / 10 {
        op(i);
    }
    let warm_ns = (t0.elapsed().as_nanos() as u64).max(1);
    let ops = ops.max(ops / 10 * MIN_SAMPLE_NS / warm_ns);
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..ops {
                op(i);
            }
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// Cost of one `Instant::now()` read: median over 101 batches of 1000
/// back-to-back reads. Batching keeps the value from snapping to the
/// clock's 1 ns resolution.
pub fn clock_read_ns() -> f64 {
    const BATCH: u32 = 1000;
    let samples: Vec<f64> = (0..101)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / f64::from(BATCH)
        })
        .collect();
    median(&samples)
}

/// The classic hold model on the default queue backend: pop the minimum,
/// reschedule it a pseudo-random delta ahead, at a steady population.
pub fn queue_hold_ns(population: u64) -> f64 {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % 4096) + 1
    };
    for i in 0..population {
        q.schedule_at(SimTime(step()), i as u32);
    }
    ns_per_op(2 * OPS, |_| {
        let (t, v) = q.pop().expect("population is steady");
        q.schedule_at(SimTime(t.0 + step()), black_box(v));
    })
}

fn flat_packet(addr: u64) -> Packet {
    FlatWire::new(addr, [0u8; FlatWire::DATA_BYTES]).to_packet()
}

fn posted_return() -> CreditReturn {
    let mut ret = CreditReturn::default();
    ret.cmd[VirtualChannel::Posted.index()] = 1;
    ret.data[VirtualChannel::Posted.index()] = 1;
    ret
}

/// `TxCredits::consume` + `release` of one posted data credit.
pub fn credit_cycle_ns() -> f64 {
    let pkt = flat_packet(0);
    let ret = posted_return();
    let mut tx = TxCredits::new(DEFAULT_CREDITS);
    ns_per_op(OPS, |_| {
        let tx = black_box(&mut tx);
        tx.consume(black_box(&pkt)).expect("credit available");
        tx.release(black_box(ret)).expect("credit outstanding");
    })
}

/// `RxBuffers::accept` + `drain` + `harvest` of one posted packet.
pub fn rxbuf_cycle_ns() -> f64 {
    let pkt = flat_packet(0);
    let mut rx = RxBuffers::new(DEFAULT_CREDITS);
    ns_per_op(OPS, |_| {
        let rx = black_box(&mut rx);
        rx.accept(black_box(&pkt)).expect("buffer free");
        rx.drain(&pkt).expect("buffer held");
        black_box(rx.harvest());
    })
}

/// `LinkTx::send_into` + `pump_into` on the workload's own TCC link
/// configuration, returning the credit after each packet.
pub fn tx_send_pump_ns(config: LinkConfig) -> f64 {
    let pkt = flat_packet(0);
    let ret = posted_return();
    let mut tx = LinkTx::new(config, 1);
    let mut out = Vec::with_capacity(4);
    ns_per_op(OPS, |i| {
        let now = SimTime(i * 10_000);
        let tx = black_box(&mut tx);
        tx.send_into(now, pkt.clone(), &mut out);
        tx.pump_into(now, &mut out);
        for d in out.drain(..) {
            black_box(d.arrival);
            tx.credit_return(ret).expect("credit outstanding");
        }
    })
}

/// `LinkRx::accept_flat` + `drain_parts` + `harvest`.
pub fn rx_accept_drain_ns() -> f64 {
    let mut rx = LinkRx::new();
    ns_per_op(OPS, |_| {
        let rx = black_box(&mut rx);
        rx.accept_flat().expect("buffer free");
        rx.drain_parts(VirtualChannel::Posted, true)
            .expect("buffer held");
        black_box(rx.harvest());
    })
}

/// One cross-shard batch of [`HANDOFF_BATCH`] events through
/// `BatchRing::publish` + `take`, per item.
pub fn handoff_ns_per_item() -> f64 {
    let ring: BatchRing<(EventKey, u64)> = BatchRing::new();
    let mut staging = Vec::with_capacity(HANDOFF_BATCH as usize);
    let mut scratch = Vec::with_capacity(HANDOFF_BATCH as usize);
    let per_batch = ns_per_op(OPS / HANDOFF_BATCH, |i| {
        for k in 0..HANDOFF_BATCH {
            let key = EventKey {
                at: SimTime(i),
                src: 0,
                seq: k,
            };
            staging.push((key, k));
        }
        assert!(ring.publish(&mut staging), "ring full");
        while ring.take(&mut scratch) {
            for item in scratch.drain(..) {
                black_box(item);
            }
        }
    });
    per_batch / HANDOFF_BATCH as f64
}

/// `Node::store` + `Platform::propagate` of 64 B write-combined stores,
/// the path every paper sweep runs, on a booted prototype pair.
pub fn store_ns(pair: &mut Platform) -> f64 {
    let dst = pair.spec.node_base(1, 0);
    let mut sink = ActionSink::new();
    let mut commits = Vec::new();
    let mut now = SimTime::ZERO;
    for node in &mut pair.nodes {
        node.quiesce();
    }
    ns_per_op(OPS, |i| {
        let addr = dst + (i * 64) % (256 << 10);
        let out = pair.nodes[0].store(now, addr, &[0u8; 64], &mut sink);
        now = out.issued;
        commits.clear();
        pair.propagate(0, &mut sink, &mut commits);
    })
}

/// Routing and delivery microbenchmarks over the workload's own flow
/// addresses: each flow's first-hop lookup at its source and its commit
/// at its destination.
pub struct Routing {
    pub flat_lookup_ns: f64,
    pub dispose_ns: f64,
    pub deliver_flat_ns: f64,
    pub deliver_routed_ns: f64,
}

pub fn routing(platform: &mut Platform, pairs: &[(usize, usize)]) -> Routing {
    let spec = platform.spec;
    let procs = spec.supernode.processors;
    let addr_of = |dst: usize, k: usize| {
        spec.node_base(dst / procs, dst % procs) + FLOW_OFFSET + (k as u64 % 64) * 64
    };
    // 64 to 4096 (source, destination, address) triples, cycling the pairs.
    let flows: Vec<(usize, usize, u64)> = (0..pairs.len().clamp(64, 4096))
        .map(|k| {
            let (s, d) = pairs[k % pairs.len()];
            (s, d, addr_of(d, k))
        })
        .collect();
    let tables: Vec<FlatTable> = platform.nodes.iter().map(|n| n.nb.flat_table()).collect();

    let n = flows.len() as u64;
    let flat_lookup_ns = ns_per_op(OPS, |i| {
        let (s, _, a) = flows[(i % n) as usize];
        black_box(tables[s].lookup(black_box(a)));
    });

    let packets: Vec<(usize, Packet)> =
        flows.iter().map(|&(s, _, a)| (s, flat_packet(a))).collect();
    let dispose_ns = ns_per_op(OPS, |i| {
        let (s, pkt) = &packets[(i % n) as usize];
        black_box(
            platform.nodes[*s]
                .nb
                .dispose(pkt, Source::Core)
                .expect("routable"),
        );
    });

    // Commits at each flow's destination: its local plan, and the link a
    // packet would arrive on (any trained one; only coherence matters).
    let commits: Vec<(usize, FlatPlan, u64, LinkId, bool, Packet)> = flows
        .iter()
        .filter_map(|&(_, d, a)| {
            let plan = tables[d].lookup(a)?;
            let (link, coherent) = (0..LINKS_PER_NODE as u8)
                .map(LinkId)
                .find_map(|l| platform.link_coherent(d, l).map(|c| (l, c)))?;
            Some((d, plan, a, link, coherent, flat_packet(a)))
        })
        .collect();
    assert_eq!(commits.len(), flows.len(), "every flow lands in local DRAM");
    let data = [0u8; FlatWire::DATA_BYTES];
    let deliver_flat_ns = ns_per_op(OPS, |i| {
        let (d, plan, a, _, coherent, _) = &commits[(i % n) as usize];
        let now = SimTime(i * 10_000);
        black_box(platform.nodes[*d].deliver_flat(now, *plan, *a, &data, !coherent));
    });
    let deliver_routed_ns = ns_per_op(OPS, |i| {
        let (d, _, _, link, coherent, pkt) = &commits[(i % n) as usize];
        let now = SimTime(i * 10_000);
        let out = platform.nodes[*d].deliver_routed(now, *link, pkt.clone(), *coherent);
        black_box(out.expect("deliverable"));
    });
    Routing {
        flat_lookup_ns,
        dispose_ns,
        deliver_flat_ns,
        deliver_routed_ns,
    }
}

/// The active configuration of the platform's first TCC (off-board) link.
pub fn tcc_link_config(platform: &Platform) -> LinkConfig {
    platform
        .wires
        .iter()
        .filter(|w| !w.internal)
        .find_map(|w| platform.active_config(w.a.0, w.a.1))
        .expect("a trained TCC link")
}
