//! Determinism of the sharded conservative-PDES event engine.
//!
//! The engine's contract (docs/engine.md, "Parallel execution") is that
//! results are **bit-identical** for every worker thread count and for
//! both wire lanes: shard state is disjoint, every event is processed in
//! deterministic `(time, shard, seq)` key order, and the thread count
//! only changes wall clock. One epoch executive runs at every thread
//! count, so its oracles are the partition matrix (1, 2, 3, 4 and 8
//! workers, with uneven splits), the pinned work counters and anchors,
//! and the debug-build check in `drain_mail` that no mailed arrival lands
//! in its receiver's past; a monitored run, which sends every packet down
//! the general path, is the oracle for the flat fast lane. These tests
//! enforce that contract as a differential matrix and re-pin the paper's
//! anchors (227 ns / ~2500 MB/s) on the parallel path.

use proptest::prelude::*;
use tcc_firmware::topology::ClusterTopology;
use tcc_ht::link::LinkConfig;
use tccluster::engine::{pattern_pairs, DEFAULT_DRAIN};
use tccluster::{
    EngineKind, EngineOptions, EventCounts, EventEngine, TcclusterBuilder, TrafficPattern,
    WorkloadReport,
};

/// Run one workload on a mesh at `threads` workers, optionally with the
/// invariant monitors mounted (which also switches the flat lane off).
/// Returns the report plus the monitors' view (packets seen, clean
/// verdict) when mounted.
fn run(
    mesh: (usize, usize),
    link: LinkConfig,
    pattern: TrafficPattern,
    bytes: u64,
    threads: usize,
    monitored: bool,
) -> (WorkloadReport, Option<(u64, bool)>) {
    let mut cluster = TcclusterBuilder::new()
        .topology(ClusterTopology::Mesh {
            x: mesh.0,
            y: mesh.1,
        })
        .processors_per_supernode(2)
        .tcc_link(link)
        .engine(EngineKind::EventDriven)
        .event_threads(threads)
        .build_sim();
    let handle = monitored.then(|| {
        let (monitor, handle) = tcc_verify::InvariantMonitor::new();
        cluster.platform.with_monitors(monitor);
        handle
    });
    let report = cluster.run_workload(pattern, bytes);
    let verdict = handle.map(|h| (h.packets_seen(), h.is_clean()));
    (report, verdict)
}

fn arb_link() -> impl Strategy<Value = LinkConfig> {
    (
        prop_oneof![Just(600), Just(800), Just(1_000)],
        prop_oneof![Just(8u8), Just(16u8)],
        40u64..=60,
    )
        .prop_map(|(clock_mhz, width_bits, hop_ns)| LinkConfig {
            clock_mhz,
            width_bits,
            hop_latency: tcc_fabric::time::Duration::from_nanos(hop_ns),
        })
}

fn arb_pattern() -> impl Strategy<Value = TrafficPattern> {
    prop_oneof![
        Just(TrafficPattern::AllToAll),
        Just(TrafficPattern::Hotspot { target: 0 }),
        Just(TrafficPattern::Halo),
        Just(TrafficPattern::Transpose),
        Just(TrafficPattern::Tornado),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The core determinism property: the same workload yields a
    /// byte-identical [`WorkloadReport`] at thread counts {2, 4} as on
    /// one worker, for randomized link shapes, patterns and flow sizes on
    /// a 2x2 mesh.
    #[test]
    fn workload_reports_are_bit_identical_across_executives(
        link in arb_link(),
        pattern in arb_pattern(),
        kb in 2u64..=8,
    ) {
        let bytes = kb << 10;
        let (baseline, _) = run((2, 2), link, pattern, bytes, 1, false);
        prop_assert!(baseline.delivered_packets > 0, "workload moved no data");
        for threads in [2usize, 4] {
            let (got, _) = run((2, 2), link, pattern, bytes, threads, false);
            prop_assert_eq!(
                &got,
                &baseline,
                "{} threads diverged on {:?}",
                threads,
                pattern
            );
        }
    }

    /// The flat fast lane is an optimisation, never a semantic: at every
    /// thread count, an unmonitored run (flat lane) and a monitored run
    /// (general path) give byte-identical reports, and the monitors stay
    /// clean while seeing every hop — more packets than were delivered.
    #[test]
    fn flat_lane_is_bit_identical_and_monitor_invisible(
        link in arb_link(),
        pattern in arb_pattern(),
        kb in 2u64..=8,
    ) {
        let bytes = kb << 10;
        for threads in [1usize, 2, 4] {
            let (flat, _) = run((2, 2), link, pattern, bytes, threads, false);
            prop_assert!(flat.delivered_packets > 0, "workload moved no data");
            let (general, saw) = run((2, 2), link, pattern, bytes, threads, true);
            prop_assert_eq!(
                &general,
                &flat,
                "monitored run diverged at {} threads on {:?}",
                threads,
                pattern
            );
            let (seen, clean) = saw.unwrap();
            prop_assert!(seen > flat.delivered_packets, "monitor missed forwarded hops");
            prop_assert!(clean, "invariant violations");
        }
    }
}

/// All-to-all (4 KiB per flow) on a `side`x`side` mesh at thread counts
/// {2, 3, 4, 8}, each compared field-for-field against one worker
/// running every shard. Three threads split the shards unevenly (6/5/5 on the 4x4,
/// 22/21/21 on the 8x8), so workers holding different numbers of shards
/// must still agree on every horizon and on when to stop.
fn assert_all_to_all_is_executive_invariant(side: usize) {
    let all_to_all = |threads| {
        run(
            (side, side),
            LinkConfig::PROTOTYPE,
            TrafficPattern::AllToAll,
            4 << 10,
            threads,
            false,
        )
        .0
    };
    let baseline = all_to_all(1);
    let supernodes = side * side;
    assert_eq!(baseline.flows.len(), supernodes * (supernodes - 1));
    assert_eq!(baseline.lost_packets(), 0, "{baseline:?}");
    for threads in [2usize, 3, 4, 8] {
        assert_eq!(all_to_all(threads), baseline, "{threads} threads diverged");
    }
}

/// A bigger, deeply contended single case: the 4x4 mesh.
#[test]
fn mesh4x4_all_to_all_is_executive_invariant() {
    assert_all_to_all_is_executive_invariant(4);
}

/// The 8x8 mesh (4032 flows), the headline workload of the engine's
/// speed figures. Release builds only: the debug suite would spend most
/// of its time here.
#[test]
#[cfg_attr(debug_assertions, ignore = "8x8 matrix; run in release")]
fn mesh8x8_all_to_all_is_executive_invariant() {
    assert_all_to_all_is_executive_invariant(8);
}

/// The paper's 227 ns half-RTT anchor must hold when the event engine
/// runs its parallel executive (2 shards on 2 threads) — the epoch
/// algorithm may not change any timing, only wall clock.
#[test]
fn parallel_path_reproduces_headline_latency() {
    let mut c = TcclusterBuilder::new()
        .engine(EngineKind::EventDriven)
        .event_threads(2)
        .build_sim();
    let lat = c.pingpong(0, 1, 64, 50);
    let ns = lat.nanos();
    assert!(
        (ns - 227.0).abs() < 25.0,
        "parallel event engine 64 B half-RTT = {ns:.1} ns (paper: 227 ns)"
    );
}

/// The ~2500 MB/s single-stream bandwidth anchor on the event engine,
/// and exact agreement with one worker at thread counts {2, 4}.
#[test]
fn parallel_path_reproduces_headline_bandwidth() {
    use tcc_msglib::SendMode;
    let bw = |threads: usize| {
        let mut c = TcclusterBuilder::new()
            .engine(EngineKind::EventDriven)
            .event_threads(threads)
            .build_sim();
        c.stream_bandwidth(0, 1, 64, SendMode::WeaklyOrdered, 20)
    };
    let one = bw(1);
    assert!(
        (one - 2500.0).abs() < 400.0,
        "64 B weak bandwidth = {one:.0} MB/s (paper: ~2500)"
    );
    for threads in [2usize, 4] {
        let got = bw(threads);
        assert_eq!(
            got.to_bits(),
            one.to_bits(),
            "{threads} threads: {got} vs {one} MB/s"
        );
    }
}

/// The engine's deterministic work counters for one run of the 4x4
/// smoke input (2 processors per supernode, all-to-all, 2 KiB per flow),
/// driving [`EventEngine`] directly the way `SimCluster::run_workload`
/// does: events handled, credit NOPs sent, credit stalls, DRAM commits,
/// packets sent on the wire, and the northbridges' routed requests and
/// forwarded packets over the run; plus the engine's events by kind and
/// its epoch count.
fn smoke_work_counters(threads: usize) -> ([u64; 7], EventCounts, u64) {
    let mut platform = TcclusterBuilder::new()
        .topology(ClusterTopology::Mesh { x: 4, y: 4 })
        .processors_per_supernode(2)
        .build_sim()
        .platform;
    let nb = |p: &tcc_firmware::machine::Platform| {
        p.nodes.iter().fold((0, 0), |(r, f), n| {
            (r + n.nb.requests_routed, f + n.nb.packets_forwarded)
        })
    };
    let nb0 = nb(&platform);
    for node in &mut platform.nodes {
        node.quiesce();
        node.raw_egress = true;
    }
    let options = EngineOptions {
        threads,
        profile_clock: None,
    };
    let mut engine = EventEngine::with_options(&mut platform, DEFAULT_DRAIN, options);
    for (src, dst) in pattern_pairs(&platform.spec, TrafficPattern::AllToAll) {
        engine.add_flow(&mut platform, src, dst, 2 << 10);
    }
    engine.run_quiescent(&mut platform);
    engine.assert_quiescent_credits();
    let wire: u64 = engine
        .port_ids()
        .into_iter()
        .filter_map(|(n, l)| engine.port(n, l))
        .map(|p| p.tx().stats.packets_sent)
        .sum();
    let nb1 = nb(&platform);
    let counters = [
        engine.events_handled(),
        engine.nops_sent(),
        engine.stalls_no_credit(),
        engine.commits().len() as u64,
        wire,
        nb1.0 - nb0.0,
        nb1.1 - nb0.1,
    ];
    (counters, engine.event_counts(), engine.epochs())
}

/// The simulated work of the smoke input, pinned exactly at t1 to t4.
/// These counts depend on no host clock, so a change that adds or
/// removes simulated work (an extra event per hop, a lost NOP, a second
/// route lookup) fails here however fast or slow the host is.
///
/// The epoch count is pinned too: each horizon depends only on the
/// global event minima, so every thread count runs the same epochs.
///
/// The events by kind were taken on the engine that still queued every
/// event in one heap per shard; they show the per-wire lanes changed no
/// work. Of the 116,286 events, only the 318 pumps (and any injects) go
/// through a shard's heap; arrivals and drains ride the lanes.
#[test]
fn smoke_work_counters_are_pinned() {
    const PINNED: [u64; 7] = [116_286, 38_656, 59_268, 7_680, 77_312, 38_896, 31_216];
    const EPOCHS: u64 = 446;
    const BY_KIND: EventCounts = EventCounts {
        data_arrivals: 38_656,
        nop_arrivals: 38_656,
        drains: 38_656,
        pumps: 318,
        injects: 0,
        cross_shard_sends: 40_960,
    };
    for threads in [1usize, 2, 3, 4] {
        let (counters, by_kind, epochs) = smoke_work_counters(threads);
        assert_eq!(
            counters, PINNED,
            "{threads} threads: [events, nops, stalls, commits, wire packets, \
             nb routed, nb forwarded]"
        );
        assert_eq!(by_kind, BY_KIND, "{threads} threads: events by kind");
        let c = by_kind;
        let kinds = c.data_arrivals + c.nop_arrivals + c.drains + c.pumps + c.injects;
        assert_eq!(kinds, PINNED[0], "{threads} threads: kinds sum to events");
        assert_eq!(epochs, EPOCHS, "{threads} threads: epochs");
    }
}
