//! Cross-validation of the two fabric timing engines.
//!
//! The chained analytic engine and the discrete-event engine model the
//! same hardware; wherever their validity domains overlap (single-flow
//! eager traffic) they must tell the same story. These tests pin them to
//! each other across randomized link configurations, and pin the event
//! engine's conservation properties (no packet lost, every credit home,
//! TCC discipline clean) under the concurrent workloads only it can run.
//! Where the engines time differently by design (the per-message
//! drivers), each engine's readings are pinned bit for bit instead.

use proptest::prelude::*;
use tcc_firmware::topology::ClusterTopology;
use tcc_ht::link::LinkConfig;
use tcc_msglib::SendMode;
use tcc_verify::{check_conservation, InvariantMonitor, PortRef, TransitCounts};
use tccluster::{EngineKind, TcclusterBuilder, TrafficPattern};

/// Wire shapes worth cross-validating: real HT clock steps around the
/// paper's prototype, both cable widths, and a spread of cable lengths.
fn arb_link() -> impl Strategy<Value = LinkConfig> {
    (
        prop_oneof![Just(400), Just(600), Just(800), Just(1_000), Just(1_200)],
        prop_oneof![Just(8u8), Just(16u8)],
        40u64..=60,
    )
        .prop_map(|(clock_mhz, width_bits, hop_ns)| LinkConfig {
            clock_mhz,
            width_bits,
            hop_latency: tcc_fabric::time::Duration::from_nanos(hop_ns),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Single-flow eager streaming goodput agrees between the engines
    /// within tolerance for any link shape, message size and send mode.
    /// (Eager sizes only: the rendezvous clock-stop is sender-side by
    /// design in the chained engine and delivery-side in the event
    /// engine, so the paper's absorption artifact is chained-only.)
    #[test]
    fn engines_agree_on_single_flow_goodput(
        link in arb_link(),
        size_exp in 6u32..=10,
        mode in prop_oneof![Just(SendMode::WeaklyOrdered), Just(SendMode::StrictlyOrdered)],
    ) {
        let size = 1usize << size_exp;
        let builder = TcclusterBuilder::new().tcc_link(link);
        let mut chained = builder.clone().build_sim();
        let mut event = builder.engine(EngineKind::EventDriven).build_sim();
        let bw_c = chained.stream_bandwidth(0, 1, size, mode, 20);
        let bw_e = event.stream_bandwidth(0, 1, size, mode, 20);
        let err = (bw_e - bw_c).abs() / bw_c;
        prop_assert!(
            err < 0.12,
            "engines disagree at {size} B {mode:?} on {link:?}: \
             chained {bw_c:.0} vs event {bw_e:.0} MB/s ({:.1}%)",
            err * 100.0
        );
    }

    /// Half-round-trip latency agrees between the engines for eager
    /// ping-pong at any link shape.
    #[test]
    fn engines_agree_on_latency(link in arb_link(), size_exp in 6u32..=9) {
        let size = 1usize << size_exp;
        let builder = TcclusterBuilder::new().tcc_link(link);
        let mut chained = builder.clone().build_sim();
        let mut event = builder.engine(EngineKind::EventDriven).build_sim();
        let lat_c = chained.pingpong(0, 1, size, 15).nanos();
        let lat_e = event.pingpong(0, 1, size, 15).nanos();
        let err = (lat_e - lat_c).abs() / lat_c;
        prop_assert!(
            err < 0.10,
            "latency disagrees at {size} B on {link:?}: \
             chained {lat_c:.1} vs event {lat_e:.1} ns"
        );
    }
}

/// The tentpole conservation pin: concurrent all-to-all on a 2x2 mesh
/// through the event engine, with the tcc-verify invariant monitors
/// mounted on the packet path, delivers every injected packet, engages
/// flow control, returns every credit, and trips no invariant.
#[test]
fn mesh_all_to_all_conserves_packets_and_credits() {
    let mut cluster = TcclusterBuilder::new()
        .topology(ClusterTopology::Mesh { x: 2, y: 2 })
        .processors_per_supernode(2)
        .engine(EngineKind::EventDriven)
        .build_sim();
    let (monitor, handle) = InvariantMonitor::new();
    cluster.platform.with_monitors(monitor);

    let report = cluster.run_workload(TrafficPattern::AllToAll, 32 << 10);

    // Every packet injected by every flow landed in its window.
    assert_eq!(report.flows.len(), 12);
    assert_eq!(report.lost_packets(), 0, "{report:?}");
    assert_eq!(report.injected_packets, 12 * 512);
    for flow in &report.flows {
        assert_eq!(
            flow.delivered_bytes,
            32 << 10,
            "flow {}->{} incomplete",
            flow.src,
            flow.dst
        );
        assert!(flow.goodput_mbps() > 0.0);
    }
    // Contention is real: someone ran out of credits along the way.
    assert!(
        report.stalls_no_credit > 0,
        "all-to-all on a 2x2 mesh never hit flow control"
    );

    // The monitors saw every wire crossing — data hops *and* the credit
    // NOPs riding the reverse directions — and stayed clean.
    assert!(
        handle.is_clean(),
        "invariant violations: {:?}",
        handle.with(|m| m.violations.clone())
    );
    assert!(
        handle.packets_seen() > report.delivered_packets,
        "monitor must also see forwarded hops and credit NOPs: {} vs {}",
        handle.packets_seen(),
        report.delivered_packets
    );

    // Credit-ledger conservation on every directed wire: at quiescence
    // nothing is in transit, so the transmitter's pools plus the
    // receiver's occupancy must account for every credit exactly.
    let engine = cluster.event_engine().expect("event engine");
    let mut audited = 0;
    for (node, link) in engine.port_ids() {
        let port = engine.port(node, link).expect("listed port");
        let (peer, peer_link) = port.peer();
        let peer_port = engine.port(peer, peer_link).expect("peer port");
        let violations = check_conservation(
            PortRef { node, link: link.0 },
            port.tx().credits(),
            peer_port.rx().buffers(),
            &TransitCounts::default(),
        );
        assert!(violations.is_empty(), "credit ledger: {violations:?}");
        audited += 1;
    }
    // 2x2 mesh of 2-proc supernodes: 4 TCC cables + 4 board links, two
    // directions each.
    assert_eq!(audited, 16, "expected every directed wire to be audited");
}

/// Hotspot and halo patterns also complete without loss (smoke-level
/// pins for the congestion workloads the example drives).
#[test]
fn hotspot_and_halo_complete_without_loss() {
    let mut cluster = TcclusterBuilder::new()
        .topology(ClusterTopology::Mesh { x: 2, y: 2 })
        .processors_per_supernode(2)
        .engine(EngineKind::EventDriven)
        .build_sim();
    for pattern in [
        TrafficPattern::Hotspot { target: 0 },
        TrafficPattern::Halo,
        TrafficPattern::Single { src: 0, dst: 3 },
    ] {
        let report = cluster.run_workload(pattern, 8 << 10);
        assert_eq!(report.lost_packets(), 0, "{pattern:?}: {report:?}");
        assert!(report.delivered_packets > 0, "{pattern:?} moved nothing");
    }
}

/// Bit-exact pins for the per-message drivers on both engines: the
/// sfence-interval and write-combining ablations, and streaming at
/// rendezvous sizes. The chained engine stamps sender-side retire, the
/// event engine delivery completion; both must keep these exact
/// readings (`f64::to_bits`) through any rework of the timing loop.
#[test]
fn per_message_drivers_are_pinned_on_both_engines() {
    const PINS: [(EngineKind, [u64; 8]); 2] = [
        (
            EngineKind::Chained,
            [
                0x40b5b5511c6afcb6, // 5557.317
                0x40a02963f4ccd24f, // 2068.695
                0x40aaa812d21f9b0f, // 3412.037
                0x4091a7c6259ac1ce, // 1129.944
                0x4090f9efc1b257e4, // 1086.484
                0x40ab5c90aafc24cf, // 3502.283
                0x409aa9ad4c2b7c13, // 1706.419
                0x40b54b1f7f7efeea, // 5451.123
            ],
        ),
        (
            EngineKind::EventDriven,
            [
                0x40a0a52a053f12d0, // 2130.582
                0x409e8bc470b4706d, // 1954.942
                0x40a0d1388765a48c, // 2152.610
                0x408101004e017ae2, // 544.125
                0x40784049be9972f2, // 388.018
                0x40a03a09c3ccead2, // 2077.019
                0x4099a5b66191a6a1, // 1641.428
                0x40a5ed42a80fa13d, // 2806.630
            ],
        ),
    ];
    for (kind, pins) in PINS {
        let mut c = TcclusterBuilder::new().engine(kind).build_sim();
        let got = [
            c.bandwidth_fence_interval(0, 1, 4096, 0, 3),
            c.bandwidth_fence_interval(0, 1, 4096, 1, 3),
            c.bandwidth_fence_interval(0, 1, 16 << 10, 4, 2),
            c.bandwidth_without_wc(0, 1, 1 << 10, 2),
            c.bandwidth_without_wc(0, 1, 100, 2),
            c.stream_bandwidth(0, 1, 4096, SendMode::WeaklyOrdered, 3),
            c.stream_bandwidth(0, 1, 4096, SendMode::StrictlyOrdered, 3),
            c.stream_bandwidth(0, 1, 256 << 10, SendMode::WeaklyOrdered, 2),
        ];
        for (i, (mbps, pin)) in got.into_iter().zip(pins).enumerate() {
            assert_eq!(
                mbps.to_bits(),
                pin,
                "{kind:?} point {i}: {mbps} MB/s, pinned {}",
                f64::from_bits(pin)
            );
        }
    }
}
