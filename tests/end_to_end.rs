//! Cross-crate integration tests: the whole stack from firmware boot
//! through the message library to the middleware, exercised end to end.

use tcc_firmware::machine::Platform;
use tcc_firmware::tcc_boot::boot;
use tcc_firmware::topology::{ClusterSpec, ClusterTopology, SupernodeSpec};
use tcc_middleware::{Comm, GlobalArray, ReduceOp};
use tcc_msglib::SendMode;
use tcc_opteron::UarchParams;
use tccluster::{ShmCluster, TcclusterBuilder};

const MB: u64 = 1 << 20;

#[test]
fn paper_prototype_full_stack() {
    // Boot the two-board prototype, reproduce both headline numbers, and
    // confirm they beat the InfiniBand reference by the paper's margins.
    let mut sim = TcclusterBuilder::new().build_sim();
    assert_eq!(sim.boot.selftest_pairs, 2);

    let lat = sim.pingpong(0, 1, 64, 100).nanos();
    assert!((lat - 227.0).abs() < 25.0, "latency {lat:.1} ns");

    let bw = sim.stream_bandwidth(0, 1, 64, SendMode::WeaklyOrdered, 30);
    assert!((bw - 2500.0).abs() < 300.0, "bandwidth {bw:.0} MB/s");

    let ib = tcc_baseline::IbNic::connectx();
    assert!(ib.latency(64).nanos() / lat > 4.0, "latency advantage");
    assert!(bw / ib.bandwidth_mb_s(64) > 10.0, "bandwidth advantage");
}

#[test]
fn chain_boot_and_multihop_latency_monotone() {
    let mut sim = TcclusterBuilder::new()
        .topology(ClusterTopology::Chain(4))
        .build_sim();
    // Latency to farther supernodes grows by a bounded per-hop increment.
    let l1 = sim.pingpong(0, 1, 64, 30).nanos();
    let l2 = sim.pingpong(0, 2, 64, 30).nanos();
    let l3 = sim.pingpong(0, 3, 64, 30).nanos();
    assert!(l1 < l2 && l2 < l3, "{l1:.0} {l2:.0} {l3:.0}");
    let per_hop_a = l2 - l1;
    let per_hop_b = l3 - l2;
    // Supernode-to-supernode hops cross a full cable + NB forward; they
    // must be bounded and roughly equal.
    assert!(per_hop_a < 150.0 && per_hop_b < 150.0);
    assert!((per_hop_a - per_hop_b).abs() < 30.0);
}

#[test]
fn mesh_boot_every_pair_communicates() {
    let spec = ClusterSpec::new(
        SupernodeSpec::new(2, MB),
        ClusterTopology::Mesh { x: 2, y: 2 },
    );
    let mut platform = Platform::assemble(spec, UarchParams::shanghai());
    let report = boot(&mut platform);
    assert_eq!(report.selftest_pairs, 12, "4 supernodes, all ordered pairs");
    // Interrupt containment was verified as part of boot; the trace
    // records the step.
    assert!(platform
        .trace
        .grep("verify-interrupt-containment")
        .len()
        .gt(&0));
}

#[test]
fn firmware_trace_proves_the_trick_ordering() {
    let mut sim = TcclusterBuilder::new().build_sim();
    let trace = &sim.platform.trace;
    // The §IV.B mechanism, as recorded facts:
    assert!(trace.happened_before("trained coherent", "force-ncHT programmed"));
    assert!(trace.happened_before("force-ncHT programmed", "warm-reset"));
    assert!(trace.happened_before("warm-reset", "trained non-coherent"));
    // And it still works after the boot: data actually flows.
    let lat = sim.pingpong(0, 1, 64, 10);
    assert!(lat.nanos() > 100.0 && lat.nanos() < 400.0);
}

#[test]
fn mpi_over_shm_cluster_convergence() {
    // A small iterative solve: distributed dot products via allreduce.
    const N: usize = 6;
    let results = ShmCluster::new(N, SendMode::WeaklyOrdered).run(|ctx| {
        let mut comm = Comm::new(ctx);
        let me = comm.rank() as f64;
        // x = rank-indexed vector; compute global sum of squares twice.
        let mut v = vec![me + 1.0];
        comm.allreduce(ReduceOp::Sum, &mut v);
        let s1 = v[0];
        comm.barrier();
        let mut w = vec![s1 * (me + 1.0)];
        comm.allreduce(ReduceOp::Sum, &mut w);
        w[0]
    });
    let s1: f64 = (1..=6).map(|i| i as f64).sum(); // 21
    let expect = s1 * s1;
    assert!(results.iter().all(|&r| r == expect), "{results:?}");
}

#[test]
fn pgas_and_mpi_share_a_cluster_run_sequentially() {
    // PGAS phase first, global barrier, then MPI phase — mirrors how an
    // application would mix models (never interleaved, as documented).
    let results = ShmCluster::new(4, SendMode::WeaklyOrdered).run(|ctx| {
        let mut ga = GlobalArray::new(ctx, 8);
        ga.put(ctx, (ctx.rank * 2) % 8, ctx.rank as f64);
        ga.put(ctx, (ctx.rank * 2 + 1) % 8, ctx.rank as f64);
        ga.fence(ctx);
        let mine: f64 = ga.local().iter().sum();
        // MPI phase.
        let mut comm = Comm::new(ctx);
        let mut v = vec![mine];
        comm.allreduce(ReduceOp::Sum, &mut v);
        v[0]
    });
    let expect: f64 = (0..4).map(|r| 2.0 * r as f64).sum();
    assert!(results.iter().all(|&r| r == expect), "{results:?}");
}

#[test]
fn strict_and_weak_modes_agree_functionally() {
    for mode in [SendMode::StrictlyOrdered, SendMode::WeaklyOrdered] {
        let results = ShmCluster::new(2, mode).run(|ctx| {
            if ctx.rank == 0 {
                let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
                ctx.send(1, &payload);
                ctx.recv(1)
            } else {
                let m = ctx.recv(0);
                ctx.send(0, &m[..64]);
                m
            }
        });
        assert_eq!(results[1].len(), 10_000);
        assert_eq!(results[0].len(), 64);
    }
}

#[test]
fn link_speed_scales_measured_bandwidth() {
    // HT3 backplane (future work in the paper) vs the HT800 cable.
    let slow = TcclusterBuilder::new().build_sim();
    drop(slow);
    let mut proto = TcclusterBuilder::new().build_sim();
    let mut fast = TcclusterBuilder::new()
        .tcc_link(tcc_ht::link::LinkConfig::HT3_FULL)
        .build_sim();
    let bw_proto = proto.stream_bandwidth(0, 1, 4 << 20, SendMode::WeaklyOrdered, 2);
    let bw_fast = fast.stream_bandwidth(0, 1, 4 << 20, SendMode::WeaklyOrdered, 2);
    // 3.25x raw link speedup; the sustained number must follow (bounded
    // by the absorption stage, so somewhat less).
    assert!(bw_fast > bw_proto * 1.5, "{bw_proto:.0} -> {bw_fast:.0}");
}
