//! Regenerates the paper's in-text multi-hop result (§VI): "we measured
//! multi-hop latencies by binding the benchmark process to different
//! processor sockets using numactl … each hop increases the end-to-end
//! latency by less than 50 ns."
//!
//! Setup mirrors the measurement: two supernodes of eight sockets; the
//! ping side binds to sockets progressively farther from the TCC port, so
//! each step adds one coherent-fabric hop to the same cable crossing.

use tcc_fabric::series::{Figure, Series};
use tccluster::TcclusterBuilder;

fn main() {
    const PROCS: usize = 8;
    let mut cluster = TcclusterBuilder::new()
        .processors_per_supernode(PROCS)
        .build_sim();

    // The East port of supernode 0 is on its last processor; supernode 1
    // is entered at its first processor (West port). Binding the sender to
    // socket (PROCS-1-k) adds k internal hops each way.
    let receiver = PROCS; // supernode 1, processor 0
    let mut fig = Figure::new(
        "Multi-hop latency: 64 B half-RTT vs extra fabric hops",
        "extra hops",
        "ns",
    );
    let mut series = Series::new("TCCluster 64 B half-RTT");
    let mut prev = None;
    let mut deltas = Vec::new();
    for extra in 0..PROCS {
        let sender = PROCS - 1 - extra;
        let lat = cluster.pingpong(sender, receiver, 64, 40).nanos();
        series.push(extra as f64, lat);
        if let Some(p) = prev {
            deltas.push(lat - p);
        }
        prev = Some(lat);
    }
    fig.add(series);
    println!("{fig}");

    println!("Per-hop increments (paper: each hop adds < 50 ns):");
    let mut all_ok = true;
    for (i, d) in deltas.iter().enumerate() {
        let ok = *d > 0.0 && *d < 50.0;
        all_ok &= ok;
        println!(
            "  hop {} -> {}: +{d:.1} ns  {}",
            i,
            i + 1,
            if ok { "OK (<50 ns)" } else { "DEVIATES" }
        );
    }
    let mean = deltas.iter().sum::<f64>() / deltas.len() as f64;
    println!("  mean per-hop increment: {mean:.1} ns");
    assert!(all_ok, "per-hop increment out of the paper's envelope");
    println!("ALL HOPS WITHIN THE PAPER'S <50 ns ENVELOPE");
}
