//! Regenerates the paper's **headline numbers** (abstract & §VII):
//! "a sustained bandwidth of up to 2500 MB/s for messages as small as
//! 64 Byte and a communication latency of 227 ns between two nodes,
//! outperforming other high performance networks by an order of
//! magnitude."

use tcc_baseline::{Ethernet, IbNic};
use tcc_bench::check_anchor;
use tcc_msglib::SendMode;
use tccluster::TcclusterBuilder;

fn main() {
    let mut cluster = TcclusterBuilder::new().build_sim();
    println!("TCCluster headline reproduction (2-node HT800 prototype)\n");

    let lat = cluster.pingpong(0, 1, 64, 100).nanos();
    let bw64 = cluster.stream_bandwidth(0, 1, 64, SendMode::WeaklyOrdered, 50);

    let mut ok = true;
    ok &= check_anchor("half-round-trip latency, 64 B (ns)", 227.0, lat, 0.10);
    ok &= check_anchor("bandwidth, 64 B messages (MB/s)", 2500.0, bw64, 0.10);

    let ib = IbNic::connectx();
    let eth = Ethernet::tengig();
    println!("\nOrder-of-magnitude comparison at 64 B:");
    println!(
        "  {:<24} {:>12} {:>16}",
        "interconnect", "latency", "stream MB/s"
    );
    println!(
        "  {:<24} {:>9.0} ns {:>16.0}",
        "TCCluster (this work)", lat, bw64
    );
    println!(
        "  {:<24} {:>9.0} ns {:>16.0}",
        "InfiniBand ConnectX",
        ib.latency(64).nanos(),
        ib.bandwidth_mb_s(64)
    );
    println!(
        "  {:<24} {:>9.0} ns {:>16.0}",
        "10G Ethernet (TCP)",
        eth.latency(64).nanos(),
        eth.bandwidth_mb_s(64)
    );

    let lat_adv = ib.latency(64).nanos() / lat;
    let bw_adv = bw64 / ib.bandwidth_mb_s(64);
    println!("\n  latency advantage vs IB:   {lat_adv:.1}x");
    println!("  bandwidth advantage vs IB: {bw_adv:.1}x (64 B messages)");
    assert!(lat_adv > 4.0 && bw_adv > 10.0);
    println!(
        "\n{}",
        if ok {
            "ALL ANCHORS OK"
        } else {
            "SOME ANCHORS DEVIATE"
        }
    );
}
