//! Ablation: write combining on vs off (paper §VI: "Our approach makes
//! intensive use of the write combining capability to generate maximum
//! sized HyperTransport packets which reduce the command overhead").
//!
//! With the remote window mapped uncacheable instead of write-combining,
//! every 64-bit store becomes its own serialised HT packet: 8 bytes of
//! payload behind an 8-byte command header, with no store overlap.

use tcc_msglib::SendMode;
use tccluster::TcclusterBuilder;

fn main() {
    let mut cluster = TcclusterBuilder::new().build_sim();
    const SIZES: &[usize] = &[1 << 10, 16 << 10, 256 << 10];

    println!("Write-combining ablation\n");
    println!(
        "{:>12} {:>16} {:>16} {:>10}",
        "size", "WC on MB/s", "WC off MB/s", "ratio"
    );
    let mut worst_ratio = f64::MAX;
    for &size in SIZES {
        let with_wc = cluster.stream_bandwidth(0, 1, size, SendMode::WeaklyOrdered, 5);
        let without = cluster.bandwidth_without_wc(0, 1, size, 3);
        let ratio = with_wc / without;
        worst_ratio = worst_ratio.min(ratio);
        println!("{size:>12} {with_wc:>16.0} {without:>16.0} {ratio:>9.1}x");
    }

    // The claim: WC is essential. The wire-efficiency gap alone is
    // 64/72 vs 8/16 (2x); UC stores additionally lose all store-pipeline
    // overlap, so large transfers win ~5x.
    assert!(
        worst_ratio > 2.0,
        "write combining should win everywhere, worst ratio {worst_ratio:.1}"
    );
    println!("\nwrite combining is worth at least {worst_ratio:.1}x — WC ABLATION OK");
}
