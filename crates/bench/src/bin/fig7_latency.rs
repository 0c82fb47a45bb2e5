//! Regenerates **Figure 7** — TCCluster half-round-trip latency vs
//! message size, against the InfiniBand reference.
//!
//! Paper anchors (§VI): 227 ns for 64 B packets; below 1 µs at 1 KB;
//! InfiniBand around 1.4 µs for minimal packets — a ~4–6× advantage.

use tcc_bench::{check_anchor, fig7_sizes, figure7};

fn main() {
    // Points are independent; sweep them in parallel (cluster per worker).
    let fig = figure7(&fig7_sizes());
    println!("{fig}");

    let tcc = fig.get("TCCluster").expect("series");
    let ib = fig.get("InfiniBand ConnectX").expect("series");
    println!("Paper-vs-measured anchors:");
    let mut ok = true;
    ok &= check_anchor(
        "TCC half-RTT @64 B (ns)",
        227.0,
        tcc.at(64.0).unwrap(),
        0.12,
    );
    ok &= check_anchor(
        "TCC half-RTT @1 KB (ns, < 1000)",
        610.0,
        tcc.at(1024.0).unwrap(),
        0.25,
    );
    ok &= check_anchor("IB one-way @64 B (ns)", 1400.0, ib.at(64.0).unwrap(), 0.10);
    let advantage = ib.at(64.0).unwrap() / tcc.at(64.0).unwrap();
    println!("  TCC advantage at 64 B: {advantage:.1}x (paper: ~4-6x)");
    assert!(
        tcc.at(1024.0).unwrap() < 1000.0,
        "1 KB must stay under 1 us"
    );
    println!(
        "{}",
        if ok {
            "ALL ANCHORS OK"
        } else {
            "SOME ANCHORS DEVIATE"
        }
    );
    println!("\n--- CSV ---\n{}", fig.to_csv());
}
