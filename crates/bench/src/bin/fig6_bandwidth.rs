//! Regenerates **Figure 6** — TCCluster bandwidth vs message size, with
//! the paper's two send mechanisms and the InfiniBand reference.
//!
//! Paper anchors (§VI): weakly ordered sustains ~2700 MB/s with an
//! apparent peak of ~5300 MB/s at 256 KB (sender-side buffering artifact,
//! per the paper's own explanation); strictly ordered plateaus at
//! ~2000 MB/s; 64 B messages reach ~2500 MB/s; ConnectX reaches 200 /
//! 1500 / 2500 MB/s at 64 B / 1 KB / 1 MB.

use tcc_bench::{check_anchor, fig6_sizes, figure6};
use tcc_msglib::SendMode;

fn main() {
    // Sweep points are independent (each resets the sim timebase), so
    // they run in parallel — one booted cluster per worker thread.
    let fig = figure6(&fig6_sizes());
    println!("{fig}");

    println!("Paper-vs-measured anchors:");
    let weak = fig.get("TCC weakly ordered").expect("series");
    let strict = fig.get("TCC strictly ordered").expect("series");
    let ib = fig.get("InfiniBand ConnectX").expect("series");
    let mut ok = true;
    ok &= check_anchor("weak @64 B (MB/s)", 2500.0, weak.at(64.0).unwrap(), 0.15);
    ok &= check_anchor(
        "weak peak @256 KB (MB/s)",
        5300.0,
        weak.at((256 << 10) as f64).unwrap(),
        0.15,
    );
    ok &= check_anchor(
        "weak sustained @4 MB (MB/s)",
        2700.0,
        weak.at((4 << 20) as f64).unwrap(),
        0.15,
    );
    ok &= check_anchor(
        "strict plateau @4 KB (MB/s)",
        2000.0,
        strict.at(4096.0).unwrap(),
        0.15,
    );
    ok &= check_anchor("IB @64 B (MB/s)", 200.0, ib.at(64.0).unwrap(), 0.15);
    ok &= check_anchor("IB @1 KB (MB/s)", 1500.0, ib.at(1024.0).unwrap(), 0.15);
    ok &= check_anchor(
        "IB @1 MB (MB/s)",
        2500.0,
        ib.at((1 << 20) as f64).unwrap(),
        0.15,
    );
    println!(
        "\npeak location: {} B (paper: 262144 B)",
        weak.argmax().unwrap()
    );
    println!(
        "{}",
        if ok {
            "ALL ANCHORS OK"
        } else {
            "SOME ANCHORS DEVIATE"
        }
    );

    // Also emit machine-readable data.
    println!("\n--- CSV ---\n{}", fig.to_csv());

    // Sanity check usable from scripts: exit nonzero if the shape broke.
    let strict_flat = strict.at(4096.0).unwrap();
    assert!(strict_flat < weak.at(4096.0).unwrap());
    let _ = SendMode::WeaklyOrdered;
}
