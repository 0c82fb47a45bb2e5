//! Ablation of the Fig. 6 measurement artifact: the paper attributes the
//! 5300 MB/s point at 256 KB to "caching structures within the Opteron"
//! absorbing weakly-ordered bursts faster than the link drains them, and
//! explicitly says it "does not reflect the bandwidth performance of the
//! TCCluster link". Our model realises that as a bounded absorption stage
//! (`UarchParams::absorb_capacity_bytes` / `absorb_bytes_per_sec`).
//!
//! This harness varies the absorption capacity and shows the peak move
//! with it — demonstrating the artifact is a modelled *measurement*
//! effect, while the sustained (large-message) bandwidth stays pinned to
//! the link.

use tcc_fabric::series::{Figure, Series};
use tcc_msglib::SendMode;
use tcc_opteron::UarchParams;
use tccluster::TcclusterBuilder;

fn main() {
    let sizes: Vec<usize> = (12..=22).map(|p| 1usize << p).collect();
    // The absorbed-backlog grows at (absorb - wire) rate, so the apparent
    // peak sits near 2x the window capacity.
    let capacities: &[(u64, &str)] = &[
        (64 << 10, "64 KB window"),
        (128 << 10, "128 KB window (paper)"),
        (512 << 10, "512 KB window"),
    ];

    let mut fig = Figure::new(
        "Absorption-window ablation: weakly ordered bandwidth (MB/s)",
        "bytes",
        "MB/s",
    );
    let mut peaks = Vec::new();
    for &(cap, label) in capacities {
        let mut params = UarchParams::shanghai();
        params.absorb_capacity_bytes = cap;
        let mut cluster = TcclusterBuilder::new()
            .dram_per_node(4 << 20)
            .params(params)
            .build_sim();
        let mut series = Series::new(label);
        for &s in &sizes {
            let bw = cluster.stream_bandwidth(0, 1, s, SendMode::WeaklyOrdered, 3);
            series.push(s as f64, bw);
        }
        peaks.push((cap, series.argmax().expect("points")));
        fig.add(series);
    }
    println!("{fig}");

    println!("peak location vs absorption capacity:");
    for &(cap, at) in &peaks {
        println!(
            "  window {:>8} KB -> peak at {:>8} KB",
            cap / 1024,
            at as u64 / 1024
        );
    }
    // The peak tracks the window at ~2x capacity: the paper's 128 KB
    // window puts it at 256 KB, exactly where Fig. 6 shows it.
    assert_eq!(peaks[0].1 as u64, 128 << 10, "small window moves the peak");
    assert_eq!(peaks[1].1 as u64, 256 << 10, "paper window -> paper peak");
    assert_eq!(peaks[2].1 as u64, 1 << 20, "large window pushes it out");
    // Sustained large-message bandwidth is window-independent (the link).
    let big = (4 << 20) as f64;
    let at_big: Vec<f64> = fig
        .series
        .iter()
        .map(|s| s.at(big).expect("4MB point"))
        .collect();
    let spread = (at_big.iter().cloned().fold(f64::MIN, f64::max)
        - at_big.iter().cloned().fold(f64::MAX, f64::min))
        / at_big[0];
    println!(
        "\n4 MB sustained spread across windows: {:.1}%",
        spread * 100.0
    );
    assert!(
        spread < 0.35,
        "sustained bandwidth should be link-dominated"
    );
    println!("ARTIFACT ABLATION OK — the peak is a measurement effect, the link is the truth");
}
