//! Ablation: the ordering/bandwidth trade-off behind Figure 6's two
//! series. The paper ships exactly two points — sfence after every cache
//! line (strict, ~2000 MB/s) and no fences (weak, ~2700 MB/s sustained).
//! This sweep fills in the curve between them: fence every 1, 2, 4, …
//! cells and never.

use tcc_fabric::series::{Figure, Series};
use tccluster::TcclusterBuilder;

fn main() {
    let mut cluster = TcclusterBuilder::new().build_sim();
    const SIZE: usize = 16 << 10; // 16 KB messages, all on the eager path shape
    let intervals: &[usize] = &[1, 2, 4, 8, 16, 32, 0];

    println!("Sfence-interval ablation ({SIZE} B messages)\n");
    println!("{:>18} {:>14}", "fence every", "MB/s");
    let mut fig = Figure::new("Sfence ablation", "cells between fences", "MB/s");
    let mut series = Series::new("bandwidth");
    let mut results = Vec::new();
    for &every in intervals {
        let bw = cluster.bandwidth_fence_interval(0, 1, SIZE, every, 8);
        let label = if every == 0 {
            "never (weak)".to_string()
        } else {
            format!("{every} cells")
        };
        println!("{label:>18} {bw:>14.0}");
        series.push(if every == 0 { 64.0 } else { every as f64 }, bw);
        results.push((every, bw));
    }
    fig.add(series);

    // Claims: strict (every=1) lands near 2000; relaxing monotonically
    // recovers bandwidth; never-fencing is the fastest.
    let strict = results.iter().find(|(e, _)| *e == 1).expect("strict").1;
    let weak = results.iter().find(|(e, _)| *e == 0).expect("weak").1;
    assert!((strict - 2000.0).abs() < 300.0, "strict = {strict:.0}");
    assert!(weak > strict * 1.25, "weak {weak:.0} vs strict {strict:.0}");
    for w in results.windows(2) {
        let ((ea, a), (eb, b)) = (w[0], w[1]);
        if eb != 0 || ea != 0 {
            assert!(
                b >= a * 0.98,
                "non-monotone at {ea}->{eb}: {a:.0} -> {b:.0}"
            );
        }
    }
    println!(
        "\nstrict {strict:.0} MB/s -> weak {weak:.0} MB/s ({:.2}x)",
        weak / strict
    );
    println!("\n{fig}");
    println!("SFENCE ABLATION OK");
}
