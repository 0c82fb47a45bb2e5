//! # tcc-bench — experiment harnesses
//!
//! One binary per paper figure/table (see DESIGN.md's experiment index).
//! This library holds the shared sweep and reporting helpers so every
//! binary prints through the same [`tcc_fabric::series::Figure`]
//! machinery that the tests assert on. Simulator wall-clock floors live
//! in `tests/speed_floors.rs`.

use rayon::prelude::*;
use tcc_baseline::IbNic;
use tcc_fabric::series::{Figure, Series};
use tcc_msglib::SendMode;
use tccluster::TcclusterBuilder;

/// Message-size sweep of Figure 6 (64 B … 4 MB, powers of two).
pub fn fig6_sizes() -> Vec<usize> {
    (6..=22).map(|p| 1usize << p).collect()
}

/// Message-size sweep of Figure 7 (64 B … 4 KB).
pub fn fig7_sizes() -> Vec<usize> {
    (6..=12).map(|p| 1usize << p).collect()
}

/// Iterations per point, scaled down for large messages so the sweep
/// stays fast.
pub fn iters_for(size: usize) -> u32 {
    match size {
        0..=4096 => 20,
        4097..=262_144 => 8,
        _ => 3,
    }
}

/// Build the Figure 6 dataset over `sizes`: weakly ordered, strictly
/// ordered, and the ConnectX reference. The points are computed in
/// parallel: each worker boots its own prototype cluster and sweeps a
/// contiguous chunk of `sizes`. Every measurement resets the simulated
/// timebase first, so the points are independent and the dataset is
/// bit-identical to a sequential sweep — parallelism trades wall clock
/// only.
pub fn figure6(sizes: &[usize]) -> Figure {
    let pts: Vec<(f64, f64, f64)> = sizes
        .par_iter()
        .map_init(
            || TcclusterBuilder::new().build_sim(),
            |cluster, &s| {
                let it = iters_for(s);
                (
                    s as f64,
                    cluster.stream_bandwidth(0, 1, s, SendMode::WeaklyOrdered, it),
                    cluster.stream_bandwidth(0, 1, s, SendMode::StrictlyOrdered, it),
                )
            },
        )
        .collect();
    let mut fig = Figure::new(
        "Figure 6 — TCCluster bandwidth (MB/s) vs message size (B)",
        "bytes",
        "MB/s",
    );
    let mut weak = Series::new("TCC weakly ordered");
    let mut strict = Series::new("TCC strictly ordered");
    let mut ib = Series::new("InfiniBand ConnectX");
    let nic = IbNic::connectx();
    for (x, w, st) in pts {
        weak.push(x, w);
        strict.push(x, st);
        ib.push(x, nic.bandwidth_mb_s(x as usize));
    }
    fig.add(weak);
    fig.add(strict);
    fig.add(ib);
    fig
}

/// Build the Figure 7 dataset over `sizes`: TCCluster half-round-trip
/// latency plus the ConnectX one-way reference, in nanoseconds. Parallel
/// and bit-identical to a sequential sweep, as in [`figure6`].
pub fn figure7(sizes: &[usize]) -> Figure {
    let pts: Vec<(f64, f64)> = sizes
        .par_iter()
        .map_init(
            || TcclusterBuilder::new().build_sim(),
            |cluster, &s| (s as f64, cluster.pingpong(0, 1, s, 50).nanos()),
        )
        .collect();
    let mut fig = Figure::new(
        "Figure 7 — TCCluster half-round-trip latency (ns) vs message size (B)",
        "bytes",
        "ns",
    );
    let mut tcc = Series::new("TCCluster");
    let mut ib = Series::new("InfiniBand ConnectX");
    let nic = IbNic::connectx();
    for (x, ns) in pts {
        tcc.push(x, ns);
        ib.push(x, nic.latency(x as usize).nanos());
    }
    fig.add(tcc);
    fig.add(ib);
    fig
}

/// Print a paper-vs-measured anchor line and return whether it is within
/// `tol_frac` of the paper's value.
pub fn check_anchor(name: &str, paper: f64, measured: f64, tol_frac: f64) -> bool {
    let ok = (measured - paper).abs() <= paper * tol_frac;
    println!(
        "  {:<44} paper {:>9.1}   measured {:>9.1}   {}",
        name,
        paper,
        measured,
        if ok { "OK" } else { "DEVIATES" }
    );
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_dataset_reproduces_paper_shape() {
        let fig = figure6(&[64, 1024, 256 << 10, 4 << 20]);
        let weak = fig.get("TCC weakly ordered").unwrap();
        let strict = fig.get("TCC strictly ordered").unwrap();
        let ib = fig.get("InfiniBand ConnectX").unwrap();

        // Who wins: TCC beats IB everywhere, by >10x at 64 B.
        for &(x, y) in &weak.points {
            assert!(y > ib.at(x).unwrap(), "weak < IB at {x}");
        }
        assert!(weak.at(64.0).unwrap() / ib.at(64.0).unwrap() > 10.0);
        // The artifact peak sits at 256 KB.
        assert_eq!(weak.argmax(), Some((256 << 10) as f64));
        // Strict plateaus near 2000 and stays below weak.
        for &(x, y) in &strict.points {
            assert!(y <= weak.at(x).unwrap() * 1.05, "strict above weak at {x}");
        }
    }

    #[test]
    fn parallel_sweeps_match_sequential_bitwise() {
        // The parallel sweep boots a cluster per worker; every point
        // resets the simulated timebase, so the numbers must be exactly
        // those of one cluster measuring the sizes in order.
        let mut c = TcclusterBuilder::new().build_sim();
        let sizes = [64usize, 1024, 64 << 10];
        let fig6 = figure6(&sizes);
        for (name, mode) in [
            ("TCC weakly ordered", SendMode::WeaklyOrdered),
            ("TCC strictly ordered", SendMode::StrictlyOrdered),
        ] {
            let seq: Vec<(f64, f64)> = sizes
                .iter()
                .map(|&s| (s as f64, c.stream_bandwidth(0, 1, s, mode, iters_for(s))))
                .collect();
            assert_eq!(fig6.get(name).unwrap().points, seq, "{name} diverged");
        }
        let lat_sizes = [64usize, 512];
        let seq7: Vec<(f64, f64)> = lat_sizes
            .iter()
            .map(|&s| (s as f64, c.pingpong(0, 1, s, 50).nanos()))
            .collect();
        assert_eq!(figure7(&lat_sizes).get("TCCluster").unwrap().points, seq7);
    }

    #[test]
    fn fig7_dataset_reproduces_paper_shape() {
        let fig = figure7(&[64, 1024]);
        let tcc = fig.get("TCCluster").unwrap();
        let ib = fig.get("InfiniBand ConnectX").unwrap();
        // ~4-6x advantage at minimal size (paper: 227 ns vs ~1.4 us).
        let ratio = ib.at(64.0).unwrap() / tcc.at(64.0).unwrap();
        assert!(ratio > 4.0, "advantage only {ratio:.1}x");
        // 1 KB still below 1 us.
        assert!(tcc.at(1024.0).unwrap() < 1000.0);
    }
}
