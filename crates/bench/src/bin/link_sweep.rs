//! Regenerates the paper's **link-speed claims** (§III and §V): HT links
//! run from 200 MHz/8 bit at boot (400 MB/s) through the prototype's
//! HT800/16 bit (1.6 Gbit/s/lane) up to HT3 at 2.6–3.2 GHz
//! (up to 12.8 GB/s unidirectional), and the boot sequence raises the
//! TCC link from 400 to 4800 Mbit/s.
//!
//! The sweep boots a fresh two-node cluster per configuration and reports
//! raw/effective link bandwidth plus measured end-to-end numbers.

use rayon::prelude::*;
use tcc_fabric::series::{Figure, Series};
use tcc_fabric::time::Duration;
use tcc_ht::link::LinkConfig;
use tcc_msglib::SendMode;
use tccluster::TcclusterBuilder;

fn main() {
    let configs: Vec<(&str, LinkConfig)> = vec![
        ("HT200/8 (boot)", LinkConfig::BOOT),
        (
            "HT400/16",
            LinkConfig {
                clock_mhz: 400,
                width_bits: 16,
                hop_latency: Duration::from_nanos(50),
            },
        ),
        ("HT800/16 (prototype)", LinkConfig::PROTOTYPE),
        (
            "HT1200/16",
            LinkConfig {
                clock_mhz: 1200,
                width_bits: 16,
                hop_latency: Duration::from_nanos(50),
            },
        ),
        ("HT2600/16 (HT3)", LinkConfig::HT3_FULL),
        (
            "HT3200/16 (HT3.1 max)",
            LinkConfig {
                clock_mhz: 3200,
                width_bits: 16,
                hop_latency: Duration::from_nanos(50),
            },
        ),
    ];

    println!("Link configuration sweep (paper §III: up to 12.8 GB/s/link, ~50 ns/hop)\n");
    println!(
        "{:<24} {:>12} {:>12} {:>14} {:>14} {:>12}",
        "config", "Gbit/lane", "raw GB/s", "eff GB/s", "4MB weak MB/s", "64B ns"
    );

    let mut fig = Figure::new("Link sweep", "clock MHz", "measured 4MB MB/s");
    let mut series = Series::new("weak @4MB");
    // Each configuration boots its own cluster, so the sweep points are
    // fully independent: measure them in parallel, print in order.
    let measured: Vec<(f64, f64)> = configs
        .par_iter()
        .map(|&(_, cfg)| {
            let mut cluster = TcclusterBuilder::new().tcc_link(cfg).build_sim();
            let bw = cluster.stream_bandwidth(0, 1, 4 << 20, SendMode::WeaklyOrdered, 2);
            let lat = cluster.pingpong(0, 1, 64, 30).nanos();
            (bw, lat)
        })
        .collect();
    for ((name, cfg), &(bw, lat)) in configs.iter().zip(&measured) {
        println!(
            "{:<24} {:>12.1} {:>12.2} {:>14.2} {:>14.0} {:>12.1}",
            name,
            cfg.gbit_per_lane(),
            cfg.raw_bytes_per_sec() as f64 / 1e9,
            cfg.effective_bytes_per_sec() as f64 / 1e9,
            bw,
            lat
        );
        series.push(cfg.clock_mhz as f64, bw);
    }
    fig.add(series);

    // Paper claims to verify.
    let boot = LinkConfig::BOOT;
    assert_eq!(boot.raw_bytes_per_sec(), 400_000_000, "400 Mbit/s x8 boot");
    let proto = LinkConfig::PROTOTYPE;
    assert!(
        (proto.gbit_per_lane() - 1.6).abs() < 1e-9,
        "1.6 Gbit/s/lane"
    );
    let max = configs.last().expect("configs").1;
    assert_eq!(max.raw_bytes_per_sec(), 12_800_000_000, "12.8 GB/s/link");
    // Boot sequence speed jump: 400 -> 4800 Mbit/s total (§V): 8 lanes at
    // 400 Mbit vs 16 lanes going from that to 4.8 Gbit aggregate ratio.
    println!(
        "\nboot-to-TCC link speed-up: {:.0}x (paper: 400 -> 4800 Mbit/s per §V)",
        proto.raw_bytes_per_sec() as f64 / boot.raw_bytes_per_sec() as f64
    );
    println!("\n--- CSV ---\n{}", fig.to_csv());
    println!("ALL LINK CLAIMS OK");
}
