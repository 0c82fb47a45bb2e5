//! Wall-clock floors: how fast the *host* executes the reproduction.
//!
//! The paper's figures measure simulated time; these guards measure
//! wallclock, so that a catastrophic slowdown of the engine behind every
//! sweep (an accidental O(n^2) path, a debug-mode queue) fails the suite.
//! perfbench (`perfbench/`) is the timing harness with the spread, the
//! per-layer costs and the A/B verdicts; this file only holds the floors.
//!
//! Each guard takes the best of [`REPS`] runs. Guards that depend on host
//! parallelism skip, with a printed reason, on hosts without the CPUs to
//! express them. Timings mean nothing in a debug build, so every test is
//! ignored there; run them with
//! `cargo test --release -p tcc-bench --test speed_floors -- --nocapture`.

// The speed floors are a legitimate wallclock consumer (clippy.toml).
#![allow(clippy::disallowed_methods)]

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use tcc_bench::{fig6_sizes, figure6};
use tcc_msglib::SendMode;
use tccluster::firmware::topology::ClusterTopology;
use tccluster::{EngineKind, ShmCluster, TcclusterBuilder, TrafficPattern};

/// Wallclock of the pre-change harness on the reference dev host, recorded
/// immediately before the zero-allocation refactor landed (same sweep, same
/// binary).
const PRE_CHANGE_FIG6_MS: f64 = 695.8;
/// Recorded on a multi-core reference host. The storm is a 2-thread
/// ping-pong: on a single-CPU host every message leg forces a scheduler
/// switch, capping throughput near 1/(2·context-switch) regardless of
/// code quality — see docs/hot-path.md ("shm storm and host topology").
const PRE_CHANGE_STORM_MSGS_PER_SEC: f64 = 591_846.0;
/// 8×8 all-to-all single-thread rate of the pre-optimization engine
/// (mutex mailboxes, owned-event calendar queue, unclipped flow wake
/// fan-out), best backend (BinaryHeap), recorded on its dev host
/// immediately before the mailbox/arena/ladder work landed.
const PRE_CHANGE_MESH8_T1_EPS: f64 = 2_530_000.0;
/// Best 8×8 t1 rate recorded after the ring-mailbox, arena-event and
/// ladder-queue work on its dev host — the floor the flattened exec path
/// must not regress below. Like every cross-host wallclock
/// guard, it is applied with [`MESH8_T1_SPEEDUP_FLOOR`] as margin.
const MESH8_T1_FLOOR_EPS: f64 = 2_754_695.0;

/// 8×8 all-to-all flow size: 4 KB per flow × 4032 flows keeps the run in
/// the millions-of-events regime without dominating the suite.
const MESH8_FLOW_BYTES: u64 = 4 << 10;

/// Single-thread floor on the 4×4 smoke workload (2 KiB per flow), in
/// events/sec (release build). Recorded at roughly a quarter of the tuned
/// engine's rate on the slowest CI-class host we target: generous enough
/// for noisy shared runners, low enough that backsliding to the
/// pre-optimization engine (which ran well below it) fails loudly.
const SMOKE_T1_FLOOR_EPS: f64 = 3_000_000.0;

/// The target the optimization work drives toward: 8×8
/// single-thread events/sec, asserted on dev-class (>= 8 CPU) hosts.
/// Stage attribution shows event *execution* (routing + credit
/// machinery) dominates — reaching this target is model-exec work,
/// tracked in ROADMAP.md.
const MESH8_T1_TARGET_EPS: f64 = 20_000_000.0;
/// Floor on any host for t1 vs the recorded pre-change rate. The
/// baseline was recorded on one specific host, so this guard — like the
/// fig6 and storm guards — carries a generous cross-host margin and only
/// catches catastrophic regressions (an accidental O(n^2) path, a
/// debug-mode queue). Measured 1.13-1.22x on the recording host.
const MESH8_T1_SPEEDUP_FLOOR: f64 = 0.6;

/// Repetitions per guard; the best run is checked. Wallclock on a shared
/// host is contaminated by scheduler interference in one direction only,
/// so the best run is the standard estimator of the code's actual speed.
const REPS: usize = 3;

/// Held by every test for its whole run: two timings that overlap would
/// measure each other.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The highest of [`REPS`] rates.
fn best_rate(mut f: impl FnMut() -> f64) -> f64 {
    (0..REPS).map(|_| f()).fold(0.0, f64::max)
}

/// Host events/sec of one all-to-all on a `side`×`side` mesh of
/// two-socket supernodes at `threads` workers.
fn all_to_all_eps(side: usize, flow_bytes: u64, threads: usize) -> f64 {
    let mut cluster = TcclusterBuilder::new()
        .topology(ClusterTopology::Mesh { x: side, y: side })
        .processors_per_supernode(2)
        .engine(EngineKind::EventDriven)
        .event_threads(threads)
        .build_sim();
    let t0 = Instant::now();
    let report = cluster.run_workload(TrafficPattern::AllToAll, flow_bytes);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(report.lost_packets(), 0, "{side}x{side} lost packets");
    let eps = report.events as f64 / dt;
    println!("  {side}x{side} x{threads} threads: {eps:>12.0} events/sec");
    eps
}

fn mesh8_best_t1() -> f64 {
    best_rate(|| all_to_all_eps(8, MESH8_FLOW_BYTES, 1))
}

/// The 4×4 smoke workload's best single-thread rate clears
/// [`SMOKE_T1_FLOOR_EPS`], so a regression to the pre-optimization
/// engine cannot land silently.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock floor; run in release")]
fn smoke_t1_rate_clears_the_floor() {
    let _serial = serial();
    let best = best_rate(|| all_to_all_eps(4, 2 << 10, 1));
    assert!(
        best >= SMOKE_T1_FLOOR_EPS,
        "single-thread smoke rate {best:.0} events/sec is below the \
         {SMOKE_T1_FLOOR_EPS:.0} floor — the event-engine fast paths have regressed"
    );
}

/// The Fig. 6 sweep (full size range, both orderings + IB reference,
/// parallel sweep points) is not slower than before the zero-allocation
/// refactor.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock floor; run in release")]
fn fig6_sweep_is_not_slower_than_pre_change() {
    let _serial = serial();
    let sizes = fig6_sizes();
    let fig6_ms = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            assert_eq!(figure6(&sizes).series.len(), 3);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min);
    println!("  fig6 sweep (parallel) {fig6_ms:.1} ms");
    assert!(
        fig6_ms <= PRE_CHANGE_FIG6_MS,
        "fig6 sweep {fig6_ms:.1} ms vs pre-change {PRE_CHANGE_FIG6_MS:.1} ms"
    );
}

/// The 8×8 all-to-all's best single-thread rate clears both recorded
/// rates, each with the cross-host margin.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock floor; run in release")]
fn mesh8_t1_rate_clears_the_recorded_floors() {
    let _serial = serial();
    let best_t1 = mesh8_best_t1();
    let t1_speedup = best_t1 / PRE_CHANGE_MESH8_T1_EPS;
    assert!(
        t1_speedup >= MESH8_T1_SPEEDUP_FLOOR,
        "8x8 t1 {t1_speedup:.2}x the pre-change engine ({best_t1:.0} vs \
         {PRE_CHANGE_MESH8_T1_EPS:.0} events/sec), below {MESH8_T1_SPEEDUP_FLOOR:.1}x"
    );
    assert!(
        best_t1 >= MESH8_T1_FLOOR_EPS * MESH8_T1_SPEEDUP_FLOOR,
        "8x8 t1 {best_t1:.0} events/sec is below {MESH8_T1_SPEEDUP_FLOOR:.1}x the \
         recorded floor {MESH8_T1_FLOOR_EPS:.0}"
    );
}

/// On a host with two CPUs or more, the 8×8 all-to-all at two threads is
/// at least as fast as at one: the threaded epoch executive must pay for
/// its barriers and rings. Below two CPUs the second worker can only
/// time-share with the first, so the guard skips.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock floor; run in release")]
fn mesh8_t2_is_not_slower_than_t1() {
    let cpus = host_cpus();
    if cpus < 2 {
        println!("SKIP 8x8 t2/t1: host has {cpus} CPU (two threads would time-share it)");
        return;
    }
    let _serial = serial();
    let best_t1 = mesh8_best_t1();
    let best_t2 = best_rate(|| all_to_all_eps(8, MESH8_FLOW_BYTES, 2));
    let ratio = best_t2 / best_t1;
    println!("  8x8 t2/t1 {ratio:.2}x");
    assert!(
        ratio >= 1.0,
        "8x8 t2 {best_t2:.0} events/sec is below t1 {best_t1:.0} ({ratio:.2}x)"
    );
}

/// On dev-class hosts (>= 8 CPUs) the 8×8 all-to-all scales at least 3x
/// from one to eight threads and reaches [`MESH8_T1_TARGET_EPS`] on one.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock floor; run in release")]
fn mesh8_scales_to_the_target_on_dev_hosts() {
    let cpus = host_cpus();
    if cpus < 8 {
        println!("SKIP 8x8 t8/t1 scaling and t1 target: host has {cpus} CPUs (needs >= 8)");
        return;
    }
    let _serial = serial();
    let best_t1 = mesh8_best_t1();
    let speedup8 = all_to_all_eps(8, MESH8_FLOW_BYTES, 8) / best_t1;
    assert!(speedup8 >= 3.0, "8x8 t8/t1 scaling {speedup8:.2}x < 3x");
    assert!(
        best_t1 >= MESH8_T1_TARGET_EPS,
        "8x8 t1 {best_t1:.0} events/sec is below the {MESH8_T1_TARGET_EPS:.0} target"
    );
}

/// The threaded ShmCluster ping-pong storm (messages/sec, both directions
/// counted) stays within 2x of the pre-change rate. Single-CPU hosts are
/// context-switch bound, so the guard needs two CPUs.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock floor; run in release")]
fn shm_storm_is_within_2x_of_pre_change() {
    const ROUND_TRIPS: u64 = 100_000;
    let cpus = host_cpus();
    if cpus < 2 {
        println!("SKIP shm storm: single-CPU host (context-switch bound)");
        return;
    }
    let _serial = serial();
    let storm = best_rate(|| {
        let cluster = ShmCluster::new(2, SendMode::WeaklyOrdered);
        let t0 = Instant::now();
        let _ = cluster.run(move |ctx| {
            let mut buf = Vec::new();
            for _ in 0..ROUND_TRIPS {
                if ctx.rank == 0 {
                    ctx.send(1, &[0u8; 64]);
                    assert_eq!(ctx.recv_into(1, &mut buf), 64);
                } else {
                    ctx.recv_into(0, &mut buf);
                    ctx.send(0, &buf);
                }
            }
        });
        (2 * ROUND_TRIPS) as f64 / t0.elapsed().as_secs_f64()
    });
    println!("  shm storm (2 threads) {storm:.0} msgs/sec");
    assert!(
        storm >= PRE_CHANGE_STORM_MSGS_PER_SEC / 2.0,
        "shm storm {storm:.0} vs pre-change {PRE_CHANGE_STORM_MSGS_PER_SEC:.0} msgs/sec"
    );
}
