//! Simulator-speed harness: how fast the *host* executes the reproduction.
//!
//! The paper's figures measure simulated time; this binary measures
//! wallclock — the packets-per-second engine behind every sweep. It times
//! the Fig. 6 + Fig. 7 reproductions (parallel sweeps), a ShmCluster
//! ping-pong storm, the raw store-issue path, counts heap allocations per
//! message, and scales the sharded event engine across worker threads on
//! an 8×8 mesh — including a per-stage attribution run (queue ops vs
//! mailbox handoff vs event execution) — then writes
//! `BENCH_simspeed.json` next to the workspace root so future perf PRs
//! can regress against it. See docs/hot-path.md for the schema.
//!
//! Modes:
//!
//! * default — full run, writes `BENCH_simspeed.json`.
//! * `--smoke` — fast CI subset: runs the event engine on a 4×4 mesh
//!   three times at one worker thread and once at four, asserts the
//!   reports are byte-identical (the determinism contract) and that the
//!   best single-thread throughput clears a recorded floor (a generous
//!   fraction of the tuned rate, so noisy runners pass but a regression
//!   to the pre-optimization engine fails), then exits without touching
//!   the JSON.
//! * `--check` — full run plus host-aware regression guards (exit 1 on
//!   violation). Guards that depend on host parallelism (the shm storm,
//!   the 8-thread scaling target) are skipped — loudly — on hosts without
//!   the cores to express them.

// The speed harness is the legitimate wallclock consumer (clippy.toml).
#![allow(clippy::disallowed_methods)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use tcc_bench::{fig6_sizes, fig7_sizes, figure6_par, figure7_par, prototype};
use tcc_msglib::channel::{channel, CHANNEL_BYTES, CREDIT_BYTES};
use tcc_msglib::shm::ShmMemory;
use tcc_msglib::SendMode;
use tccluster::firmware::topology::ClusterTopology;
use tccluster::{
    EngineKind, ShmCluster, StageProfile, TcclusterBuilder, TrafficPattern, WorkloadReport,
};

/// Counting allocator: every heap allocation in the process bumps a
/// counter, so steady-state loops can assert/report allocations per
/// operation.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Monotonic nanosecond clock injected into the engine for stage
/// attribution (the engine itself is wallclock-free; the bench is the
/// legitimate clock owner).
fn mono_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Wallclock of the pre-change harness on the reference dev host, recorded
/// immediately before the zero-allocation refactor landed (same sweep, same
/// binary). The ≥3x acceptance criterion compares against these.
const PRE_CHANGE_FIG6_MS: f64 = 695.8;
const PRE_CHANGE_FIG7_MS: f64 = 9.6;
const PRE_CHANGE_STORE_NS: f64 = 578.8;
const PRE_CHANGE_STORE_ALLOCS: f64 = 15.0;
const PRE_CHANGE_SHM_MESSAGE_NS: f64 = 167.1;
const PRE_CHANGE_SHM_ALLOCS: f64 = 4.0;
/// Recorded on a multi-core reference host. The storm is a 2-thread
/// ping-pong: on a single-CPU host every message leg forces a scheduler
/// switch, capping throughput near 1/(2·context-switch) regardless of
/// code quality — see docs/hot-path.md ("shm storm and host topology").
const PRE_CHANGE_STORM_MSGS_PER_SEC: f64 = 591_846.0;
/// 8×8 all-to-all single-thread rate of the pre-optimization engine
/// (mutex mailboxes, owned-event calendar queue, unclipped flow wake
/// fan-out), best backend (BinaryHeap), recorded on this PR's dev host
/// immediately before the mailbox/arena/ladder work landed.
const PRE_CHANGE_MESH8_T1_EPS: f64 = 2_530_000.0;
/// Best 8×8 t1 rate recorded by the previous perf PR (ring mailboxes,
/// arena events, ladder queue) on its dev host — the floor the flattened
/// exec path must not regress below. Like every cross-host wallclock
/// guard, `--check` applies [`MESH8_T1_SPEEDUP_FLOOR`] as margin; the
/// raw value is recorded in the JSON for same-host comparisons.
const MESH8_T1_FLOOR_EPS: f64 = 2_754_695.0;

/// 8×8 all-to-all flow size: 4 KB per flow × 4032 flows keeps the run in
/// the millions-of-events regime without dominating the harness.
const MESH8_FLOW_BYTES: u64 = 4 << 10;

/// Single-thread floor for the `--smoke` perf-sanity gate, in events/sec
/// on the 4×4 smoke workload (release build). Recorded at roughly a
/// quarter of the tuned engine's rate on the slowest CI-class host we
/// target: generous enough for noisy shared runners, low enough that
/// backsliding to the pre-optimization engine (which ran well below it)
/// fails loudly.
const SMOKE_T1_FLOOR_EPS: f64 = 3_000_000.0;

/// The tentpole target the optimization campaign drives toward: 8×8
/// single-thread events/sec. Recorded in the JSON and asserted by
/// `--check` on dev-class (>= 8 CPU) hosts. Stage attribution shows
/// event *execution* (routing + credit machinery, ~170 ns/event) now
/// dominates at 66% — reaching this target is model-exec work, tracked
/// in ROADMAP.md; the queue/mailbox share is down to a third.
const MESH8_T1_TARGET_EPS: f64 = 20_000_000.0;
/// `--check` floor on any host for t1 vs the recorded pre-change rate.
/// The baseline was recorded on one specific host, so this guard — like
/// the fig6 and storm guards — carries a generous cross-host margin and
/// only catches catastrophic regressions (an accidental O(n^2) path, a
/// debug-mode queue). Measured 1.13-1.22x on the recording host.
const MESH8_T1_SPEEDUP_FLOOR: f64 = 0.6;

fn time_ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Repetitions per benchmark; the best run is reported. Wallclock on a
/// shared host is contaminated by scheduler interference in one
/// direction only, so the minimum is the standard estimator of the
/// code's actual speed.
const REPS: usize = 3;

/// A JSON number with `decimals` places, or `null` for a value that was
/// not measured.
fn json_num(v: Option<f64>, decimals: usize) -> String {
    v.map_or_else(|| "null".to_owned(), |x| format!("{x:.decimals$}"))
}

fn best_of(mut f: impl FnMut() -> f64) -> f64 {
    (0..REPS).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Best-of for (time, allocs) pairs: allocation counts are deterministic,
/// so pairs are ranked by time.
fn best_of2(mut f: impl FnMut() -> (f64, f64)) -> (f64, f64) {
    (0..REPS)
        .map(|_| f())
        .fold((f64::INFINITY, f64::INFINITY), |best, x| {
            if x.0 < best.0 {
                x
            } else {
                best
            }
        })
}

/// Fig. 6 sweep (full size range, both orderings + IB reference,
/// parallel sweep points).
fn bench_fig6() -> f64 {
    let sizes = fig6_sizes();
    time_ms(|| {
        let fig = figure6_par(&sizes);
        assert_eq!(fig.series.len(), 3);
    })
}

/// Fig. 7 sweep (latency curve, parallel sweep points).
fn bench_fig7() -> f64 {
    let sizes = fig7_sizes();
    time_ms(|| {
        let fig = figure7_par(&sizes);
        assert_eq!(fig.series.len(), 2);
    })
}

/// Raw store-issue path: stream 64 B WC stores through one node and
/// propagate each batch, like the bandwidth kernels do. Returns
/// (ns/store, allocations/store).
fn bench_store_path() -> (f64, f64) {
    let mut cluster = prototype();
    cluster.reset_timebase();
    let dst = cluster.spec().node_base(1, 0);
    const N: u64 = 200_000;
    // Warm the pipeline + pool before counting.
    run_store_loop(&mut cluster, dst, 10_000);
    cluster.reset_timebase();
    let a0 = allocs();
    let t0 = Instant::now();
    run_store_loop(&mut cluster, dst, N);
    let dt = t0.elapsed();
    let da = allocs() - a0;
    (dt.as_nanos() as f64 / N as f64, da as f64 / N as f64)
}

fn run_store_loop(cluster: &mut tccluster::SimCluster, dst: u64, n: u64) {
    use tccluster::fabric::time::SimTime;
    let mut now = SimTime::ZERO;
    let mut sink = tcc_opteron::ActionSink::new();
    let mut commits = Vec::new();
    for i in 0..n {
        let addr = dst + (i * 64) % (256 << 10);
        let out = cluster.platform.nodes[0].store(now, addr, &[0u8; 64], &mut sink);
        now = out.issued;
        commits.clear();
        cluster.platform.propagate(0, &mut sink, &mut commits);
    }
}

/// Steady-state eager messages over the shm channel path, single-threaded
/// (deterministic allocation counting). Returns (ns/message,
/// allocations/message).
fn bench_shm_channel() -> (f64, f64) {
    let data = ShmMemory::new(CHANNEL_BYTES as usize);
    let credits = ShmMemory::new(CREDIT_BYTES as usize);
    let (mut tx, mut rx) = channel(
        data.remote(0, CHANNEL_BYTES),
        credits.local(0, CREDIT_BYTES),
        data.local(0, CHANNEL_BYTES),
        credits.remote(0, CREDIT_BYTES),
        SendMode::WeaklyOrdered,
    );
    let msg = [0xA5u8; 64];
    let mut buf = Vec::new();
    // Warm up past ring-capacity growth.
    for _ in 0..1_000 {
        tx.send(&msg).expect("fits");
        assert_eq!(rx.recv_into(&mut buf), 64);
    }
    const N: u64 = 100_000;
    let a0 = allocs();
    let t0 = Instant::now();
    for _ in 0..N {
        tx.send(&msg).expect("fits");
        assert_eq!(rx.recv_into(&mut buf), 64);
    }
    let dt = t0.elapsed();
    let da = allocs() - a0;
    (dt.as_nanos() as f64 / N as f64, da as f64 / N as f64)
}

/// Event-driven fabric engine, small scale: concurrent all-to-all on a
/// 2×2 mesh of two-socket supernodes (12 flows, real credit flow
/// control). Returns host events/sec — the sweep-rate currency of every
/// congestion study. Kept from schema v2 for baseline continuity.
fn bench_event_fabric() -> f64 {
    let mut cluster = TcclusterBuilder::new()
        .topology(ClusterTopology::Mesh { x: 2, y: 2 })
        .processors_per_supernode(2)
        .engine(EngineKind::EventDriven)
        .build_sim();
    let t0 = Instant::now();
    let report = cluster.run_workload(TrafficPattern::AllToAll, 256 << 10);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(report.lost_packets(), 0, "event fabric lost packets");
    report.events as f64 / dt
}

/// One 8×8 all-to-all run (4032 flows) at a given worker-thread count.
/// Returns (events/sec, report) — the report so the caller can assert
/// cross-thread-count determinism.
fn bench_mesh8(threads: usize) -> (f64, WorkloadReport) {
    let mut cluster = TcclusterBuilder::new()
        .topology(ClusterTopology::Mesh { x: 8, y: 8 })
        .processors_per_supernode(2)
        .engine(EngineKind::EventDriven)
        .event_threads(threads)
        .build_sim();
    let t0 = Instant::now();
    let report = cluster.run_workload(TrafficPattern::AllToAll, MESH8_FLOW_BYTES);
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(report.lost_packets(), 0, "8x8 all-to-all lost packets");
    (report.events as f64 / dt, report)
}

/// The 8×8 workload once more with the stage-attribution clock injected:
/// splits the epoch loop's wallclock into queue ops, mailbox handoff and
/// event execution. Instrumentation costs two clock reads per event, so
/// this run's absolute rate is NOT comparable to the headline numbers —
/// only the per-stage split is the point.
fn bench_mesh8_attribution(threads: usize) -> StageProfile {
    let mut cluster = TcclusterBuilder::new()
        .topology(ClusterTopology::Mesh { x: 8, y: 8 })
        .processors_per_supernode(2)
        .engine(EngineKind::EventDriven)
        .event_threads(threads)
        .event_profile_clock(mono_ns)
        .build_sim();
    let report = cluster.run_workload(TrafficPattern::AllToAll, MESH8_FLOW_BYTES);
    assert_eq!(report.lost_packets(), 0, "attribution run lost packets");
    cluster
        .event_engine()
        .expect("event engine")
        .stage_profile()
}

/// Threaded ShmCluster ping-pong storm. Returns messages/sec (both
/// directions counted).
fn bench_shm_storm() -> f64 {
    const ROUND_TRIPS: u64 = 100_000;
    let cluster = ShmCluster::new(2, SendMode::WeaklyOrdered);
    let t0 = Instant::now();
    let _ = cluster.run(move |ctx| {
        let mut buf = Vec::new();
        if ctx.rank == 0 {
            for _ in 0..ROUND_TRIPS {
                ctx.send(1, &[0u8; 64]);
                assert_eq!(ctx.recv_into(1, &mut buf), 64);
            }
        } else {
            for _ in 0..ROUND_TRIPS {
                ctx.recv_into(0, &mut buf);
                ctx.send(0, &buf);
            }
        }
    });
    let dt = t0.elapsed().as_secs_f64();
    (2 * ROUND_TRIPS) as f64 / dt
}

/// CI smoke: the event engine on a 4×4 mesh, three runs at one thread
/// and one at four, must produce byte-identical reports, and the best
/// single-thread throughput must clear [`SMOKE_T1_FLOOR_EPS`] so a perf
/// regression to the pre-optimization engine cannot land silently.
/// Prints rates, exits nonzero via assert on violation.
fn smoke() {
    println!("simspeed --smoke: determinism + perf floor (4x4 all-to-all)\n");
    let run = |threads: usize| {
        let mut cluster = TcclusterBuilder::new()
            .topology(ClusterTopology::Mesh { x: 4, y: 4 })
            .processors_per_supernode(2)
            .engine(EngineKind::EventDriven)
            .event_threads(threads)
            .build_sim();
        let t0 = Instant::now();
        let report = cluster.run_workload(TrafficPattern::AllToAll, 2 << 10);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(report.lost_packets(), 0, "smoke lost packets");
        let eps = report.events as f64 / dt;
        println!("  x{threads} threads: {eps:>12.0} events/sec");
        (eps, report)
    };
    let (mut best_t1, baseline) = run(1);
    // Two more t1 runs make the floor a best of 3; t4 is the threaded
    // executive's determinism check.
    for threads in [1usize, 1, 4] {
        let (eps, got) = run(threads);
        assert_eq!(got, baseline, "x{threads} threads diverged");
        if threads == 1 {
            best_t1 = best_t1.max(eps);
        }
    }
    assert!(
        best_t1 >= SMOKE_T1_FLOOR_EPS,
        "single-thread smoke rate {best_t1:.0} events/sec is below the \
         {SMOKE_T1_FLOOR_EPS:.0} floor — the event-engine fast paths have regressed"
    );
    println!(
        "\nsmoke OK: all runs byte-identical; best t1 rate \
         {best_t1:.0} events/sec clears the {SMOKE_T1_FLOOR_EPS:.0} floor"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    // Dev-iteration modes: run only one benchmark family, skip the JSON.
    if args.iter().any(|a| a == "--mesh8-once") {
        let mut best = 0.0f64;
        for _ in 0..5 {
            let (eps, _) = bench_mesh8(1);
            println!("x1    {eps:.0} events/sec");
            best = best.max(eps);
        }
        println!("best  {best:.0} events/sec");
        return;
    }
    if args.iter().any(|a| a == "--attr") {
        let prof = bench_mesh8_attribution(1);
        let per_sampled = |ns: u64| ns as f64 / prof.sampled_events.max(1) as f64;
        let per_epoch_event = |ns: u64| ns as f64 / prof.profiled_events.max(1) as f64;
        println!(
            "stage attribution, t1 (sampled 1/{}):",
            tccluster::engine::PROFILE_SAMPLE_EVERY
        );
        println!(
            "  events {}  sampled {}  visits {}",
            prof.profiled_events, prof.sampled_events, prof.epochs
        );
        println!(
            "  queue    {:>8.1} ns/event (sampled)",
            per_sampled(prof.queue_ns)
        );
        println!(
            "  exec     {:>8.1} ns/event (sampled)",
            per_sampled(prof.exec_ns)
        );
        println!("    credit  {:>8.1} ns/event", per_sampled(prof.credit_ns));
        println!("    route   {:>8.1} ns/event", per_sampled(prof.route_ns));
        println!("    deliver {:>8.1} ns/event", per_sampled(prof.deliver_ns));
        println!(
            "  mailbox  {:>8.1} ns/event (all epochs)",
            per_epoch_event(prof.mailbox_ns)
        );
        return;
    }
    let check = args.iter().any(|a| a == "--check");
    let cpus = host_cpus();
    println!("simspeed: wallclock of the reproduction's hot paths (host_cpus={cpus})\n");

    let fig6_ms = best_of(bench_fig6);
    println!("fig6 sweep (parallel)      {fig6_ms:>12.1} ms");
    let fig7_ms = best_of(bench_fig7);
    println!("fig7 sweep (parallel)      {fig7_ms:>12.1} ms");
    let (store_ns, store_allocs) = best_of2(bench_store_path);
    println!(
        "sim store path             {store_ns:>12.1} ns/store   {store_allocs:.2} allocs/store"
    );
    let (shm_ns, shm_allocs) = best_of2(bench_shm_channel);
    println!("shm channel (1 thread)     {shm_ns:>12.1} ns/msg     {shm_allocs:.2} allocs/msg");
    let storm = -best_of(|| -bench_shm_storm());
    println!("shm storm (2 threads)      {storm:>12.0} msgs/sec");
    let event_eps = -best_of(|| -bench_event_fabric());
    println!("event fabric (2x2 mesh)    {event_eps:>12.0} events/sec");

    // ── 8×8 thread row. Single run per cell except t1 (best-of-REPS:
    // the t1 cell anchors the regression guards and the scaling
    // denominator, so it gets the noise suppression); the determinism
    // assert makes every run double as a correctness check. A cell with
    // more threads than host CPUs still runs for that check, but its rate
    // times the host's time slicing, not the engine, so it stays
    // untimed (`null` in the JSON). ───────────────────────────────────
    println!("\nevent fabric 8x8 all-to-all ({MESH8_FLOW_BYTES} B x 4032 flows):");
    let mut row: [Option<f64>; 4] = [None; 4];
    let mut baseline: Option<WorkloadReport> = None;
    for (i, threads) in [1usize, 2, 4, 8].into_iter().enumerate() {
        let timed = threads <= cpus;
        let reps = if threads == 1 { REPS } else { 1 };
        for _ in 0..reps {
            let (e, report) = bench_mesh8(threads);
            if timed {
                row[i] = Some(row[i].map_or(e, |best| best.max(e)));
            }
            if let Some(b) = &baseline {
                assert_eq!(&report, b, "8x8 x{threads} diverged");
            } else {
                baseline = Some(report);
            }
        }
        match row[i] {
            Some(eps) => println!("  x{threads} threads  {eps:>12.0} events/sec"),
            None => println!("  x{threads} threads  not timed (host has {cpus} CPUs)"),
        }
    }
    let mesh8_events = baseline.as_ref().map_or(0, |r| r.events);
    let best_t1 = row[0].expect("t1 is always timed");
    let speedup8 = row[3].map(|t8| t8 / best_t1);
    let t1_speedup = best_t1 / PRE_CHANGE_MESH8_T1_EPS;
    match speedup8 {
        Some(x) => println!("  t8/t1 scaling: {x:.2}x (host has {cpus} CPUs)"),
        None => println!("  t8/t1 scaling: not timed (host has {cpus} CPUs)"),
    }
    println!("  t1 vs pre-change engine: {t1_speedup:.2}x ({best_t1:.0} vs {PRE_CHANGE_MESH8_T1_EPS:.0})");

    // ── Per-stage attribution (instrumented run; split, not rate).
    // Queue and exec are timed on sampled events (1 in
    // PROFILE_SAMPLE_EVERY); the mailbox/outbox handoff is timed on every
    // shard visit. Normalising each to ns/event first makes the shares
    // comparable. ─────────────────────────────────────────────────────
    let prof = bench_mesh8_attribution(1);
    let per_sampled = |ns: u64| ns as f64 / prof.sampled_events.max(1) as f64;
    let queue_pe = per_sampled(prof.queue_ns);
    let exec_pe = per_sampled(prof.exec_ns);
    let mailbox_pe = prof.mailbox_ns as f64 / prof.profiled_events.max(1) as f64;
    let stage_total_pe = (queue_pe + exec_pe + mailbox_pe).max(f64::MIN_POSITIVE);
    let pct = |pe: f64| pe * 100.0 / stage_total_pe;
    let events_per_visit = prof.profiled_events as f64 / prof.epochs.max(1) as f64;
    println!(
        "\nstage attribution (t1, sampled 1/{}): queue {:.1}% ({:.1} ns/ev), \
         mailbox {:.1}% ({:.1} ns/ev), exec {:.1}% ({:.1} ns/ev: credit {:.1} / \
         route {:.1} / deliver {:.1}), {} visits ({:.1} events/visit)",
        tccluster::engine::PROFILE_SAMPLE_EVERY,
        pct(queue_pe),
        queue_pe,
        pct(mailbox_pe),
        mailbox_pe,
        pct(exec_pe),
        exec_pe,
        per_sampled(prof.credit_ns),
        per_sampled(prof.route_ns),
        per_sampled(prof.deliver_ns),
        prof.epochs,
        events_per_visit,
    );

    let speedup6 = if PRE_CHANGE_FIG6_MS > 0.0 {
        PRE_CHANGE_FIG6_MS / fig6_ms
    } else {
        0.0
    };
    let speedup7 = if PRE_CHANGE_FIG7_MS > 0.0 {
        PRE_CHANGE_FIG7_MS / fig7_ms
    } else {
        0.0
    };
    if speedup6 > 0.0 {
        println!("\nvs pre-change baseline: fig6 {speedup6:.1}x, fig7 {speedup7:.1}x");
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": \"tcc-simspeed-v8\",\n",
            "  \"host_cpus\": {cpus},\n",
            "  \"pre_change\": {{\n",
            "    \"fig6_sweep_ms\": {f6:.1},\n",
            "    \"fig7_sweep_ms\": {f7:.1},\n",
            "    \"sim_store_ns\": {sns:.1},\n",
            "    \"sim_store_allocs\": {sal:.3},\n",
            "    \"shm_message_ns\": {mns:.1},\n",
            "    \"shm_allocs_per_message\": {mal:.3},\n",
            "    \"shm_storm_msgs_per_sec\": {storm0:.0},\n",
            "    \"mesh8_t1_events_per_sec\": {m8t1:.0}\n",
            "  }},\n",
            "  \"measured\": {{\n",
            "    \"fig6_sweep_ms\": {fig6:.1},\n",
            "    \"fig7_sweep_ms\": {fig7:.1},\n",
            "    \"fig6_speedup\": {sp6:.2},\n",
            "    \"fig7_speedup\": {sp7:.2},\n",
            "    \"sim_store_ns\": {store:.1},\n",
            "    \"sim_store_allocs\": {storea:.3},\n",
            "    \"shm_message_ns\": {shm:.1},\n",
            "    \"shm_allocs_per_message\": {shma:.3},\n",
            "    \"shm_storm_msgs_per_sec\": {storm:.0},\n",
            "    \"event_fabric_events_per_sec\": {ev:.0}\n",
            "  }},\n",
            "  \"event_fabric_8x8\": {{\n",
            "    \"flow_bytes\": {fb},\n",
            "    \"flows\": 4032,\n",
            "    \"events\": {evn},\n",
            "    \"events_per_sec\": {{ \"t1\": {t1}, \"t2\": {t2}, \"t4\": {t4}, \"t8\": {t8} }},\n",
            "    \"t1_speedup_vs_pre_change\": {t1sp:.2},\n",
            "    \"t1_floor_events_per_sec\": {floor:.0},\n",
            "    \"single_thread_target_events_per_sec\": {target:.0},\n",
            "    \"speedup_t8_vs_t1\": {sp8},\n",
            "    \"deterministic_across_threads\": true,\n",
            "    \"stage_attribution_t1\": {{\n",
            "      \"profiled_events\": {pe},\n",
            "      \"sampled_events\": {se},\n",
            "      \"sample_every\": {sev},\n",
            "      \"shard_visits\": {pep},\n",
            "      \"events_per_visit\": {epv:.1},\n",
            "      \"queue_pct\": {qp:.1},\n",
            "      \"mailbox_pct\": {mp:.1},\n",
            "      \"exec_pct\": {xp:.1},\n",
            "      \"queue_ns_per_event\": {qn:.1},\n",
            "      \"mailbox_ns_per_event\": {mn:.1},\n",
            "      \"exec_ns_per_event\": {xn:.1},\n",
            "      \"exec_split_ns_per_event\": {{ \"credit\": {cr:.1}, \"route\": {rt:.1}, \"deliver\": {dl:.1} }}\n",
            "    }}\n",
            "  }},\n",
            "  \"notes\": {{\n",
            "    \"shm_storm\": \"2-thread ping-pong; context-switch bound on single-CPU hosts (pre_change was a multi-core host). Guarded only when host_cpus >= 2.\",\n",
            "    \"event_fabric_8x8\": \"thread scaling requires host cores; the t8/t1 target is asserted by --check only when host_cpus >= 8. Cells with more threads than host_cpus still run and are asserted byte-identical to t1, but are not timed (null). The t1 guard is relative: best t1 must clear the recorded floor times the cross-host margin. t1 runs the sequential merged executive (one queue scan per shard visit, direct outbox handoff, no mailboxes); t2+ run the epoch algorithm.\",\n",
            "    \"stage_attribution\": \"queue/exec (and the credit/route/deliver split of exec) are timed on 1 in sample_every events; mailbox covers every visit. Shares are normalised to ns/event before computing pcts. shard_visits counts productive visits (>= 1 event).\"\n",
            "  }}\n",
            "}}\n"
        ),
        cpus = cpus,
        f6 = PRE_CHANGE_FIG6_MS,
        f7 = PRE_CHANGE_FIG7_MS,
        sns = PRE_CHANGE_STORE_NS,
        sal = PRE_CHANGE_STORE_ALLOCS,
        mns = PRE_CHANGE_SHM_MESSAGE_NS,
        mal = PRE_CHANGE_SHM_ALLOCS,
        storm0 = PRE_CHANGE_STORM_MSGS_PER_SEC,
        m8t1 = PRE_CHANGE_MESH8_T1_EPS,
        fig6 = fig6_ms,
        fig7 = fig7_ms,
        sp6 = speedup6,
        sp7 = speedup7,
        store = store_ns,
        storea = store_allocs,
        shm = shm_ns,
        shma = shm_allocs,
        storm = storm,
        ev = event_eps,
        fb = MESH8_FLOW_BYTES,
        evn = mesh8_events,
        t1 = json_num(row[0], 0),
        t2 = json_num(row[1], 0),
        t4 = json_num(row[2], 0),
        t8 = json_num(row[3], 0),
        t1sp = t1_speedup,
        floor = MESH8_T1_FLOOR_EPS,
        target = MESH8_T1_TARGET_EPS,
        sp8 = json_num(speedup8, 2),
        pe = prof.profiled_events,
        se = prof.sampled_events,
        sev = tccluster::engine::PROFILE_SAMPLE_EVERY,
        pep = prof.epochs,
        epv = events_per_visit,
        qp = pct(queue_pe),
        mp = pct(mailbox_pe),
        xp = pct(exec_pe),
        qn = queue_pe,
        mn = mailbox_pe,
        xn = exec_pe,
        cr = per_sampled(prof.credit_ns),
        rt = per_sampled(prof.route_ns),
        dl = per_sampled(prof.deliver_ns),
    );
    std::fs::write("BENCH_simspeed.json", &json).expect("write BENCH_simspeed.json");
    println!("\nwrote BENCH_simspeed.json");

    if check {
        let mut failed = false;
        let mut guard = |name: &str, ok: bool, detail: String| {
            if ok {
                println!("check: {name:<38} OK   {detail}");
            } else {
                println!("check: {name:<38} FAIL {detail}");
                failed = true;
            }
        };
        guard(
            "sim_store_allocs == 0",
            store_allocs < 0.005,
            format!("({store_allocs:.3}/store)"),
        );
        guard(
            "shm_allocs_per_message == 0",
            shm_allocs < 0.005,
            format!("({shm_allocs:.3}/msg)"),
        );
        guard(
            "fig6 not slower than pre-change",
            fig6_ms <= PRE_CHANGE_FIG6_MS,
            format!("({fig6_ms:.1} ms vs {PRE_CHANGE_FIG6_MS:.1})"),
        );
        guard(
            &format!("8x8 t1 >= {MESH8_T1_SPEEDUP_FLOOR:.1}x pre-change engine"),
            t1_speedup >= MESH8_T1_SPEEDUP_FLOOR,
            format!("({t1_speedup:.2}x, {best_t1:.0} events/sec)"),
        );
        guard(
            &format!("8x8 t1 >= {MESH8_T1_SPEEDUP_FLOOR:.1}x recorded floor"),
            best_t1 >= MESH8_T1_FLOOR_EPS * MESH8_T1_SPEEDUP_FLOOR,
            format!("({best_t1:.0} vs floor {MESH8_T1_FLOOR_EPS:.0} events/sec)"),
        );
        if cpus >= 2 {
            guard(
                "shm_storm within 2x of pre-change",
                storm >= PRE_CHANGE_STORM_MSGS_PER_SEC / 2.0,
                format!("({storm:.0} vs {PRE_CHANGE_STORM_MSGS_PER_SEC:.0} msgs/sec)"),
            );
        } else {
            println!(
                "check: shm_storm                              SKIP single-CPU host \
                 (context-switch bound; measured {storm:.0})"
            );
        }
        if let Some(speedup8) = speedup8 {
            guard(
                "8x8 t8/t1 scaling >= 3x",
                speedup8 >= 3.0,
                format!("({speedup8:.2}x)"),
            );
            guard(
                &format!("8x8 t1 >= {MESH8_T1_TARGET_EPS:.0} events/sec"),
                best_t1 >= MESH8_T1_TARGET_EPS,
                format!("({best_t1:.0})"),
            );
        } else {
            println!(
                "check: 8x8 t8/t1 scaling                      SKIP host has {cpus} CPUs \
                 (needs >= 8; t8 not timed)"
            );
            println!(
                "check: 8x8 t1 absolute target                 SKIP host has {cpus} CPUs \
                 (dev-class target {MESH8_T1_TARGET_EPS:.0}; measured {best_t1:.0}, \
                 guarded relatively above)"
            );
        }
        if failed {
            std::process::exit(1);
        }
        println!("\nall checks passed");
    }
}
