//! One benchmark run of one workload: set-up, a warm-up repetition, timed
//! repetitions with tracing off, and with `--trace` the traced
//! repetitions plus the layer microbenchmarks.

use crate::alloc;
use crate::layers;
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::trace::{mono_ns, Tracer};
use crate::workload::{
    boot_platform, dram_writes, fabric_rep, fabric_traced, nb_counters, paper_rep, EngineCounts,
    Kind, Outcome, Workload, PAPER_BANDWIDTH_MBPS, PAPER_LATENCY_NS,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use tccluster::engine::pattern_pairs;
use tccluster::firmware::machine::Platform;
use tccluster::opteron::{LinkId, LINKS_PER_NODE};
use tccluster::{EngineOptions, SimCluster, TcclusterBuilder};

/// Boots timed for `setup_s`. 8×8 boot times are bimodal and vary up to
/// 2× from boot to boot, so the median of many is reported, never one.
const SETUP_BOOTS: usize = 21;
/// Fewest timed repetitions a run takes, however short `--seconds` is.
const MIN_REPS: usize = 3;

#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub end_to_end: Vec<Metric>,
    /// Empty unless traced.
    pub per_layer: Vec<Metric>,
    pub setup_s: Vec<f64>,
    pub run_s: Vec<f64>,
    pub peak_heap_mb: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Digest of the first correct repetition, if any.
    pub digest: Option<u64>,
    pub reference: Option<u64>,
    pub tracer: Tracer,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }
}

/// The correctness gate: every repetition's digest must equal the pinned
/// reference (or, without one, the first repetition's), its own output
/// checks must pass, and it must not panic.
struct Gate {
    reference: Option<u64>,
    first: Option<u64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Gate {
    fn check(&mut self, label: &str, result: Option<Outcome>) -> Option<Outcome> {
        self.attempted += 1;
        let Some(out) = result else {
            self.fail(format!("{label}: panicked"));
            return None;
        };
        let want = self.reference.or(self.first);
        if let Some(want) = want.filter(|w| *w != out.digest) {
            self.fail(format!(
                "{label}: digest {:#018x} differs from {want:#018x}",
                out.digest
            ));
            return None;
        }
        if !out.problems.is_empty() {
            self.fail(format!("{label}: {}", out.problems.join("; ")));
            return None;
        }
        self.first.get_or_insert(out.digest);
        Some(out)
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }
}

fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

fn rep(wl: &Workload, cluster: &mut SimCluster) -> (f64, Outcome) {
    match wl.kind {
        Kind::Fabric {
            pattern,
            bytes_per_flow,
            ..
        } => fabric_rep(cluster, pattern, bytes_per_flow),
        Kind::Paper { .. } => paper_rep(cluster, wl, &mut Tracer::new(false)),
    }
}

pub fn run(wl: &Workload, opts: &Opts) -> RunResult {
    let builder = wl.builder();
    let boots = if wl.smoke { 3 } else { SETUP_BOOTS };
    let mut setup_s = Vec::with_capacity(boots);
    let mut cluster = None;
    for _ in 0..boots {
        drop(cluster.take());
        let t0 = Instant::now();
        let c = builder.build_sim();
        setup_s.push(t0.elapsed().as_secs_f64());
        cluster = Some(c);
    }
    let mut cluster = cluster.expect("at least one boot");

    let mut gate = Gate {
        reference: wl.reference(),
        first: None,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    // Warm-up: checked, not timed.
    if gate
        .check("warm-up", guarded(|| rep(wl, &mut cluster).1))
        .is_none()
    {
        cluster = builder.build_sim();
    }

    let (mut run_s, mut peak_heap_mb) = (Vec::new(), Vec::new());
    let mut packets = 0;
    let t_start = Instant::now();
    let mut reps = 0usize;
    loop {
        reps += 1;
        alloc::reset_peak();
        let result = guarded(|| rep(wl, &mut cluster));
        let peak = alloc::peak() as f64 / 1e6;
        let (secs, out) = result.map_or((0.0, None), |(s, o)| (s, Some(o)));
        match gate.check(&format!("repetition {reps}"), out) {
            Some(out) => {
                run_s.push(secs);
                peak_heap_mb.push(peak);
                packets = out.packets;
            }
            None => cluster = builder.build_sim(),
        }
        let done = if wl.smoke {
            reps >= 1
        } else {
            reps >= MIN_REPS && t_start.elapsed().as_secs_f64() >= opts.seconds
        };
        if done {
            break;
        }
    }

    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let run_med = med(&run_s);
    let e2e = |name| match name {
        "setup_s" => med(&setup_s),
        "run_s" => run_med,
        "packets_per_s" if run_med > 0.0 => packets as f64 / run_med,
        "peak_heap_mb" => med(&peak_heap_mb),
        _ => 0.0,
    };
    let end_to_end = END_TO_END
        .iter()
        .map(|d| Metric {
            name: d.name,
            value: e2e(d.name),
        })
        .collect();

    let mut tracer = Tracer::new(opts.trace);
    let per_layer = if opts.trace {
        traced(wl, &builder, &cluster, run_med, &mut gate, &mut tracer)
    } else {
        Vec::new()
    };

    RunResult {
        workload: wl.name,
        seed: opts.seed,
        end_to_end,
        per_layer,
        setup_s,
        run_s,
        peak_heap_mb,
        attempted: gate.attempted,
        failed: gate.failed,
        problems: gate.problems,
        digest: gate.first,
        reference: gate.reference,
        tracer,
    }
}

/// Per-layer values, indexed like [`PER_LAYER`]; unset ones read 0.
struct Layer(Vec<f64>);

impl Layer {
    fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not declared"));
        self.0[i] = if value.is_finite() { value } else { 0.0 };
    }

    fn metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .zip(self.0)
            .map(|(d, value)| Metric {
                name: d.name,
                value,
            })
            .collect()
    }
}

fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

/// (packets sent, NOPs sent, credit stalls) over every node's own link
/// transmitters — the chained engine's wires.
fn node_link_stats(platform: &Platform) -> (u64, u64, u64) {
    let mut s = (0, 0, 0);
    for node in &platform.nodes {
        for l in 0..LINKS_PER_NODE as u8 {
            if let Some(tx) = node.link(LinkId(l)) {
                s.0 += tx.stats.packets_sent;
                s.1 += tx.stats.nops_sent;
                s.2 += tx.stats.stalls_no_credit;
            }
        }
    }
    s
}

/// The traced repetitions and the layer microbenchmarks. Repetition 0
/// holds the boot span; on the fabric workloads repetition 1 carries
/// spans only and repetition 2 also runs the engine's stage profile, so
/// the profile's overhead is measured rather than mixed into the spans.
fn traced(
    wl: &Workload,
    builder: &TcclusterBuilder,
    cluster: &SimCluster,
    run_s: f64,
    gate: &mut Gate,
    tr: &mut Tracer,
) -> Vec<Metric> {
    let mut m = Layer(vec![0.0; PER_LAYER.len()]);
    tr.rep = 0;
    let (mut platform, pattern, root, c) = match wl.kind {
        Kind::Fabric { pattern, .. } => {
            let b = tr.open("firmware.boot");
            let mut platform = boot_platform(builder.spec());
            tr.close(b);
            let options = cluster.engine_options();
            let profiled = EngineOptions {
                profile_clock: Some(mono_ns),
                ..options
            };
            let mut counts = [EngineCounts::default(), EngineCounts::default()];
            for (i, opts) in [options, profiled].into_iter().enumerate() {
                tr.rep = i as u32 + 1;
                let r = guarded(|| fabric_traced(&mut platform, wl, opts, tr));
                tr.close_open();
                let (out, c) = r.map_or((None, EngineCounts::default()), |(o, c)| (Some(o), c));
                gate.check(&format!("traced repetition {}", tr.rep), out);
                counts[i] = c;
            }
            let [c, profiled] = counts;
            engine_metrics(&mut m, tr, &c, &profiled, run_s);
            (platform, Some(pattern), "sim.run_workload", c)
        }
        Kind::Paper { .. } => {
            let b = tr.open("firmware.boot");
            let mut pair = builder.build_sim();
            tr.close(b);
            tr.rep = 1;
            let (links0, nb0) = (node_link_stats(&pair.platform), nb_counters(&pair.platform));
            let w0 = dram_writes(&pair.platform);
            let out = guarded(|| paper_rep(&mut pair, wl, tr).1);
            tr.close_open();
            if let Some((lat, bw)) = out.as_ref().and_then(|o| o.anchors) {
                let err = |x: f64, paper: f64| (x - paper).abs() / paper * 100.0;
                m.set("sim.latency_err_pct", err(lat, PAPER_LATENCY_NS));
                m.set("sim.bandwidth_err_pct", err(bw, PAPER_BANDWIDTH_MBPS));
            }
            gate.check("traced repetition 1", out);
            for name in ["sim.fig6", "sim.fig7", "sim.anchor"] {
                m.set(&format!("{name}_ms"), ms(tr.dur_ns(name, 1)));
            }
            let (links1, nb1) = (node_link_stats(&pair.platform), nb_counters(&pair.platform));
            let c = EngineCounts {
                packets: dram_writes(&pair.platform) - w0,
                wire_packets: links1.0 - links0.0,
                nops: links1.1 - links0.1,
                stalls: links1.2 - links0.2,
                routes: nb1.0 - nb0.0,
                forwards: nb1.1 - nb0.1,
                ..EngineCounts::default()
            };
            (pair.platform, None, "sim.paper_figs", c)
        }
    };
    m.set("firmware.boot_ms", ms(tr.dur_ns("firmware.boot", 0)));
    let per_packet = |n: u64| ratio(n as f64, c.packets);
    m.set("ht.flow.stalls_per_packet", per_packet(c.stalls));
    m.set("ht.link.nops_per_packet", per_packet(c.nops));
    m.set(
        "ht.link.wire_packets_per_packet",
        per_packet(c.wire_packets),
    );
    m.set("opteron.nb.routes_per_packet", per_packet(c.routes));
    m.set("opteron.nb.forwards_per_packet", per_packet(c.forwards));
    // The traced repetition's spans, summed by self time, against the
    // untraced median repetition.
    if let Some(id) = tr.spans().iter().position(|s| s.name == root && s.rep == 1) {
        let traced_s = secs(tr.subtree_self_ns(id));
        m.set("bench.span_gap_pct", (traced_s - run_s) / run_s * 100.0);
    }

    // Microbenchmarks, on inputs from the traced platform.
    m.set("bench.clock_read_ns", layers::clock_read_ns());
    for pop in [24, 192, 768] {
        m.set(
            &format!("fabric.event.hold_ns_p{pop}"),
            layers::queue_hold_ns(pop),
        );
    }
    m.set("ht.flow.credit_cycle_ns", layers::credit_cycle_ns());
    m.set("ht.flow.rxbuf_cycle_ns", layers::rxbuf_cycle_ns());
    m.set(
        "ht.link.tx_send_pump_ns",
        layers::tx_send_pump_ns(layers::tcc_link_config(&platform)),
    );
    m.set("ht.link.rx_accept_drain_ns", layers::rx_accept_drain_ns());
    // The paper workload's one flow runs from node 0 to node 1.
    let pairs = pattern.map_or(vec![(0, 1)], |p| pattern_pairs(&platform.spec, p));
    let r = layers::routing(&mut platform, &pairs);
    m.set("opteron.nb.flat_lookup_ns", r.flat_lookup_ns);
    m.set("opteron.nb.dispose_ns", r.dispose_ns);
    m.set("opteron.node.deliver_flat_ns", r.deliver_flat_ns);
    m.set("opteron.node.deliver_routed_ns", r.deliver_routed_ns);
    drop(platform);
    let mut pair = TcclusterBuilder::new().build_sim();
    m.set(
        "opteron.node.store_ns",
        layers::store_ns(&mut pair.platform),
    );
    m.set("msglib.handoff.ns_per_item", layers::handoff_ns_per_item());
    m.metrics()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The engine's span and profile metrics: `c` from the unprofiled
/// repetition 1, `profiled` from repetition 2.
fn engine_metrics(
    m: &mut Layer,
    tr: &Tracer,
    c: &EngineCounts,
    profiled: &EngineCounts,
    run_s: f64,
) {
    let rq = tr.dur_ns("engine.run_quiescent", 1) as f64;
    let rq_prof = tr.dur_ns("engine.run_quiescent", 2) as f64;
    for name in ["engine.build", "engine.add_flows", "engine.credit_check"] {
        m.set(&format!("{name}_ms"), ms(tr.dur_ns(name, 1)));
    }
    m.set("engine.run_quiescent_s", rq / 1e9);
    m.set("engine.ns_per_event", ratio(rq, c.events));
    m.set("engine.ns_per_packet", ratio(rq, c.packets));
    let fr = secs(tr.dur_ns("engine.flow_reports", 1));
    m.set("engine.flow_reports_s", fr);
    m.set("engine.flow_reports_share", fr / run_s);
    m.set(
        "engine.events_per_packet",
        ratio(c.events as f64, c.packets),
    );
    m.set(
        "engine.allocs_per_packet",
        ratio(c.allocs_in_run as f64, c.packets),
    );
    m.set("engine.sim_elapsed_us", c.sim_elapsed_us);
    let p = profiled.profile;
    m.set(
        "engine.events_per_visit",
        ratio(p.profiled_events as f64, p.epochs),
    );
    let per_sampled = |ns: u64| ratio(ns as f64, p.sampled_events);
    let (queue, exec) = (per_sampled(p.queue_ns), per_sampled(p.exec_ns));
    let mailbox = ratio(p.mailbox_ns as f64, p.profiled_events);
    let stages = [
        ("queue", queue),
        ("exec", exec),
        ("credit", per_sampled(p.credit_ns)),
        ("route", per_sampled(p.route_ns)),
        ("deliver", per_sampled(p.deliver_ns)),
        ("mailbox", mailbox),
    ];
    for (stage, v) in stages {
        m.set(&format!("engine.profile.{stage}_ns_per_event"), v);
    }
    m.set("engine.profile.overhead_pct", (rq_prof - rq) / rq * 100.0);
    // The top-level stages against the unprofiled engine's ns/event;
    // credit, route and deliver are parts of exec.
    let unprofiled_ns = ratio(rq, c.events);
    m.set(
        "engine.profile.reconcile_gap_pct",
        (queue + exec + mailbox - unprofiled_ns) / unprofiled_ns * 100.0,
    );
}
