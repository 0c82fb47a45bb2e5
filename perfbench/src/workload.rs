//! The benchmark's workloads. Each is a closed batch job: one repetition
//! is one complete simulation from a booted cluster, with no arrival
//! process. Why each was chosen is in the README next to this file.

use crate::trace::Tracer;
use std::time::Instant;
use tccluster::engine::{pattern_pairs, DEFAULT_DRAIN};
use tccluster::firmware::machine::Platform;
use tccluster::firmware::tcc_boot::boot;
use tccluster::firmware::topology::{ClusterSpec, ClusterTopology};
use tccluster::ht::link::LinkConfig;
use tccluster::msglib::SendMode;
use tccluster::opteron::UarchParams;
use tccluster::{
    EngineKind, EngineOptions, EventEngine, SimCluster, StageProfile, TcclusterBuilder,
    TrafficPattern, WorkloadReport,
};

pub const NAMES: [&str; 4] = [
    "mesh8_a2a_t1",
    "mesh8_a2a_t2",
    "mesh4_hotspot_t1",
    "paper_figs",
];

/// Hotspot targets the seed picks from (`seed mod 2`): the two centre
/// supernodes of the 4×4 mesh that are point mirrors of each other. Both
/// execute exactly the same number of events, so every seed runs the same
/// work and the spread across seeds stays host noise. (Over all 16
/// targets the run time varies by 1.6×; even the other two centre
/// supernodes differ by 7% in events per packet.)
pub const HOTSPOT_TARGETS: [usize; 2] = [10, 5];

#[derive(Debug, Clone)]
pub enum Kind {
    /// Concurrent 64 B posted-write flows through the event engine.
    Fabric {
        mesh: usize,
        pattern: TrafficPattern,
        bytes_per_flow: u64,
        threads: usize,
    },
    /// The paper prototype pair on the chained engine: the Fig. 6 and
    /// Fig. 7 sweeps plus the 227 ns / 2500 MB/s anchors.
    Paper {
        fig6_sizes: Vec<usize>,
        fig7_sizes: Vec<usize>,
    },
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub smoke: bool,
}

/// The paper's anchors: 64 B half round trip and 64 B weakly ordered
/// streaming bandwidth, with the tolerance the repository's anchor tests
/// use.
pub const PAPER_LATENCY_NS: f64 = 227.0;
pub const PAPER_BANDWIDTH_MBPS: f64 = 2500.0;
const LATENCY_TOL_NS: f64 = 25.0;
const BANDWIDTH_TOL_MBPS: f64 = 400.0;

/// Iterations per Fig. 6 point, scaled down for large messages (the same
/// schedule the figure binaries use).
fn fig6_iters(size: usize) -> u32 {
    match size {
        0..=4096 => 20,
        4097..=262_144 => 8,
        _ => 3,
    }
}
const FIG7_ITERS: u32 = 50;

fn pow2_sizes(lo_exp: u32, hi_exp: u32) -> Vec<usize> {
    (lo_exp..=hi_exp).map(|p| 1usize << p).collect()
}

impl Workload {
    /// The workload `name` with its inputs drawn from `seed`; `smoke`
    /// shrinks it to run in well under a second.
    pub fn new(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
        let name = *NAMES.iter().find(|n| **n == name)?;
        let a2a = |threads| Kind::Fabric {
            mesh: if smoke { 4 } else { 8 },
            pattern: TrafficPattern::AllToAll,
            bytes_per_flow: if smoke { 2 << 10 } else { 4 << 10 },
            threads,
        };
        let kind = match name {
            "mesh8_a2a_t1" => a2a(1),
            "mesh8_a2a_t2" => a2a(2),
            "mesh4_hotspot_t1" => Kind::Fabric {
                mesh: 4,
                pattern: TrafficPattern::Hotspot {
                    target: HOTSPOT_TARGETS[(seed % HOTSPOT_TARGETS.len() as u64) as usize],
                },
                bytes_per_flow: if smoke { 64 << 10 } else { 4 << 20 },
                threads: 1,
            },
            _ => Kind::Paper {
                fig6_sizes: pow2_sizes(6, if smoke { 12 } else { 22 }),
                fig7_sizes: pow2_sizes(6, 12),
            },
        };
        Some(Workload { name, kind, smoke })
    }

    pub fn builder(&self) -> TcclusterBuilder {
        match &self.kind {
            Kind::Fabric { mesh, threads, .. } => TcclusterBuilder::new()
                .topology(ClusterTopology::Mesh { x: *mesh, y: *mesh })
                .processors_per_supernode(2)
                .engine(EngineKind::EventDriven)
                .event_threads(*threads),
            Kind::Paper { .. } => TcclusterBuilder::new(),
        }
    }

    /// The pinned digest of one repetition's simulated outcome. Smoke
    /// runs have none: they check repeatability within the run instead.
    pub fn reference(&self) -> Option<u64> {
        if self.smoke {
            return None;
        }
        match &self.kind {
            Kind::Fabric {
                pattern: TrafficPattern::AllToAll,
                ..
            } => Some(REF_MESH8_A2A),
            Kind::Fabric {
                pattern: TrafficPattern::Hotspot { target },
                ..
            } => HOTSPOT_TARGETS
                .iter()
                .position(|t| t == target)
                .map(|i| REF_HOTSPOT[i]),
            Kind::Fabric { .. } => None,
            Kind::Paper { .. } => Some(REF_PAPER_FIGS),
        }
    }
}

// Pinned digests of the simulated outcome (see `digest_report` and
// `Paper::digest`). Both mesh8 workloads share one: thread count must not
// change results. A model change that alters them on purpose re-pins
// them here, in a change of its own.
const REF_MESH8_A2A: u64 = 0xee94_2032_5e0e_7c80;
const REF_HOTSPOT: [u64; 2] = [0xb2fe_9f10_5419_ba0b, 0xbb47_aec3_68ae_086e];
const REF_PAPER_FIGS: u64 = 0x23d6_bfde_0b61_ff89;

/// What one repetition produced, for the correctness gate and the
/// packet count.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub digest: u64,
    /// Posted writes committed to simulated DRAM during the repetition.
    pub packets: u64,
    /// Violated output checks; empty when the repetition is correct.
    pub problems: Vec<String>,
    /// Paper workload only: 64 B half round trip (ns) and bandwidth (MB/s).
    pub anchors: Option<(f64, f64)>,
}

/// FNV-1a over little-endian u64 words.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a fabric run's outcome: every flow's endpoints, injected
/// packets, delivered bytes and first/last visibility, plus completion
/// time and packet totals. Event and stall counts are left out on purpose:
/// a pure speed-up may lower them.
pub fn digest_report(r: &WorkloadReport) -> u64 {
    let mut h = Fnv::new();
    for f in &r.flows {
        for x in [
            f.src as u64,
            f.dst as u64,
            f.injected_packets,
            f.delivered_bytes,
            f.first_visible.picos(),
            f.last_visible.picos(),
        ] {
            h.word(x);
        }
    }
    h.word(r.elapsed.picos());
    h.word(r.injected_packets);
    h.word(r.delivered_packets);
    h.finish()
}

/// Posted writes committed to DRAM so far, over every node.
pub fn dram_writes(platform: &Platform) -> u64 {
    platform.nodes.iter().map(|n| n.mem.writes).sum()
}

fn check_report(r: &WorkloadReport, bytes_per_flow: u64, dram: u64) -> Vec<String> {
    let mut problems = Vec::new();
    if r.lost_packets() != 0 || r.delivered_packets != r.injected_packets {
        problems.push(format!(
            "injected {} packets, delivered {}",
            r.injected_packets, r.delivered_packets
        ));
    }
    if dram != r.delivered_packets {
        problems.push(format!(
            "{} DRAM commits for {} delivered packets",
            dram, r.delivered_packets
        ));
    }
    let want = bytes_per_flow.div_ceil(64) * 64;
    if let Some(f) = r.flows.iter().find(|f| f.delivered_bytes != want) {
        problems.push(format!(
            "flow {}->{} delivered {} of {want} bytes",
            f.src, f.dst, f.delivered_bytes
        ));
    }
    problems
}

/// One fabric repetition through `SimCluster::run_workload`. Returns the
/// host seconds of that call alone and the outcome.
pub fn fabric_rep(
    cluster: &mut SimCluster,
    pattern: TrafficPattern,
    bytes_per_flow: u64,
) -> (f64, Outcome) {
    let w0 = dram_writes(&cluster.platform);
    let t0 = Instant::now();
    let report = cluster.run_workload(pattern, bytes_per_flow);
    let secs = t0.elapsed().as_secs_f64();
    let packets = dram_writes(&cluster.platform) - w0;
    let outcome = Outcome {
        digest: digest_report(&report),
        packets,
        problems: check_report(&report, bytes_per_flow, packets),
        anchors: None,
    };
    (secs, outcome)
}

/// Boot a fabric workload's platform the way `SimCluster` does, but
/// without a `SimCluster` around it, so a traced repetition can drive the
/// engine through its public calls.
pub fn boot_platform(spec: ClusterSpec) -> Platform {
    let mut platform = Platform::assemble(spec, UarchParams::shanghai());
    platform.tcc_target = LinkConfig::PROTOTYPE;
    boot(&mut platform);
    platform
}

/// Counters a traced fabric repetition reads from the engine.
#[derive(Debug, Clone, Default)]
pub struct EngineCounts {
    pub events: u64,
    pub packets: u64,
    pub stalls: u64,
    pub nops: u64,
    pub wire_packets: u64,
    pub routes: u64,
    pub forwards: u64,
    pub allocs_in_run: u64,
    pub sim_elapsed_us: f64,
    pub profile: StageProfile,
}

/// `SimCluster::run_workload`'s body, called layer by layer with a span
/// around each call: quiesce the nodes and switch them to raw egress,
/// build the engine, add the flows, run to quiescence, check credits and
/// attribute commits to flows.
pub fn fabric_traced(
    platform: &mut Platform,
    wl: &Workload,
    options: EngineOptions,
    tr: &mut Tracer,
) -> (Outcome, EngineCounts) {
    let Kind::Fabric {
        pattern,
        bytes_per_flow,
        ..
    } = wl.kind
    else {
        unreachable!("fabric_traced on a non-fabric workload");
    };
    let w0 = dram_writes(platform);
    let nb0 = nb_counters(platform);
    let root = tr.open("sim.run_workload");
    let s = tr.open("opteron.node.quiesce");
    for node in &mut platform.nodes {
        node.quiesce();
        node.raw_egress = true;
    }
    tr.close(s);
    let s = tr.open("engine.build");
    let mut engine = EventEngine::with_options(platform, DEFAULT_DRAIN, options);
    tr.close(s);
    let s = tr.open("engine.add_flows");
    for (src, dst) in pattern_pairs(&platform.spec, pattern) {
        engine.add_flow(platform, src, dst, bytes_per_flow);
    }
    tr.close(s);
    let a0 = crate::alloc::count();
    let s = tr.open("engine.run_quiescent");
    engine.run_quiescent(platform);
    tr.close(s);
    let allocs_in_run = crate::alloc::count() - a0;
    let s = tr.open("engine.credit_check");
    engine.assert_quiescent_credits();
    tr.close(s);
    let s = tr.open("engine.flow_reports");
    let flows = engine.flow_reports();
    tr.close(s);
    let report = WorkloadReport {
        stalls_no_credit: engine.stalls_no_credit(),
        events: engine.events_handled(),
        elapsed: engine.now(),
        injected_packets: flows.iter().map(|f| f.injected_packets).sum(),
        delivered_packets: engine.commits().len() as u64,
        flows,
    };
    tr.close(root);

    let packets = dram_writes(platform) - w0;
    let nb1 = nb_counters(platform);
    let wire_packets = engine
        .port_ids()
        .into_iter()
        .filter_map(|(n, l)| engine.port(n, l))
        .map(|p| p.tx().stats.packets_sent)
        .sum();
    let counts = EngineCounts {
        events: report.events,
        packets,
        stalls: report.stalls_no_credit,
        nops: engine.nops_sent(),
        wire_packets,
        routes: nb1.0 - nb0.0,
        forwards: nb1.1 - nb0.1,
        allocs_in_run,
        sim_elapsed_us: report.elapsed.micros(),
        profile: engine.stage_profile(),
    };
    let outcome = Outcome {
        digest: digest_report(&report),
        packets,
        problems: check_report(&report, bytes_per_flow, packets),
        anchors: None,
    };
    (outcome, counts)
}

/// (requests routed, packets forwarded) summed over every northbridge.
pub fn nb_counters(platform: &Platform) -> (u64, u64) {
    platform.nodes.iter().fold((0, 0), |(r, f), n| {
        (r + n.nb.requests_routed, f + n.nb.packets_forwarded)
    })
}

/// One repetition of the paper workload: the Fig. 6 sweep (both
/// orderings), the Fig. 7 sweep and the two anchors, all sequential on
/// one prototype pair. Spans are recorded when `tr` is enabled.
pub fn paper_rep(cluster: &mut SimCluster, wl: &Workload, tr: &mut Tracer) -> (f64, Outcome) {
    let Kind::Paper {
        fig6_sizes,
        fig7_sizes,
    } = &wl.kind
    else {
        unreachable!("paper_rep on a fabric workload");
    };
    let w0 = dram_writes(&cluster.platform);
    let mut h = Fnv::new();
    let t0 = Instant::now();
    let root = tr.open("sim.paper_figs");
    let s = tr.open("sim.fig6");
    for &size in fig6_sizes {
        let it = fig6_iters(size);
        for mode in [SendMode::WeaklyOrdered, SendMode::StrictlyOrdered] {
            h.word(cluster.stream_bandwidth(0, 1, size, mode, it).to_bits());
        }
    }
    tr.close(s);
    let s = tr.open("sim.fig7");
    for &size in fig7_sizes {
        h.word(cluster.pingpong(0, 1, size, FIG7_ITERS).picos());
    }
    tr.close(s);
    let s = tr.open("sim.anchor");
    let latency = cluster.pingpong(0, 1, 64, 100);
    let bandwidth = cluster.stream_bandwidth(0, 1, 64, SendMode::WeaklyOrdered, 50);
    tr.close(s);
    tr.close(root);
    let secs = t0.elapsed().as_secs_f64();
    h.word(latency.picos());
    h.word(bandwidth.to_bits());

    let mut problems = Vec::new();
    if (latency.nanos() - PAPER_LATENCY_NS).abs() > LATENCY_TOL_NS {
        problems.push(format!("64 B half round trip {:.1} ns", latency.nanos()));
    }
    if (bandwidth - PAPER_BANDWIDTH_MBPS).abs() > BANDWIDTH_TOL_MBPS {
        problems.push(format!("64 B weak bandwidth {bandwidth:.1} MB/s"));
    }
    let outcome = Outcome {
        digest: h.finish(),
        packets: dram_writes(&cluster.platform) - w0,
        problems,
        anchors: Some((latency.nanos(), bandwidth)),
    };
    (secs, outcome)
}
