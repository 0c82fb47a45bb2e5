//! Every metric the benchmark emits, with its unit and direction; the
//! end-to-end ones also carry the regression bound. `BENCHMARK.json`
//! declares the same table (a unit test holds the two equal).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only; 0 for per-layer metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// The timing bounds are wide: on a shared 2-CPU host the host's own speed
/// drifts by 10-16% (IQR) over minutes, which no within-run statistic
/// removes (README, "Baseline").
pub const END_TO_END: &[Decl] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("run_s", "s", Lower, 0.25),
    e2e("packets_per_s", "1/s", Higher, 0.25),
    e2e("peak_heap_mb", "MB", Lower, 0.1),
];

/// Per-layer metrics, grouped by the repository module they time. A
/// metric of a path the workload does not take (the event engine on
/// `paper_figs`, the figure sweeps on the fabric workloads) reads 0.
pub const PER_LAYER: &[Decl] = &[
    // tcc_firmware: assemble + boot of the workload's platform.
    layer("firmware.boot_ms", "ms", Lower),
    // tccluster::engine: spans around the calls run_workload makes.
    layer("engine.build_ms", "ms", Lower),
    layer("engine.add_flows_ms", "ms", Lower),
    layer("engine.credit_check_ms", "ms", Lower),
    layer("engine.run_quiescent_s", "s", Lower),
    layer("engine.ns_per_event", "ns", Lower),
    layer("engine.ns_per_packet", "ns", Lower),
    layer("engine.flow_reports_s", "s", Lower),
    layer("engine.flow_reports_share", "ratio", Lower),
    layer("engine.events_per_packet", "count", Lower),
    layer("engine.events_per_visit", "count", Higher),
    layer("engine.allocs_per_packet", "count", Lower),
    layer("engine.sim_elapsed_us", "sim_us", Lower),
    // tccluster::engine: the in-program sampled stage profile.
    layer("engine.profile.queue_ns_per_event", "ns", Lower),
    layer("engine.profile.exec_ns_per_event", "ns", Lower),
    layer("engine.profile.credit_ns_per_event", "ns", Lower),
    layer("engine.profile.route_ns_per_event", "ns", Lower),
    layer("engine.profile.deliver_ns_per_event", "ns", Lower),
    layer("engine.profile.mailbox_ns_per_event", "ns", Lower),
    layer("engine.profile.overhead_pct", "%", Lower),
    layer("engine.profile.reconcile_gap_pct", "%", Lower),
    // tcc_fabric::event: pop + schedule hold model, default backend.
    layer("fabric.event.hold_ns_p24", "ns", Lower),
    layer("fabric.event.hold_ns_p192", "ns", Lower),
    layer("fabric.event.hold_ns_p768", "ns", Lower),
    // tcc_ht::flow and tcc_ht::link: credits, buffers and the wire.
    layer("ht.flow.credit_cycle_ns", "ns", Lower),
    layer("ht.flow.rxbuf_cycle_ns", "ns", Lower),
    layer("ht.flow.stalls_per_packet", "count", Lower),
    layer("ht.link.tx_send_pump_ns", "ns", Lower),
    layer("ht.link.rx_accept_drain_ns", "ns", Lower),
    layer("ht.link.nops_per_packet", "count", Lower),
    layer("ht.link.wire_packets_per_packet", "count", Lower),
    // tcc_opteron::nb and tcc_opteron::node: routing, delivery, stores.
    layer("opteron.nb.flat_lookup_ns", "ns", Lower),
    layer("opteron.nb.dispose_ns", "ns", Lower),
    layer("opteron.nb.routes_per_packet", "count", Lower),
    layer("opteron.nb.forwards_per_packet", "count", Lower),
    layer("opteron.node.deliver_flat_ns", "ns", Lower),
    layer("opteron.node.deliver_routed_ns", "ns", Lower),
    layer("opteron.node.store_ns", "ns", Lower),
    // tcc_msglib::handoff: the cross-shard batch ring.
    layer("msglib.handoff.ns_per_item", "ns", Lower),
    // tccluster::sim: the figure sweeps and the paper anchors.
    layer("sim.fig6_ms", "ms", Lower),
    layer("sim.fig7_ms", "ms", Lower),
    layer("sim.anchor_ms", "ms", Lower),
    layer("sim.latency_err_pct", "%", Lower),
    layer("sim.bandwidth_err_pct", "%", Lower),
    // The harness itself.
    layer("bench.clock_read_ns", "ns", Lower),
    layer("bench.span_gap_pct", "%", Lower),
];

pub fn decl(name: &str) -> Option<&'static Decl> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// One measured value, printed by name with its declared unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn unit(&self) -> &'static str {
        decl(self.name).map_or("", |d| d.unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name is 1 to 64 of `[A-Za-z0-9_.-]`, starting with a
    /// letter or digit.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_use_the_allowed_charset_once_each() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name:?}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "a metric name is declared twice");
        assert!(PER_LAYER.len() <= 128);
        assert!(!valid_name("1/s") && !valid_name(".x") && !valid_name(""));
        for b in END_TO_END {
            assert!(
                b.bound > 0.0 && b.bound <= 0.25,
                "{} bound {}",
                b.name,
                b.bound
            );
        }
    }
}
