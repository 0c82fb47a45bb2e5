//! The user-facing entry point: describe a TCCluster, then realise it as
//! a packet-level simulation ([`SimCluster`]) or as a threaded
//! shared-memory emulation ([`ShmCluster`]).

use crate::engine::{EngineKind, EngineOptions};
use crate::shm_cluster::ShmCluster;
use crate::sim::SimCluster;
use tcc_firmware::topology::{ClusterSpec, ClusterTopology, SupernodeSpec};
use tcc_ht::link::LinkConfig;
use tcc_msglib::ring::SendMode;
use tcc_opteron::UarchParams;

/// Builder for TCCluster instances.
#[derive(Debug, Clone)]
pub struct TcclusterBuilder {
    topology: ClusterTopology,
    processors: usize,
    dram_per_node: u64,
    tcc_link: LinkConfig,
    params: UarchParams,
    engine: EngineKind,
    options: EngineOptions,
}

impl Default for TcclusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TcclusterBuilder {
    /// Defaults mirror the paper's prototype: two single-socket
    /// supernodes joined by one HT800/16-bit cable.
    #[must_use]
    pub fn new() -> Self {
        TcclusterBuilder {
            topology: ClusterTopology::Pair,
            processors: 1,
            dram_per_node: 1 << 20,
            tcc_link: LinkConfig::PROTOTYPE,
            params: UarchParams::shanghai(),
            engine: EngineKind::Chained,
            options: EngineOptions::default(),
        }
    }

    #[must_use]
    pub fn topology(mut self, t: ClusterTopology) -> Self {
        self.topology = t;
        self
    }

    #[must_use]
    pub fn processors_per_supernode(mut self, p: usize) -> Self {
        self.processors = p;
        self
    }

    /// Simulated DRAM per processor (power of two).
    #[must_use]
    pub fn dram_per_node(mut self, bytes: u64) -> Self {
        self.dram_per_node = bytes;
        self
    }

    /// TCC cable configuration (e.g. [`LinkConfig::PROTOTYPE`] = HT800,
    /// or [`LinkConfig::HT3_FULL`] for the backplane the paper projects).
    #[must_use]
    pub fn tcc_link(mut self, cfg: LinkConfig) -> Self {
        self.tcc_link = cfg;
        self
    }

    #[must_use]
    pub fn params(mut self, p: UarchParams) -> Self {
        self.params = p;
        self
    }

    /// Timing engine for the packet-level simulation: the default
    /// analytic [`EngineKind::Chained`] path, or the discrete-event
    /// fabric ([`EngineKind::EventDriven`]) with real credit flow control
    /// and concurrent multi-flow contention. See `docs/engine.md`.
    #[must_use]
    pub fn engine(mut self, k: EngineKind) -> Self {
        self.engine = k;
        self
    }

    /// Worker threads for the event engine's sharded conservative-PDES
    /// executive (one shard per supernode; extra threads are clamped).
    /// Results are bit-identical for every thread count — this knob
    /// trades wall clock only. Meaningful with
    /// [`EngineKind::EventDriven`].
    #[must_use]
    pub fn event_threads(mut self, threads: usize) -> Self {
        self.options.threads = threads.max(1);
        self
    }

    #[must_use]
    pub fn spec(&self) -> ClusterSpec {
        ClusterSpec::new(
            SupernodeSpec::new(self.processors, self.dram_per_node),
            self.topology,
        )
    }

    /// Boot the packet-level simulation (runs the full §V firmware
    /// sequence, including the remote-access self test).
    #[must_use]
    pub fn build_sim(&self) -> SimCluster {
        SimCluster::boot_engine_opts(
            self.spec(),
            self.params.clone(),
            self.tcc_link,
            self.engine,
            self.options,
        )
    }

    /// Build the threaded shared-memory emulation with one rank per
    /// processor, sending weakly ordered (the paper's fast mode).
    #[must_use]
    pub fn build_shm(&self) -> ShmCluster {
        let ranks = self.spec().total_processors();
        ShmCluster::new(ranks, SendMode::WeaklyOrdered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_builder_is_the_prototype() {
        let b = TcclusterBuilder::new();
        let spec = b.spec();
        assert_eq!(spec.supernode_count(), 2);
        assert_eq!(spec.total_processors(), 2);
    }

    #[test]
    fn builder_shapes_clusters() {
        let b = TcclusterBuilder::new()
            .topology(ClusterTopology::Mesh { x: 2, y: 2 })
            .processors_per_supernode(2);
        assert_eq!(b.spec().total_processors(), 8);
        let shm = b.build_shm();
        assert_eq!(shm.n(), 8);
    }

    #[test]
    fn sim_builds_and_self_tests() {
        let c = TcclusterBuilder::new().build_sim();
        assert_eq!(c.boot.selftest_pairs, 2);
    }
}
