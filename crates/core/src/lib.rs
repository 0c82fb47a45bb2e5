//! # tccluster — a cluster architecture using the processor host interface
//! as the network interconnect
//!
//! A from-scratch reproduction of Litz, Thuermer & Bruening, *"TCCluster: A
//! Cluster Architecture Utilizing the Processor Host Interface as a Network
//! Interconnect"* (IEEE CLUSTER 2010), as a simulation + emulation library.
//!
//! Two execution backends share the message-library API:
//!
//! * [`sim::SimCluster`] — a packet-level simulation of the whole stack
//!   (Opteron cores with write-combining, northbridges, HyperTransport
//!   links, the coreboot-style boot sequence). It regenerates the paper's
//!   latency/bandwidth figures.
//! * [`shm_cluster::ShmCluster`] — every node is an OS thread; TCCluster
//!   links become write-only shared-memory windows. It runs real programs
//!   (the examples and the MPI/PGAS middleware) with real parallelism.
//!
//! ```
//! use tccluster::TcclusterBuilder;
//!
//! // The paper's prototype: two nodes, one HT800 cable.
//! let mut cluster = TcclusterBuilder::new().build_sim();
//! let latency = cluster.pingpong(0, 1, 64, 50);
//! assert!(latency.nanos() < 300.0);
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod engine;
pub mod shm_cluster;
pub mod sim;

pub use builder::TcclusterBuilder;
pub use engine::{
    EngineKind, EngineOptions, EventCounts, EventEngine, FlowReport, StageProfile, TrafficPattern,
    WorkloadReport,
};
pub use shm_cluster::{NodeCtx, ShmCluster};
pub use sim::SimCluster;

// Re-export the substrate crates under one roof for downstream users.
pub use tcc_fabric as fabric;
pub use tcc_firmware as firmware;
pub use tcc_ht as ht;
pub use tcc_msglib as msglib;
pub use tcc_opteron as opteron;
