//! # tcc-opteron — AMD Opteron K10 node model
//!
//! A timed functional model of the paper's hardware substrate, built from
//! scratch:
//!
//! * [`params`] — every calibration constant, documented against the
//!   paper's measured anchors.
//! * [`regs`] — NodeID, per-link debug registers, reset semantics.
//! * [`mtrr`] — memory-type range registers (WB / UC / WC).
//! * [`wc`] — the eight 64 B write-combining buffers.
//! * [`addrmap`] — DRAM/MMIO base-limit registers (interval routing).
//! * [`route`] — the NodeID-indexed routing table with broadcast masks.
//! * [`tags`] — the 32-entry response-matching table (why remote reads are
//!   impossible over a TCCluster link).
//! * [`nb`] — the northbridge: request disposition, IO bridge, filtering.
//! * [`mem`] — memory controller + DRAM backing store (real bytes).
//! * [`coherence`] — probe-broadcast cost model (why ccNUMA stops scaling).
//! * [`node`] — the assembled package: store path, receive path, polling.

#![forbid(unsafe_code)]

pub mod addrmap;
pub mod coherence;
pub mod mem;
pub mod mtrr;
pub mod nb;
pub mod node;
pub mod params;
pub mod pool;
pub mod regs;
pub mod route;
pub mod tags;
pub mod wc;

pub use addrmap::{AddressMap, MapError, Target};
pub use mtrr::{MemType, Mtrrs};
pub use nb::{Disposition, NbError, Northbridge, Source};
pub use node::{Action, ActionSink, BurstPattern, Node, StoreOutcome};
pub use params::UarchParams;
pub use pool::PayloadPool;
pub use regs::{LinkId, NodeId, NodeRegs, LINKS_PER_NODE};
pub use route::{symmetric, NodeRoute, Route, RoutingTable};
pub use tags::{Pending, TagError, TagTable};
