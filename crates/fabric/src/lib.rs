//! # tcc-fabric — discrete-event simulation kernel
//!
//! The substrate every simulated subsystem of the TCCluster reproduction is
//! built on:
//!
//! * [`time`] — a picosecond-resolution simulated clock.
//! * [`event`] — deterministic time-ordered event queues: a heap, and
//!   FIFO lanes for pre-ordered streams beside one.
//! * [`channel`] — bandwidth/latency-limited transfer resources (links,
//!   DRAM channels, PCIe) with exact integer serialisation math.
//! * [`rng`] — deterministic xoshiro256** / SplitMix64 generators.
//! * [`trace`] — ordered event traces for boot sequences and protocol FSMs.
//! * [`series`] — figure/table output shared by all experiment harnesses.
//! * [`fatal`] — the reviewed protocol-violation funnel hot paths abort
//!   through (see the `panic-freedom` pass in tcc-analyze).

#![forbid(unsafe_code)]

pub mod channel;
pub mod event;
pub mod fatal;
pub mod rng;
pub mod series;
pub mod time;
pub mod trace;

pub use channel::{Channel, Transfer};
pub use event::EventQueue;
pub use rng::Xoshiro256;
pub use series::{Figure, Series};
pub use time::{Duration, SimTime};
pub use trace::Trace;
