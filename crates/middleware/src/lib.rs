//! # tcc-middleware — MPI-like and PGAS layers over the message library
//!
//! The paper's outlook (§VII): "port a middleware software layer like MPI
//! or GASNet on top of our simple message library". This crate does both:
//!
//! * [`mpi`] — tagged point-to-point with unexpected-message queues, plus
//!   broadcast (binomial tree), allreduce (recursive doubling), gather and
//!   personalised all-to-all.
//! * [`pgas`] — a block-distributed global array: remote `put` is one
//!   remote store; remote `get` is two-sided under the hood because the
//!   interconnect cannot route responses (paper §IV.A).

#![forbid(unsafe_code)]

pub mod mpi;
pub mod pgas;

pub use mpi::{Comm, ReduceOp};
pub use pgas::GlobalArray;
