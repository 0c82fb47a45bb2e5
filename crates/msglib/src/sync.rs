//! Atomics facade: `std::sync::atomic` normally, loom's modeled atomics
//! under `--cfg loom` so the shm protocols (single-writer rings, the
//! release-publication of [`crate::shm::ShmRemote::store`], dissemination
//! barriers) can be checked against the C11 memory model by
//! `tests/loom.rs` without touching protocol code.

#[cfg(loom)]
pub(crate) use loom::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
#[cfg(not(loom))]
pub(crate) use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
