//! # tcc-msglib — the TCCluster user-space message library
//!
//! The paper's §IV.A/§VI message library, rebuilt as a library:
//!
//! * [`window`] — the driver abstraction: write-only [`RemoteWindow`]s
//!   (TCCluster links cannot route responses, so remote *loads* do not
//!   exist in the type system) and pollable uncacheable [`LocalWindow`]s.
//! * [`channel`](mod@channel) — the one send/receive path: eager ring +
//!   one-sided rendezvous for large messages, with strictly- and
//!   weakly-ordered send modes (the two mechanisms of paper Fig. 6).
//! * [`ring`] — the channel's eager path: 4 KB rings of self-validating
//!   72 B cells, header-written-last, credits returned by remote store.
//!   Its halves are crate-private; the module exports the ring geometry
//!   and [`SendMode`].
//! * [`barrier`] — dissemination barriers from remote stores (no flags).
//! * [`handoff`] — the sharded event engine's executive primitives:
//!   one-slot SPSC mailboxes that move cross-shard events without
//!   per-event locking, and the spinning barrier its workers meet at.
//! * [`shm`] — the threaded execution backend mapping TCCluster semantics
//!   onto atomics (Release headers, Acquire polls, SeqCst sfence).

#![forbid(unsafe_code)]

pub mod barrier;
pub mod channel;
pub mod handoff;
pub mod ring;
pub mod shm;
pub(crate) mod sync;
pub mod window;

pub use barrier::{Barrier, SYNC_BYTES};
pub use channel::{
    channel, Receiver, SendError, Sender, CHANNEL_BYTES, CREDIT_BYTES, MAX_MESSAGE, RDVZ_BYTES,
};
pub use handoff::{BatchRing, EpochBarrier};
pub use ring::{SendMode, CELL_PAYLOAD, MAX_EAGER, RING_BYTES};
pub use shm::{ShmLocal, ShmMemory, ShmRemote};
pub use window::{Backoff, LocalWindow, RemoteWindow};
