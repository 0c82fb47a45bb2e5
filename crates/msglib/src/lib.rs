//! # tcc-msglib — the TCCluster user-space message library
//!
//! The paper's §IV.A/§VI message library, rebuilt as a library:
//!
//! * [`window`] — the driver abstraction: write-only [`RemoteWindow`]s
//!   (TCCluster links cannot route responses, so remote *loads* do not
//!   exist in the type system) and pollable uncacheable [`LocalWindow`]s.
//! * [`ring`] — the eager path: 4 KB rings of self-validating 72 B cells,
//!   header-written-last, credits returned by remote store.
//! * [`channel`](mod@channel) — the full channel: eager ring + one-sided rendezvous for
//!   large messages, with strictly- and weakly-ordered send modes (the two
//!   mechanisms of paper Fig. 6).
//! * [`barrier`] — dissemination barriers and flags from remote stores.
//! * [`handoff`] — epoch-batched SPSC rings used by the sharded event
//!   engine to move cross-shard events without per-event locking.
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

pub use barrier::{Barrier, Flag, SYNC_BYTES};
pub use channel::{
    channel, Receiver, SendError, Sender, CHANNEL_BYTES, CREDIT_BYTES, MAX_MESSAGE, RDVZ_BYTES,
};
pub use handoff::{BatchRing, BATCH_RING_SLOTS};
pub use ring::{
    RingError, RingReceiver, RingSender, SendMode, CELL_PAYLOAD, MAX_EAGER, RING_BYTES,
};
pub use shm::{ShmLocal, ShmMemory, ShmRemote};
pub use window::{Backoff, LocalWindow, RemoteWindow};
