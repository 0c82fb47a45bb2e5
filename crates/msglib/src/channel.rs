//! The complete unidirectional channel: eager ring + one-sided rendezvous.
//!
//! Small messages ride the 4 KB ring (paper §IV.A); larger ones use the
//! rendezvous path the paper sketches: "data is written directly to the
//! final destination on the remote node and an additional queue is used
//! for synchronization and management". The destination is a byte ring in
//! the receiver's exported memory; completion descriptors travel over the
//! eager ring; reclamation credits flow back like ring credits.
//!
//! Channel memory layout, inside the **receiver's** exported page:
//!
//! ```text
//! [0, 4096)                    eager ring (56 × 72 B cells)
//! [4096, 4096 + RDVZ_BYTES)    rendezvous landing zone
//! ```
//!
//! plus a 16-byte credit block inside the **sender's** exported page:
//! `[0]` ring credit (consumed seq), `[8]` rendezvous credit (consumed
//! bytes).

use crate::ring::{RingReceiver, RingSender, SendMode, MAX_EAGER, RING_BYTES};
use crate::window::{LocalWindow, RemoteWindow};
use tcc_fabric::protocol_violation;

/// Rendezvous landing-zone size per channel.
pub const RDVZ_BYTES: u64 = 256 * 1024;
/// Exported bytes one channel occupies on the receiver.
pub const CHANNEL_BYTES: u64 = RING_BYTES as u64 + RDVZ_BYTES;
/// Credit-block bytes one channel occupies on the sender.
pub const CREDIT_BYTES: u64 = 16;

const TAG_INLINE: u8 = 0;
const TAG_RDVZ: u8 = 1;

/// Largest single message: half the rendezvous zone. A half-zone
/// reservation is *always* satisfiable regardless of where the zone
/// pointer sits (a full-zone message would deadlock whenever the
/// wrap-gap skip plus the payload exceeds the zone — reservations larger
/// than `zone - skip` can never be granted once the pointer has moved).
/// Applications pipeline larger transfers as multiple messages, exactly
/// as real rendezvous protocols do.
pub const MAX_MESSAGE: usize = (RDVZ_BYTES / 2) as usize;

/// A shared sub-window: offsets into the parent with a fixed base.
#[derive(Debug, Clone)]
pub struct RemoteAt<R> {
    inner: R,
    base: u64,
    len: u64,
}

impl<R: RemoteWindow> RemoteAt<R> {
    #[must_use]
    pub fn new(inner: R, base: u64, len: u64) -> Self {
        assert!(base + len <= inner.len());
        RemoteAt { inner, base, len }
    }
}

impl<R: RemoteWindow> RemoteWindow for RemoteAt<R> {
    fn len(&self) -> u64 {
        self.len
    }

    fn store(&self, offset: u64, data: &[u8]) {
        assert!(offset + data.len() as u64 <= self.len);
        self.inner.store(self.base + offset, data);
    }

    fn fence(&self) {
        self.inner.fence();
    }
}

/// Local sub-window.
#[derive(Debug, Clone)]
pub struct LocalAt<L> {
    inner: L,
    base: u64,
    len: u64,
}

impl<L: LocalWindow> LocalAt<L> {
    #[must_use]
    pub fn new(inner: L, base: u64, len: u64) -> Self {
        assert!(base + len <= inner.len());
        LocalAt { inner, base, len }
    }
}

impl<L: LocalWindow> LocalWindow for LocalAt<L> {
    fn len(&self) -> u64 {
        self.len
    }

    fn load(&self, offset: u64, buf: &mut [u8]) {
        assert!(offset + buf.len() as u64 <= self.len);
        self.inner.load(self.base + offset, buf);
    }
}

/// Errors from the full channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// Exceeds [`MAX_MESSAGE`].
    TooLarge(usize),
    /// Would block on ring or rendezvous credit.
    WouldBlock,
}

/// Sending half of a channel.
#[derive(Debug)]
pub struct Sender<R: RemoteWindow + Clone, L: LocalWindow + Clone> {
    ring: RingSender<RemoteAt<R>, LocalAt<L>>,
    rdvz: RemoteAt<R>,
    rdvz_credit: LocalAt<L>,
    /// Next free byte in the rendezvous zone (monotonic, wraps by skip).
    rdvz_tail: u64,
    /// Bytes the receiver has confirmed consumed (monotonic).
    rdvz_credited: u64,
    /// Reusable tag-framing buffer for the inline path.
    frame_scratch: Vec<u8>,
    pub rendezvous_sends: u64,
}

/// Receiving half of a channel.
#[derive(Debug)]
pub struct Receiver<L: LocalWindow + Clone, R: RemoteWindow + Clone> {
    ring: RingReceiver<LocalAt<L>, RemoteAt<R>>,
    rdvz: LocalAt<L>,
    rdvz_credit: RemoteAt<R>,
    rdvz_consumed: u64,
}

impl<R: RemoteWindow + Clone, L: LocalWindow + Clone> Sender<R, L> {
    /// Build the sending half alone.
    ///
    /// * `to_receiver` — remote window onto the receiver's exported
    ///   channel region (`CHANNEL_BYTES`);
    /// * `credits` — local window onto this sender's credit block.
    #[must_use]
    pub fn new(to_receiver: R, credits: L, mode: SendMode) -> Self {
        assert!(to_receiver.len() >= CHANNEL_BYTES);
        assert!(credits.len() >= CREDIT_BYTES);
        Sender {
            ring: RingSender::new(
                RemoteAt::new(to_receiver.clone(), 0, RING_BYTES as u64),
                LocalAt::new(credits.clone(), 0, 8),
                mode,
            ),
            rdvz: RemoteAt::new(to_receiver, RING_BYTES as u64, RDVZ_BYTES),
            rdvz_credit: LocalAt::new(credits, 8, 8),
            rdvz_tail: 0,
            rdvz_credited: 0,
            frame_scratch: Vec::new(),
            rendezvous_sends: 0,
        }
    }
}

impl<L: LocalWindow + Clone, R: RemoteWindow + Clone> Receiver<L, R> {
    /// Build the receiving half alone.
    ///
    /// * `ring_local` — local view of this receiver's exported channel
    ///   region (`CHANNEL_BYTES`);
    /// * `to_sender_credits` — remote window onto the sender's credit
    ///   block.
    #[must_use]
    pub fn new(ring_local: L, to_sender_credits: R) -> Self {
        assert!(ring_local.len() >= CHANNEL_BYTES);
        assert!(to_sender_credits.len() >= CREDIT_BYTES);
        Receiver {
            ring: RingReceiver::new(
                LocalAt::new(ring_local.clone(), 0, RING_BYTES as u64),
                RemoteAt::new(to_sender_credits.clone(), 0, 8),
            ),
            rdvz: LocalAt::new(ring_local, RING_BYTES as u64, RDVZ_BYTES),
            rdvz_credit: RemoteAt::new(to_sender_credits, 8, 8),
            rdvz_consumed: 0,
        }
    }
}

/// Build the two halves of one channel.
///
/// * `to_receiver` — remote window onto the receiver's exported channel
///   region (`CHANNEL_BYTES`), held by the sender;
/// * `sender_credits` — local window onto the sender's credit block;
/// * `ring_local` — the receiver's local view of the same channel region;
/// * `to_sender_credits` — remote window onto the sender's credit block,
///   held by the receiver.
#[must_use]
pub fn channel<R1, L1, L2, R2>(
    to_receiver: R1,
    sender_credits: L1,
    ring_local: L2,
    to_sender_credits: R2,
    mode: SendMode,
) -> (Sender<R1, L1>, Receiver<L2, R2>)
where
    R1: RemoteWindow + Clone,
    L1: LocalWindow + Clone,
    L2: LocalWindow + Clone,
    R2: RemoteWindow + Clone,
{
    (
        Sender::new(to_receiver, sender_credits, mode),
        Receiver::new(ring_local, to_sender_credits),
    )
}

impl<R: RemoteWindow + Clone, L: LocalWindow + Clone> Sender<R, L> {
    /// Non-blocking send of a message of any size up to [`MAX_MESSAGE`].
    pub fn try_send(&mut self, msg: &[u8]) -> Result<(), SendError> {
        if msg.len() < MAX_EAGER {
            // Frame in a reusable scratch buffer: no per-send allocation
            // once it has grown to the working-set message size.
            self.frame_scratch.clear();
            self.frame_scratch.push(TAG_INLINE);
            self.frame_scratch.extend_from_slice(msg);
            return self.ring.try_send(&self.frame_scratch);
        }
        if msg.len() > MAX_MESSAGE {
            return Err(SendError::TooLarge(msg.len()));
        }
        self.try_send_rendezvous(msg)
    }

    fn try_send_rendezvous(&mut self, msg: &[u8]) -> Result<(), SendError> {
        let len = msg.len() as u64;
        // Reserve a contiguous span, skipping the wrap gap if needed.
        let pos = self.rdvz_tail % RDVZ_BYTES;
        let skip = if pos + len > RDVZ_BYTES {
            RDVZ_BYTES - pos // unusable gap at the end of the zone
        } else {
            0
        };
        let needed = skip + len;
        // Refresh credit.
        self.rdvz_credited = self.rdvz_credited.max(self.rdvz_credit.load_u64(0));
        if self.rdvz_tail + needed - self.rdvz_credited > RDVZ_BYTES {
            return Err(SendError::WouldBlock);
        }
        let start = self.rdvz_tail + skip;
        let off = start % RDVZ_BYTES;
        // One-sided write of the payload to its final destination.
        self.rdvz.store(off, msg);
        // The descriptor must not overtake the payload: posted-channel
        // ordering guarantees it, and the fence covers weak mode.
        self.rdvz.fence();
        let mut desc = [0u8; 17];
        desc[0] = TAG_RDVZ;
        desc[1..9].copy_from_slice(&off.to_le_bytes());
        desc[9..17].copy_from_slice(&(len).to_le_bytes());
        self.ring.try_send(&desc)?;
        self.rdvz_tail = start + len;
        self.rendezvous_sends += 1;
        Ok(())
    }

    /// Blocking send. Uses exponential backoff while out of credit.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    pub fn send(&mut self, msg: &[u8]) -> Result<(), SendError> {
        let mut backoff = crate::window::Backoff::new();
        loop {
            match self.try_send(msg) {
                Err(SendError::WouldBlock) => backoff.snooze(),
                other => return other,
            }
        }
    }
}

impl<L: LocalWindow + Clone, R: RemoteWindow + Clone> Receiver<L, R> {
    /// Poll once.
    ///
    /// Allocating convenience wrapper over [`try_recv_into`].
    ///
    /// [`try_recv_into`]: Receiver::try_recv_into
    pub fn try_recv(&mut self) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        self.try_recv_into(&mut out).map(|_| out)
    }

    /// Poll once, delivering a complete message into `out` (cleared
    /// first). Returns the message length.
    ///
    /// Allocation-free in steady state: the tag byte is stripped in
    /// place and rendezvous payloads land directly in `out`.
    pub fn try_recv_into(&mut self, out: &mut Vec<u8>) -> Option<usize> {
        let framed = self.ring.try_recv_into(out)?;
        assert!(framed > 0, "frame always carries a tag");
        match out[0] {
            TAG_INLINE => {
                out.copy_within(1.., 0);
                out.truncate(framed - 1);
                Some(out.len())
            }
            TAG_RDVZ => {
                assert_eq!(framed, 17, "descriptor frame");
                // copy_from_slice rather than try_into: the length is
                // pinned by the assert above, and this keeps the decode
                // free of Result plumbing on the hot receive path.
                let mut word = [0u8; 8];
                word.copy_from_slice(&out[1..9]);
                let off = u64::from_le_bytes(word);
                word.copy_from_slice(&out[9..17]);
                let len = u64::from_le_bytes(word);
                out.clear();
                out.resize(len as usize, 0);
                self.rdvz.load(off, out);
                // Account for any wrap gap the sender skipped.
                let pos = self.rdvz_consumed % RDVZ_BYTES;
                let skip = if pos + len > RDVZ_BYTES {
                    RDVZ_BYTES - pos
                } else {
                    0
                };
                self.rdvz_consumed += skip + len;
                self.rdvz_credit.store_u64(0, self.rdvz_consumed);
                self.rdvz_credit.fence();
                Some(out.len())
            }
            // A tag outside the protocol means the ring bytes are garbage;
            // nothing downstream could trust a value decoded from them.
            other => protocol_violation!("corrupt frame tag {other}"),
        }
    }

    /// Blocking receive.
    pub fn recv(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        self.recv_into(&mut out);
        out
    }

    /// Blocking receive into a caller-provided buffer. Returns the
    /// message length. Uses exponential backoff while idle.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic)]
    pub fn recv_into(&mut self, out: &mut Vec<u8>) -> usize {
        let mut backoff = crate::window::Backoff::new();
        loop {
            if let Some(n) = self.try_recv_into(out) {
                return n;
            }
            backoff.snooze();
        }
    }

    /// Push out pending ring credit (call before idling).
    pub fn flush_credit(&mut self) {
        self.ring.flush_credit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shm::{ShmLocal, ShmMemory, ShmRemote};

    type TxRx = (Sender<ShmRemote, ShmLocal>, Receiver<ShmLocal, ShmRemote>);

    fn make(mode: SendMode) -> TxRx {
        let data = ShmMemory::new(CHANNEL_BYTES as usize);
        let credits = ShmMemory::new(CREDIT_BYTES as usize);
        channel(
            data.remote(0, CHANNEL_BYTES),
            credits.local(0, CREDIT_BYTES),
            data.local(0, CHANNEL_BYTES),
            credits.remote(0, CREDIT_BYTES),
            mode,
        )
    }

    #[test]
    fn small_messages_inline() {
        let (mut tx, mut rx) = make(SendMode::WeaklyOrdered);
        tx.send(b"ping").unwrap();
        assert_eq!(rx.recv(), b"ping");
        assert_eq!(tx.rendezvous_sends, 0);
    }

    #[test]
    fn large_message_takes_rendezvous() {
        let (mut tx, mut rx) = make(SendMode::WeaklyOrdered);
        let big: Vec<u8> = (0..10_000u32).map(|i| (i * 7) as u8).collect();
        tx.send(&big).unwrap();
        assert_eq!(tx.rendezvous_sends, 1);
        assert_eq!(rx.recv(), big);
    }

    #[test]
    fn boundary_sizes() {
        let (mut tx, mut rx) = make(SendMode::WeaklyOrdered);
        for size in [
            0,
            1,
            MAX_EAGER - 1, // largest inline (tag byte takes one)
            MAX_EAGER,
            MAX_EAGER + 1,
            MAX_MESSAGE,
        ] {
            let msg = vec![0x3C; size];
            tx.send(&msg).unwrap();
            assert_eq!(rx.recv().len(), size, "size {size}");
        }
    }

    #[test]
    fn oversized_rejected() {
        let (mut tx, _) = make(SendMode::WeaklyOrdered);
        assert_eq!(
            tx.try_send(&vec![0u8; MAX_MESSAGE + 1]),
            Err(SendError::TooLarge(MAX_MESSAGE + 1))
        );
    }

    #[test]
    fn rendezvous_zone_wraps_and_reclaims() {
        let (mut tx, mut rx) = make(SendMode::WeaklyOrdered);
        // 100 KB messages: three fill the zone past capacity, forcing
        // wrap-gap skipping and credit-based reuse.
        let msg = vec![0xE7u8; 100 * 1024];
        for round in 0..12 {
            tx.send(&msg).unwrap();
            let got = rx.recv();
            assert_eq!(got.len(), msg.len(), "round {round}");
            assert!(got.iter().all(|&b| b == 0xE7));
        }
        assert_eq!(tx.rendezvous_sends, 12);
    }

    #[test]
    fn rendezvous_backpressure_without_receiver() {
        let (mut tx, _rx) = make(SendMode::WeaklyOrdered);
        let msg = vec![1u8; 100 * 1024];
        assert!(tx.try_send(&msg).is_ok());
        assert!(tx.try_send(&msg).is_ok());
        // Third 100 KB does not fit in 256 KB minus the in-flight two.
        assert_eq!(tx.try_send(&msg), Err(SendError::WouldBlock));
    }

    #[test]
    fn mixed_inline_and_rendezvous_preserve_order() {
        let (mut tx, mut rx) = make(SendMode::StrictlyOrdered);
        let sizes = [10usize, 5000, 64, 100_000, 0, 2000];
        for (i, &s) in sizes.iter().enumerate() {
            tx.send(&vec![i as u8; s]).unwrap();
        }
        for (i, &s) in sizes.iter().enumerate() {
            assert_eq!(rx.recv(), vec![i as u8; s], "message {i}");
        }
    }
}
