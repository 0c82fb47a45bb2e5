//! Credit-based link-level flow control.
//!
//! Each direction of an HT link carries six independent credit pools:
//! command and data credits for each of the three virtual channels. A
//! transmitter may only send a packet when it holds a command credit (and a
//! data credit, if the packet carries data) for the packet's VC; the
//! receiver returns credits in NOP packets as it drains its buffers.
//!
//! The invariant everything else leans on: **credits are conserved** —
//! `in_flight + available + pending_return == initial` for every pool, at
//! all times. All arithmetic on pool counters is checked: an increment or
//! decrement that would break conservation surfaces as a typed
//! [`CreditError`] instead of silently wrapping, and the runtime monitors
//! in `tcc-verify` turn those errors into structured diagnostics.

use crate::packet::{Packet, VirtualChannel};

/// Which of the two credit classes of a VC a failure concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreditClass {
    /// Command credits (one per packet).
    Cmd,
    /// Data credits (one per packet carrying payload).
    Data,
}

impl core::fmt::Display for CreditClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            CreditClass::Cmd => "cmd",
            CreditClass::Data => "data",
        })
    }
}

/// Typed credit-accounting failures. Every variant is a protocol
/// violation by one side of the link — none of these occur on a correct
/// fabric, so callers on known-good paths may `expect` them, while the
/// verification layer reports them with full context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreditError {
    /// No command credit available for the packet's VC.
    NoCmdCredit(VirtualChannel),
    /// No data credit available for the packet's VC.
    NoDataCredit(VirtualChannel),
    /// A NOP returned more credits than were ever consumed.
    OverReturn {
        vc: VirtualChannel,
        class: CreditClass,
        returned: u8,
        outstanding: u8,
    },
    /// A packet arrived with no free receive buffer — the transmitter
    /// sent without holding a credit.
    BufferOverrun {
        vc: VirtualChannel,
        class: CreditClass,
    },
    /// A buffer was drained that was never occupied.
    DrainUnderflow {
        vc: VirtualChannel,
        class: CreditClass,
    },
}

impl core::fmt::Display for CreditError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CreditError::NoCmdCredit(vc) => write!(f, "no {vc} command credit"),
            CreditError::NoDataCredit(vc) => write!(f, "no {vc} data credit"),
            CreditError::OverReturn {
                vc,
                class,
                returned,
                outstanding,
            } => write!(
                f,
                "credit overflow: {returned} {vc} {class} credits returned with only \
                 {outstanding} outstanding"
            ),
            CreditError::BufferOverrun { vc, class } => {
                write!(
                    f,
                    "receive {vc} {class} buffer overrun: sent without credit"
                )
            }
            CreditError::DrainUnderflow { vc, class } => {
                write!(f, "draining {vc} {class} buffer that was never accepted")
            }
        }
    }
}

impl std::error::Error for CreditError {}

/// Credits for one (VC × command/data) pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    pub initial: u8,
    pub available: u8,
}

impl Pool {
    fn new(initial: u8) -> Self {
        Pool {
            initial,
            available: initial,
        }
    }
}

/// Transmitter-side credit state for one link direction.
#[derive(Debug, Clone)]
pub struct TxCredits {
    cmd: [Pool; 3],
    data: [Pool; 3],
}

/// Receiver-side buffer state: consumed credits awaiting return.
///
/// Constructed only via [`RxBuffers::new`] with an explicit buffer depth
/// — a zero-depth receiver is unrepresentable by accident, because every
/// arriving packet would be a [`CreditError::BufferOverrun`].
#[derive(Debug, Clone)]
pub struct RxBuffers {
    /// Buffer depth per pool; mirrors the transmitter's initial credits.
    initial: u8,
    /// Packets held per VC (command buffer occupancy).
    held_cmd: [u8; 3],
    /// Data buffers held per VC.
    held_data: [u8; 3],
    /// Credits freed but not yet sent back in a NOP.
    pending_cmd: [u8; 3],
    pending_data: [u8; 3],
}

/// Default buffer depth per pool. The K10 northbridge provides buffers in
/// this range; the exact depth only shifts where backpressure kicks in.
pub const DEFAULT_CREDITS: u8 = 8;

impl TxCredits {
    pub fn new(per_pool: u8) -> Self {
        TxCredits {
            cmd: [Pool::new(per_pool); 3],
            data: [Pool::new(per_pool); 3],
        }
    }

    pub fn available_cmd(&self, vc: VirtualChannel) -> u8 {
        self.cmd[vc.index()].available
    }

    pub fn available_data(&self, vc: VirtualChannel) -> u8 {
        self.data[vc.index()].available
    }

    pub fn initial_cmd(&self, vc: VirtualChannel) -> u8 {
        self.cmd[vc.index()].initial
    }

    pub fn initial_data(&self, vc: VirtualChannel) -> u8 {
        self.data[vc.index()].initial
    }

    /// Whether `pkt` could be sent right now.
    pub fn can_send(&self, pkt: &Packet) -> bool {
        let vc = pkt.vc();
        if self.cmd[vc.index()].available == 0 {
            return false;
        }
        if !pkt.data.is_empty() && self.data[vc.index()].available == 0 {
            return false;
        }
        true
    }

    /// Consume credits for sending `pkt`. On failure nothing is
    /// consumed: both pools are validated before either is touched, so
    /// the decrements below cannot underflow.
    #[cfg_attr(lint, tcc_acquires(credit))]
    pub fn consume(&mut self, pkt: &Packet) -> Result<(), CreditError> {
        let vc = pkt.vc();
        let i = vc.index();
        let needs_data = !pkt.data.is_empty();
        if self.cmd[i].available == 0 {
            return Err(CreditError::NoCmdCredit(vc));
        }
        if needs_data && self.data[i].available == 0 {
            return Err(CreditError::NoDataCredit(vc));
        }
        self.cmd[i].available -= 1;
        if needs_data {
            self.data[i].available -= 1;
        }
        Ok(())
    }

    /// Apply a credit return carried by a received NOP. Fails with
    /// [`CreditError::OverReturn`] when the far side returns credits that
    /// were never consumed; the transmitter state is left untouched in
    /// that case (the return is rejected whole).
    #[cfg_attr(lint, tcc_releases(credit))]
    pub fn release(&mut self, ret: CreditReturn) -> Result<(), CreditError> {
        // Validate before mutating so a rejected return has no effect.
        for (i, &vc) in VirtualChannel::ALL.iter().enumerate() {
            let c = self.cmd[i];
            if ret.cmd[i] > c.initial - c.available {
                return Err(CreditError::OverReturn {
                    vc,
                    class: CreditClass::Cmd,
                    returned: ret.cmd[i],
                    outstanding: c.initial - c.available,
                });
            }
            let d = self.data[i];
            if ret.data[i] > d.initial - d.available {
                return Err(CreditError::OverReturn {
                    vc,
                    class: CreditClass::Data,
                    returned: ret.data[i],
                    outstanding: d.initial - d.available,
                });
            }
        }
        // Every return fits below `initial` (validated above), so the
        // adds cannot overflow the pools.
        for i in 0..3 {
            self.cmd[i].available += ret.cmd[i];
            self.data[i].available += ret.data[i];
        }
        Ok(())
    }

    /// Credits currently in flight (consumed, not yet returned).
    pub fn in_flight_cmd(&self, vc: VirtualChannel) -> u8 {
        let p = self.cmd[vc.index()];
        p.initial - p.available
    }

    /// Data credits currently in flight.
    pub fn in_flight_data(&self, vc: VirtualChannel) -> u8 {
        let p = self.data[vc.index()];
        p.initial - p.available
    }
}

/// Credits being returned in one NOP (each field limited to 2 bits on the
/// wire, so at most 3 per class per NOP).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CreditReturn {
    pub cmd: [u8; 3],
    pub data: [u8; 3],
}

impl CreditReturn {
    pub fn is_empty(&self) -> bool {
        self.cmd.iter().all(|&c| c == 0) && self.data.iter().all(|&d| d == 0)
    }

    /// Total credits carried (both classes, all VCs).
    pub fn total(&self) -> u32 {
        self.cmd.iter().map(|&c| c as u32).sum::<u32>()
            + self.data.iter().map(|&d| d as u32).sum::<u32>()
    }
}

impl RxBuffers {
    /// A receiver with `initial` buffers per pool (matching the credits
    /// the paired transmitter starts with).
    pub fn new(initial: u8) -> Self {
        assert!(initial > 0, "a zero-buffer receiver can accept nothing");
        RxBuffers {
            initial,
            held_cmd: [0; 3],
            held_data: [0; 3],
            pending_cmd: [0; 3],
            pending_data: [0; 3],
        }
    }

    /// Buffer depth per pool.
    pub fn initial(&self) -> u8 {
        self.initial
    }

    /// Account for an arriving packet occupying buffers. Fails with
    /// [`CreditError::BufferOverrun`] when the packet arrives with every
    /// buffer of its pool occupied or pending return — i.e. the far-side
    /// transmitter sent without holding a credit.
    #[cfg_attr(lint, tcc_acquires(rxbuf))]
    pub fn accept(&mut self, pkt: &Packet) -> Result<(), CreditError> {
        let vc = pkt.vc();
        let i = vc.index();
        if self.held_cmd[i] + self.pending_cmd[i] >= self.initial {
            return Err(CreditError::BufferOverrun {
                vc,
                class: CreditClass::Cmd,
            });
        }
        if !pkt.data.is_empty() && self.held_data[i] + self.pending_data[i] >= self.initial {
            return Err(CreditError::BufferOverrun {
                vc,
                class: CreditClass::Data,
            });
        }
        self.held_cmd[i] += 1;
        if !pkt.data.is_empty() {
            self.held_data[i] += 1;
        }
        Ok(())
    }

    /// Fast-lane variant of [`accept`](Self::accept) for the flat wire
    /// shape — a posted packet known to carry data. Identical accounting,
    /// no command inspection or VC dispatch.
    #[cfg_attr(lint, tcc_no_alloc, tcc_no_panic, tcc_acquires(rxbuf))]
    pub fn accept_posted_data(&mut self) -> Result<(), CreditError> {
        const P: usize = 0; // VirtualChannel::Posted.index()
        if self.held_cmd[P] + self.pending_cmd[P] >= self.initial {
            return Err(CreditError::BufferOverrun {
                vc: VirtualChannel::Posted,
                class: CreditClass::Cmd,
            });
        }
        if self.held_data[P] + self.pending_data[P] >= self.initial {
            return Err(CreditError::BufferOverrun {
                vc: VirtualChannel::Posted,
                class: CreditClass::Data,
            });
        }
        self.held_cmd[P] += 1;
        self.held_data[P] += 1;
        Ok(())
    }

    /// The receiver finished processing a packet: its buffers become
    /// returnable credits. Fails with [`CreditError::DrainUnderflow`] on
    /// a drain without a matching accept.
    #[cfg_attr(lint, tcc_releases(rxbuf))]
    pub fn drain(&mut self, pkt: &Packet) -> Result<(), CreditError> {
        self.drain_parts(pkt.vc(), !pkt.data.is_empty())
    }

    /// Like [`drain`](Self::drain), but keyed on the packet's (VC, carries
    /// data) shape instead of the packet itself. Event-driven receivers
    /// hand the packet on to the northbridge *before* its buffers free up,
    /// so at drain time only the shape is still around.
    #[cfg_attr(lint, tcc_releases(rxbuf))]
    pub fn drain_parts(&mut self, vc: VirtualChannel, has_data: bool) -> Result<(), CreditError> {
        let i = vc.index();
        self.held_cmd[i] = self.held_cmd[i]
            .checked_sub(1)
            .ok_or(CreditError::DrainUnderflow {
                vc,
                class: CreditClass::Cmd,
            })?;
        self.pending_cmd[i] += 1;
        if has_data {
            self.held_data[i] =
                self.held_data[i]
                    .checked_sub(1)
                    .ok_or(CreditError::DrainUnderflow {
                        vc,
                        class: CreditClass::Data,
                    })?;
            self.pending_data[i] += 1;
        }
        Ok(())
    }

    /// Whether any credits await return.
    pub fn has_pending(&self) -> bool {
        self.pending_cmd.iter().any(|&c| c > 0) || self.pending_data.iter().any(|&d| d > 0)
    }

    /// Harvest up to 3 credits per class into a NOP's credit-return fields.
    pub fn harvest(&mut self) -> CreditReturn {
        let mut ret = CreditReturn::default();
        for i in 0..3 {
            ret.cmd[i] = self.pending_cmd[i].min(3);
            self.pending_cmd[i] -= ret.cmd[i];
            ret.data[i] = self.pending_data[i].min(3);
            self.pending_data[i] -= ret.data[i];
        }
        ret
    }

    pub fn held(&self, vc: VirtualChannel) -> u8 {
        self.held_cmd[vc.index()]
    }

    pub fn held_data(&self, vc: VirtualChannel) -> u8 {
        self.held_data[vc.index()]
    }

    /// Command credits freed but not yet harvested into a NOP.
    pub fn pending(&self, vc: VirtualChannel) -> u8 {
        self.pending_cmd[vc.index()]
    }

    /// Data credits freed but not yet harvested into a NOP.
    pub fn pending_data(&self, vc: VirtualChannel) -> u8 {
        self.pending_data[vc.index()]
    }
}

/// Build the NOP command carrying a [`CreditReturn`].
pub fn nop_for(ret: CreditReturn) -> crate::packet::Command {
    crate::packet::Command::Nop {
        posted_cmd: ret.cmd[VirtualChannel::Posted.index()],
        posted_data: ret.data[VirtualChannel::Posted.index()],
        nonposted_cmd: ret.cmd[VirtualChannel::NonPosted.index()],
        nonposted_data: ret.data[VirtualChannel::NonPosted.index()],
        response_cmd: ret.cmd[VirtualChannel::Response.index()],
        response_data: ret.data[VirtualChannel::Response.index()],
    }
}

/// Extract the [`CreditReturn`] carried by a received NOP.
pub fn return_from_nop(cmd: &crate::packet::Command) -> Option<CreditReturn> {
    match cmd {
        crate::packet::Command::Nop {
            posted_cmd,
            posted_data,
            nonposted_cmd,
            nonposted_data,
            response_cmd,
            response_data,
        } => {
            let mut ret = CreditReturn::default();
            ret.cmd[VirtualChannel::Posted.index()] = *posted_cmd;
            ret.data[VirtualChannel::Posted.index()] = *posted_data;
            ret.cmd[VirtualChannel::NonPosted.index()] = *nonposted_cmd;
            ret.data[VirtualChannel::NonPosted.index()] = *nonposted_data;
            ret.cmd[VirtualChannel::Response.index()] = *response_cmd;
            ret.data[VirtualChannel::Response.index()] = *response_data;
            Some(ret)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn pw() -> Packet {
        Packet::posted_write(0x1000, Bytes::from_static(&[0u8; 64]))
    }

    #[test]
    fn consume_and_release_round_trip() {
        let mut tx = TxCredits::new(2);
        let mut rx = RxBuffers::new(2);
        let p = pw();
        assert!(tx.can_send(&p));
        tx.consume(&p).unwrap();
        rx.accept(&p).unwrap();
        tx.consume(&p).unwrap();
        rx.accept(&p).unwrap();
        assert!(!tx.can_send(&p), "credits exhausted");
        assert_eq!(
            tx.consume(&p),
            Err(CreditError::NoCmdCredit(VirtualChannel::Posted))
        );
        assert_eq!(rx.held(VirtualChannel::Posted), 2);

        rx.drain(&p).unwrap();
        let ret = rx.harvest();
        assert_eq!(ret.cmd[VirtualChannel::Posted.index()], 1);
        tx.release(ret).unwrap();
        assert!(tx.can_send(&p));
    }

    #[test]
    fn data_credit_independent_of_cmd_credit() {
        let mut tx = TxCredits::new(2);
        // A control-only fence consumes a posted command credit but no data.
        let fence = Packet::control(crate::packet::Command::Fence {
            unit: crate::packet::UnitId::HOST,
        });
        tx.consume(&fence).unwrap();
        tx.consume(&fence).unwrap();
        assert_eq!(tx.available_data(VirtualChannel::Posted), 2);
        assert_eq!(tx.available_cmd(VirtualChannel::Posted), 0);
        assert!(!tx.can_send(&pw()));
    }

    #[test]
    fn vcs_do_not_share_credits() {
        let mut tx = TxCredits::new(1);
        tx.consume(&pw()).unwrap();
        // Posted exhausted; a read (non-posted VC) must still pass.
        let rd = Packet::control(crate::packet::Command::RdSized {
            unit: crate::packet::UnitId::HOST,
            addr: 0,
            count: 0,
            pass_pw: false,
            seq_id: 0,
            tag: crate::packet::SrcTag::new(0),
        });
        assert!(tx.can_send(&rd));
        tx.consume(&rd).unwrap();
    }

    #[test]
    fn over_return_rejected_without_effect() {
        let mut tx = TxCredits::new(1);
        let mut ret = CreditReturn::default();
        ret.cmd[0] = 1; // returning a credit that was never consumed
        assert_eq!(
            tx.release(ret),
            Err(CreditError::OverReturn {
                vc: VirtualChannel::Posted,
                class: CreditClass::Cmd,
                returned: 1,
                outstanding: 0,
            })
        );
        // Rejected whole: the pool is unchanged.
        assert_eq!(tx.available_cmd(VirtualChannel::Posted), 1);
    }

    #[test]
    fn partial_over_return_leaves_state_untouched() {
        // cmd return is legal, data return is not: nothing may be applied.
        let mut tx = TxCredits::new(2);
        tx.consume(&pw()).unwrap();
        let mut ret = CreditReturn::default();
        ret.cmd[0] = 1;
        ret.data[0] = 2; // only 1 outstanding
        assert!(matches!(
            tx.release(ret),
            Err(CreditError::OverReturn {
                class: CreditClass::Data,
                ..
            })
        ));
        assert_eq!(tx.available_cmd(VirtualChannel::Posted), 1, "not applied");
    }

    #[test]
    fn buffer_overrun_detected() {
        let mut rx = RxBuffers::new(1);
        let p = pw();
        rx.accept(&p).unwrap();
        assert_eq!(
            rx.accept(&p),
            Err(CreditError::BufferOverrun {
                vc: VirtualChannel::Posted,
                class: CreditClass::Cmd,
            })
        );
        // Still overrun while the credit is pending return (not yet in a NOP).
        rx.drain(&p).unwrap();
        assert!(rx.accept(&p).is_err());
        let _ = rx.harvest();
        assert!(rx.accept(&p).is_ok(), "space after harvest");
    }

    #[test]
    fn drain_underflow_detected() {
        let mut rx = RxBuffers::new(2);
        assert_eq!(
            rx.drain(&pw()),
            Err(CreditError::DrainUnderflow {
                vc: VirtualChannel::Posted,
                class: CreditClass::Cmd,
            })
        );
    }

    #[test]
    fn harvest_caps_at_three_per_nop() {
        let mut rx = RxBuffers::new(8);
        let p = pw();
        for _ in 0..5 {
            rx.accept(&p).unwrap();
            rx.drain(&p).unwrap();
        }
        let first = rx.harvest();
        assert_eq!(first.cmd[0], 3, "NOP carries at most 3 per class");
        assert_eq!(first.data[0], 3);
        assert!(rx.has_pending());
        let second = rx.harvest();
        assert_eq!(second.cmd[0], 2);
        assert!(!rx.has_pending());
    }

    #[test]
    fn nop_round_trips_credits() {
        let ret = CreditReturn {
            cmd: [1, 2, 3],
            data: [3, 0, 1],
        };
        assert_eq!(return_from_nop(&nop_for(ret)), Some(ret));
    }

    #[test]
    fn credit_conservation_under_random_traffic() {
        use tcc_fabric::rng::Xoshiro256;
        let initial = DEFAULT_CREDITS;
        let mut tx = TxCredits::new(initial);
        let mut rx = RxBuffers::new(initial);
        let mut rng = Xoshiro256::seeded(99);
        let p = pw();
        let mut in_receiver: Vec<Packet> = Vec::new();
        for _ in 0..10_000 {
            match rng.below(3) {
                0 => {
                    if tx.consume(&p).is_ok() {
                        rx.accept(&p).unwrap();
                        in_receiver.push(p.clone());
                    }
                }
                1 => {
                    if let Some(q) = in_receiver.pop() {
                        rx.drain(&q).unwrap();
                    }
                }
                _ => {
                    let ret = rx.harvest();
                    tx.release(ret).unwrap();
                }
            }
            // Conservation: available + held + pending == initial.
            let vc = VirtualChannel::Posted;
            assert_eq!(tx.available_cmd(vc) + rx.held(vc) + rx.pending(vc), initial);
            assert_eq!(
                tx.available_data(vc) + rx.held_data(vc) + rx.pending_data(vc),
                initial
            );
        }
    }
}
