//! # tcc-ht — HyperTransport protocol model
//!
//! Everything TCCluster needs from the HyperTransport I/O Link Specification
//! rev 3.10, built from scratch:
//!
//! * [`packet`] — commands, virtual channels, SrcTags, packet wire sizes.
//! * [`flow`] — per-VC credit-based flow control with NOP credit returns.
//! * [`link`] — physical-layer configs (HT200…HT3), serialisation, VC
//!   arbitration, and CRC error injection priced as whole-packet resends.
//! * [`init`] — the link-initialisation FSM, including the force-ncHT debug
//!   register whose abuse is the heart of the TCCluster mechanism.
//! * [`crc`] — the CRC window overhead and its bandwidth derate.
//! * [`ordering`] — the I/O ordering rules (PassPW, Fence).

#![forbid(unsafe_code)]

pub mod crc;
pub mod flow;
pub mod init;
pub mod link;
pub mod ordering;
pub mod packet;

pub use flow::{CreditClass, CreditError, CreditReturn, RxBuffers, TxCredits};
pub use init::{ActiveLink, Identity, LinkEndpoint, LinkRegs, LinkState};
pub use link::{Delivery, LinkConfig, LinkRx, LinkStats, LinkTx};
pub use packet::{Command, Packet, SrcTag, UnitId, VirtualChannel, MAX_DATA};
