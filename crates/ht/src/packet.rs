//! HyperTransport packet model.
//!
//! Packets follow the HyperTransport I/O Link Specification rev 3.10
//! control-packet formats closely enough to carry every field the
//! TCCluster mechanism depends on (command class, UnitID, SrcTag, SeqID,
//! PassPW, address, dword count) and to price each packet at its real wire
//! size. Control packets are 4 or 8 bytes; a data packet of 4..=64 bytes
//! follows sized writes and read responses.

use bytes::Bytes;
use core::fmt;

/// The three HyperTransport virtual channels.
///
/// Deadlock freedom of the fabric rests on keeping these independent: a
/// blocked response must never prevent a posted write from making progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VirtualChannel {
    Posted,
    NonPosted,
    Response,
}

impl VirtualChannel {
    pub const ALL: [VirtualChannel; 3] = [
        VirtualChannel::Posted,
        VirtualChannel::NonPosted,
        VirtualChannel::Response,
    ];

    pub fn index(self) -> usize {
        match self {
            VirtualChannel::Posted => 0,
            VirtualChannel::NonPosted => 1,
            VirtualChannel::Response => 2,
        }
    }
}

impl fmt::Display for VirtualChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VirtualChannel::Posted => "PC",
            VirtualChannel::NonPosted => "NPC",
            VirtualChannel::Response => "RC",
        };
        f.write_str(s)
    }
}

/// 5-bit transaction tag used to match responses to outstanding non-posted
/// requests. The table holding these is per-NodeID in the northbridge —
/// which is exactly why TCCluster cannot route responses between nodes and
/// must restrict itself to posted writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SrcTag(pub u8);

impl SrcTag {
    /// The response-matching table holds 32 tags (5 bits).
    pub const LIMIT: u8 = 32;

    pub fn new(v: u8) -> Self {
        assert!(v < Self::LIMIT, "SrcTag out of range: {v}");
        SrcTag(v)
    }
}

/// 5-bit unit identifier on a non-coherent chain (0 = host bridge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct UnitId(pub u8);

impl UnitId {
    pub const HOST: UnitId = UnitId(0);
}

/// A decoded HyperTransport command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Flow-control NOP carrying per-VC credit returns (2 bits each).
    Nop {
        posted_cmd: u8,
        posted_data: u8,
        nonposted_cmd: u8,
        nonposted_data: u8,
        response_cmd: u8,
        response_data: u8,
    },
    /// Sized write request. `posted` selects the posted channel — the only
    /// request kind a TCCluster link can carry.
    WrSized {
        posted: bool,
        unit: UnitId,
        addr: u64,
        /// Number of dwords - 1 (0..=15, so 4..=64 bytes).
        count: u8,
        pass_pw: bool,
        seq_id: u8,
        /// SrcTag (non-posted writes only; posted writes carry none).
        tag: Option<SrcTag>,
    },
    /// Sized read request — always non-posted, always needs a tag.
    RdSized {
        unit: UnitId,
        addr: u64,
        count: u8,
        pass_pw: bool,
        seq_id: u8,
        tag: SrcTag,
    },
    /// Read response carrying data, matched by tag.
    RdResponse {
        unit: UnitId,
        tag: SrcTag,
        error: bool,
    },
    /// Target-done response completing a non-posted write.
    TgtDone {
        unit: UnitId,
        tag: SrcTag,
        error: bool,
    },
    /// Broadcast (used for interrupts/system management — must be filtered
    /// off TCCluster links).
    Broadcast { unit: UnitId, addr: u64 },
    /// Fence — orders posted writes in the posted channel.
    Fence { unit: UnitId },
    /// Flush — pushes posted writes to destination (non-posted).
    Flush { unit: UnitId, tag: SrcTag },
}

impl Command {
    /// Which virtual channel the command travels in.
    pub fn vc(&self) -> VirtualChannel {
        match self {
            Command::Nop { .. } => VirtualChannel::Posted, // info packet, uses no credit
            Command::WrSized { posted: true, .. } => VirtualChannel::Posted,
            Command::WrSized { posted: false, .. } => VirtualChannel::NonPosted,
            Command::RdSized { .. } => VirtualChannel::NonPosted,
            Command::RdResponse { .. } | Command::TgtDone { .. } => VirtualChannel::Response,
            Command::Broadcast { .. } => VirtualChannel::Posted,
            Command::Fence { .. } => VirtualChannel::Posted,
            Command::Flush { .. } => VirtualChannel::NonPosted,
        }
    }

    /// Whether the command expects a response.
    pub fn needs_response(&self) -> bool {
        matches!(
            self,
            Command::WrSized { posted: false, .. }
                | Command::RdSized { .. }
                | Command::Flush { .. }
        )
    }

    /// Control-packet size on the wire in bytes (4 for short commands,
    /// 8 for addressed requests).
    pub fn header_bytes(&self) -> u64 {
        match self {
            Command::Nop { .. }
            | Command::RdResponse { .. }
            | Command::TgtDone { .. }
            | Command::Fence { .. }
            | Command::Flush { .. } => 4,
            _ => 8,
        }
    }
}

/// A full packet: command plus optional data payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    pub cmd: Command,
    pub data: Bytes,
}

/// Maximum data payload of one HT packet.
pub const MAX_DATA: usize = 64;

impl Packet {
    pub fn new(cmd: Command, data: Bytes) -> Self {
        match &cmd {
            Command::WrSized { count, .. } => {
                assert!(data.len() <= MAX_DATA, "data exceeds 64B");
                assert!(!data.is_empty(), "sized write without data");
                // A sized-byte/dword write's count field must cover the data.
                let dwords = data.len().div_ceil(4);
                assert_eq!(
                    *count as usize + 1,
                    dwords,
                    "count field does not match payload dwords"
                );
            }
            Command::RdResponse { .. } => {
                assert!(!data.is_empty() && data.len() <= MAX_DATA);
            }
            _ => assert!(data.is_empty(), "command carries no data"),
        }
        Packet { cmd, data }
    }

    pub fn control(cmd: Command) -> Self {
        Packet::new(cmd, Bytes::new())
    }

    /// Posted write helper: the bread-and-butter TCCluster packet.
    pub fn posted_write(addr: u64, data: Bytes) -> Self {
        let count = (data.len().div_ceil(4) - 1) as u8;
        Packet::new(
            Command::WrSized {
                posted: true,
                unit: UnitId::HOST,
                addr,
                count,
                pass_pw: false,
                seq_id: 0,
                tag: None,
            },
            data,
        )
    }

    /// Total wire footprint: header + data (CRC is accounted per-window by
    /// the link layer, not per-packet).
    pub fn wire_bytes(&self) -> u64 {
        self.cmd.header_bytes() + self.data.len() as u64
    }

    pub fn vc(&self) -> VirtualChannel {
        self.cmd.vc()
    }

    /// Target address for routable commands.
    pub fn addr(&self) -> Option<u64> {
        match &self.cmd {
            Command::WrSized { addr, .. }
            | Command::RdSized { addr, .. }
            | Command::Broadcast { addr, .. } => Some(*addr),
            _ => None,
        }
    }
}

/// The dominant TCCluster packet in fixed shape: a full-cacheline posted
/// write from the host bridge, payload inline. Every field a general
/// [`Packet`] would carry for this shape is a constant here — command
/// class, UnitID, dword count, PassPW, SeqID — so the fast lane never
/// pattern-matches a [`Command`] or chases a [`Bytes`] refcount. The two
/// forms convert losslessly at the boundaries; retry/CRC/ordering and the
/// monitors keep operating on the general form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatWire {
    pub addr: u64,
    pub data: [u8; FlatWire::DATA_BYTES],
}

impl FlatWire {
    /// Full cacheline payload — the only size the fast lane carries.
    pub const DATA_BYTES: usize = 64;
    /// Addressed request header (same as the general form's 8 bytes).
    pub const HEADER_BYTES: u64 = 8;
    /// Total wire footprint: header + data.
    pub const WIRE_BYTES: u64 = Self::HEADER_BYTES + Self::DATA_BYTES as u64;
    /// Dword count field (16 dwords - 1).
    pub const COUNT: u8 = 15;
    /// A posted write travels in the posted channel, always.
    pub const VC: VirtualChannel = VirtualChannel::Posted;

    pub fn new(addr: u64, data: [u8; Self::DATA_BYTES]) -> Self {
        FlatWire { addr, data }
    }

    /// Lossless widening back to the general form. Allocates a fresh
    /// payload; boundary crossings that own a `PayloadPool` should
    /// prefer its recycled variant.
    pub fn to_packet(&self) -> Packet {
        Packet::posted_write(self.addr, Bytes::copy_from_slice(&self.data))
    }
}

impl Packet {
    /// Cheap fast-lane classifier: `Some(addr)` iff this packet is
    /// exactly the [`FlatWire`] shape — a 64 B host-bridge posted write
    /// with default ordering fields. One comparison chain, no clone.
    pub fn flat_addr(&self) -> Option<u64> {
        match self.cmd {
            Command::WrSized {
                posted: true,
                unit: UnitId::HOST,
                addr,
                count: FlatWire::COUNT,
                pass_pw: false,
                seq_id: 0,
                tag: None,
            } if self.data.len() == FlatWire::DATA_BYTES => Some(addr),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vc_assignment_matches_spec() {
        let pw = Packet::posted_write(0x1000, Bytes::from_static(&[0u8; 64]));
        assert_eq!(pw.vc(), VirtualChannel::Posted);
        assert!(!pw.cmd.needs_response());

        let rd = Command::RdSized {
            unit: UnitId::HOST,
            addr: 0x2000,
            count: 0,
            pass_pw: false,
            seq_id: 0,
            tag: SrcTag::new(3),
        };
        assert_eq!(rd.vc(), VirtualChannel::NonPosted);
        assert!(rd.needs_response());

        let resp = Command::RdResponse {
            unit: UnitId::HOST,
            tag: SrcTag::new(3),
            error: false,
        };
        assert_eq!(resp.vc(), VirtualChannel::Response);
    }

    #[test]
    fn header_sizes() {
        assert_eq!(Command::Fence { unit: UnitId::HOST }.header_bytes(), 4);
        // One credit-return NOP crosses every hop of every run.
        let nop = crate::flow::nop_for(crate::flow::CreditReturn::default());
        assert_eq!(nop.header_bytes(), 4);
        let pw = Packet::posted_write(0x0, Bytes::from_static(&[0u8; 8]));
        assert_eq!(pw.cmd.header_bytes(), 8);
        assert_eq!(pw.wire_bytes(), 16);
    }

    #[test]
    fn wire_bytes_for_full_cacheline() {
        let pw = Packet::posted_write(0x0, Bytes::from_static(&[0xAA; 64]));
        assert_eq!(pw.wire_bytes(), 72, "8B command + 64B data");
    }

    #[test]
    #[should_panic(expected = "data exceeds 64B")]
    fn oversized_payload_rejected() {
        Packet::new(
            Command::WrSized {
                posted: true,
                unit: UnitId::HOST,
                addr: 0,
                count: 15,
                pass_pw: false,
                seq_id: 0,
                tag: None,
            },
            Bytes::from(vec![0u8; 65]),
        );
    }

    #[test]
    #[should_panic(expected = "count field")]
    fn count_mismatch_rejected() {
        Packet::new(
            Command::WrSized {
                posted: true,
                unit: UnitId::HOST,
                addr: 0,
                count: 3,
                pass_pw: false,
                seq_id: 0,
                tag: None,
            },
            Bytes::from(vec![0u8; 64]),
        );
    }

    #[test]
    #[should_panic(expected = "SrcTag out of range")]
    fn srctag_range_enforced() {
        SrcTag::new(32);
    }

    #[test]
    fn flatwire_roundtrip_is_lossless() {
        let mut payload = [0u8; 64];
        for (i, b) in payload.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        let pkt = Packet::posted_write(0x1_2345_67C0, Bytes::copy_from_slice(&payload));
        let back = FlatWire::new(0x1_2345_67C0, payload).to_packet();
        assert_eq!(back, pkt, "widening must reproduce the packet exactly");
        assert_eq!(back.flat_addr(), Some(0x1_2345_67C0), "and stay flat");
        assert_eq!(back.wire_bytes(), FlatWire::WIRE_BYTES);
        assert_eq!(back.vc(), FlatWire::VC);
    }

    #[test]
    fn flat_classifier_rejects_every_non_flat_shape() {
        // Short posted write: right command, wrong size.
        let short = Packet::posted_write(0x1000, Bytes::from_static(&[0u8; 8]));
        assert_eq!(short.flat_addr(), None);
        // Non-posted 64B write.
        let nonposted = Packet::new(
            Command::WrSized {
                posted: false,
                unit: UnitId::HOST,
                addr: 0x1000,
                count: 15,
                pass_pw: false,
                seq_id: 0,
                tag: Some(SrcTag::new(1)),
            },
            Bytes::from_static(&[0u8; 64]),
        );
        assert_eq!(nonposted.flat_addr(), None);
        // PassPW set: ordering semantics differ, must take the slow path.
        let pass_pw = Packet::new(
            Command::WrSized {
                posted: true,
                unit: UnitId::HOST,
                addr: 0x1000,
                count: 15,
                pass_pw: true,
                seq_id: 0,
                tag: None,
            },
            Bytes::from_static(&[0u8; 64]),
        );
        assert_eq!(pass_pw.flat_addr(), None);
        // Non-host UnitID.
        let devwrite = Packet::new(
            Command::WrSized {
                posted: true,
                unit: UnitId(3),
                addr: 0x1000,
                count: 15,
                pass_pw: false,
                seq_id: 0,
                tag: None,
            },
            Bytes::from_static(&[0u8; 64]),
        );
        assert_eq!(devwrite.flat_addr(), None);
        // Control packets carry no address at all.
        let fence = Packet::control(Command::Fence { unit: UnitId::HOST });
        assert_eq!(fence.flat_addr(), None);
        // The canonical storm packet IS flat.
        let flat = Packet::posted_write(0x2000, Bytes::from_static(&[0u8; 64]));
        assert_eq!(flat.flat_addr(), Some(0x2000));
    }

    #[test]
    fn nonposted_write_needs_response() {
        let cmd = Command::WrSized {
            posted: false,
            unit: UnitId::HOST,
            addr: 0,
            count: 0,
            pass_pw: false,
            seq_id: 0,
            tag: Some(SrcTag::new(0)),
        };
        assert!(cmd.needs_response());
        assert_eq!(cmd.vc(), VirtualChannel::NonPosted);
    }
}
