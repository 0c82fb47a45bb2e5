//! HyperTransport ordering rules.
//!
//! The fabric guarantees in-order delivery of packets within one virtual
//! channel on one path; across channels the I/O ordering rules apply
//! (HT spec ch. 6). TCCluster's message library leans on exactly two
//! guarantees, both checked here and property-tested in the fabric tests:
//!
//! 1. posted writes on one path are observed in issue order, and
//! 2. a Fence orders all earlier posted writes before all later ones.

use crate::packet::{Command, Packet, VirtualChannel};

/// May packet `b` (issued later) pass packet `a` (issued earlier) inside
/// the fabric? Implements the subset of the HT I/O ordering table the
/// simulator enforces.
pub fn may_pass(later: &Packet, earlier: &Packet) -> bool {
    use VirtualChannel::*;
    match (later.vc(), earlier.vc()) {
        // Same channel: strictly ordered, never passes.
        (a, b) if a == b => false,
        // Nothing passes a Fence in the posted channel; a fence also may
        // not pass anything (it seals the channel).
        _ if matches!(earlier.cmd, Command::Fence { .. }) => false,
        _ if matches!(later.cmd, Command::Fence { .. }) => false,
        // Non-posted requests and responses may not pass posted writes
        // unless their PassPW bit is set (we model PassPW=0 defaults).
        (NonPosted, Posted) | (Response, Posted) => pass_pw(later),
        // Posted writes may pass non-posted requests and responses — this
        // is what makes the posted channel deadlock-free.
        (Posted, NonPosted) | (Posted, Response) => true,
        // Non-posted vs response: unordered; allow.
        (NonPosted, Response) | (Response, NonPosted) => true,
        _ => false,
    }
}

fn pass_pw(p: &Packet) -> bool {
    match &p.cmd {
        Command::WrSized { pass_pw, .. } | Command::RdSized { pass_pw, .. } => *pass_pw,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{SrcTag, UnitId};
    use bytes::Bytes;

    fn posted() -> Packet {
        Packet::posted_write(0, Bytes::from_static(&[0u8; 4]))
    }

    fn read(pass: bool) -> Packet {
        Packet::control(Command::RdSized {
            unit: UnitId::HOST,
            addr: 0,
            count: 0,
            pass_pw: pass,
            seq_id: 0,
            tag: SrcTag::new(0),
        })
    }

    fn response() -> Packet {
        Packet::control(Command::TgtDone {
            unit: UnitId::HOST,
            tag: SrcTag::new(0),
            error: false,
        })
    }

    fn fence() -> Packet {
        Packet::control(Command::Fence { unit: UnitId::HOST })
    }

    #[test]
    fn same_vc_never_passes() {
        assert!(!may_pass(&posted(), &posted()));
        assert!(!may_pass(&read(true), &read(false)));
        assert!(!may_pass(&response(), &response()));
    }

    #[test]
    fn nothing_passes_a_fence() {
        assert!(!may_pass(&posted(), &fence()));
        assert!(!may_pass(&read(true), &fence()));
        assert!(!may_pass(&response(), &fence()));
        assert!(!may_pass(&fence(), &posted()));
    }

    #[test]
    fn reads_blocked_behind_posted_unless_passpw() {
        assert!(!may_pass(&read(false), &posted()));
        assert!(may_pass(&read(true), &posted()));
    }

    #[test]
    fn posted_passes_nonposted_and_responses() {
        assert!(may_pass(&posted(), &read(false)));
        assert!(may_pass(&posted(), &response()));
    }
}
