//! Property-based tests for the HyperTransport protocol model.

use bytes::Bytes;
use proptest::prelude::*;
use tcc_ht::flow::{RxBuffers, TxCredits};
use tcc_ht::packet::{Packet, VirtualChannel};

proptest! {
    /// Credit conservation under arbitrary interleavings of send / drain /
    /// harvest+release: available + held + pending == initial, and no
    /// operation sequence can create credit out of thin air.
    #[test]
    fn credit_conservation(ops in proptest::collection::vec(0u8..3, 1..500), initial in 1u8..16) {
        let mut tx = TxCredits::new(initial);
        let mut rx = RxBuffers::new(initial);
        let pkt = Packet::posted_write(0x1000, Bytes::from_static(&[0u8; 64]));
        let mut at_receiver: u32 = 0;

        for op in ops {
            match op {
                0 => {
                    if tx.can_send(&pkt) {
                        tx.consume(&pkt).unwrap();
                        rx.accept(&pkt).unwrap();
                        at_receiver += 1;
                    } else {
                        prop_assert_eq!(tx.available_cmd(VirtualChannel::Posted), 0);
                    }
                }
                1 => {
                    if at_receiver > 0 {
                        rx.drain(&pkt).unwrap();
                        at_receiver -= 1;
                    }
                }
                _ => {
                    let ret = rx.harvest();
                    // errors on over-return — the property
                    prop_assert!(tx.release(ret).is_ok());
                }
            }
            prop_assert!(tx.available_cmd(VirtualChannel::Posted) <= initial);
        }
    }

    /// A posted write stream through LinkTx is delivered in FIFO order with
    /// monotonically increasing arrival times.
    #[test]
    fn link_delivery_fifo(n in 1usize..64) {
        use tcc_fabric::time::SimTime;
        use tcc_ht::link::{LinkConfig, LinkTx};
        use tcc_ht::flow::CreditReturn;

        let mut tx = LinkTx::new(LinkConfig::PROTOTYPE, 42);
        let mut arrivals = Vec::new();
        for i in 0..n {
            tx.enqueue(Packet::posted_write((i as u64) << 6, Bytes::from_static(&[0u8; 64])));
            for d in tx.pump(SimTime::ZERO) {
                arrivals.push((d.packet.addr().unwrap(), d.arrival));
            }
            tx.credit_return(CreditReturn { cmd: [1,0,0], data: [1,0,0] }).unwrap();
        }
        for d in tx.pump(SimTime::ZERO) {
            arrivals.push((d.packet.addr().unwrap(), d.arrival));
        }
        prop_assert_eq!(arrivals.len(), n);
        for (i, w) in arrivals.windows(2).enumerate() {
            prop_assert!(w[0].0 < w[1].0, "addr order at {i}");
            prop_assert!(w[0].1 <= w[1].1, "time order at {i}");
        }
    }
}
