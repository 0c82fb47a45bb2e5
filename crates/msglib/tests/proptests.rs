//! Property-based tests for the message-library windows. The ring's
//! properties live with the ring (`src/ring.rs`), whose halves are
//! crate-private.

use proptest::prelude::*;
use tcc_msglib::shm::ShmMemory;
use tcc_msglib::window::{LocalWindow, RemoteWindow};

proptest! {
    /// Windows are byte-exact at arbitrary (offset, length): what you
    /// store is what you load, and bytes outside the span are untouched.
    #[test]
    fn shm_window_byte_exact(
        offset in 0u64..100,
        payload in proptest::collection::vec(any::<u8>(), 1..64)
    ) {
        let mem = ShmMemory::new(256);
        let r = mem.remote(0, 256);
        let l = mem.local(0, 256);
        r.store(offset, &payload);
        let mut got = vec![0u8; payload.len()];
        l.load(offset, &mut got);
        prop_assert_eq!(&got, &payload);
        // A guard byte just past the span stays zero.
        if offset + payload.len() as u64 + 1 < 256 {
            let mut guard = [0xFFu8; 1];
            l.load(offset + payload.len() as u64, &mut guard);
            prop_assert_eq!(guard[0], 0, "trailing byte clobbered");
        }
    }
}
