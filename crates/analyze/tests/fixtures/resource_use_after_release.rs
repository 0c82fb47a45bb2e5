//! Fixture: `resource.use-after-release`. A slab handle is reclaimed
//! by `take`, then the stale handle value is used again — on a real
//! slab that slot may already hold a different parked payload, so the
//! late use aliases someone else's data.

pub struct Slab {
    slots: Vec<u64>,
}

impl Slab {
    #[cfg_attr(lint, tcc_acquires(slab_handle))]
    pub fn park(&mut self, ev: u64) -> u32 {
        self.slots.push(ev);
        (self.slots.len() - 1) as u32
    }

    #[cfg_attr(lint, tcc_releases(slab_handle))]
    pub fn take(&mut self, handle: u32) -> u64 {
        self.slots[handle as usize]
    }
}

/// Reads through the handle after the slot was handed back.
#[cfg_attr(lint, tcc_linear(slab_handle))]
pub fn replay(slab: &mut Slab) -> u64 {
    let handle = slab.park(42);
    let ev = slab.take(handle);
    ev + u64::from(handle)
}
