//! Fixture: a stale `tcc_alloc_ok` escape hatch. The annotation says
//! "this function allocates, and a reviewer signed off on it being off
//! the steady-state path" — but nothing in or below the body allocates
//! any more. A stale boundary is a reviewed hole an unreviewed
//! allocation could later hide behind, so the pass flags it for removal.

pub struct Table {
    slots: [u64; 16],
    used: usize,
}

impl Table {
    /// Used to regrow a `Vec`; the table became a fixed array and the
    /// annotation stayed behind.
    #[cfg_attr(lint, tcc_alloc_ok)]
    pub fn grow(&mut self) -> usize {
        self.used = self.used.min(self.slots.len());
        self.used
    }
}
