//! Fixture: a mailbox drain after the horizon minimum has already been
//! computed. The minima are only a safe lower bound if every shard's
//! inbound mail is in its queue first; draining afterwards can surface
//! an event earlier than the published horizon — a causality violation
//! that shows up as nondeterministic ordering across thread counts.

pub struct Worker {
    mail_ring: BatchRing,
    queue: EventQueue,
    scratch: Vec<u64>,
}

impl Worker {
    /// BROKEN: peeks the horizon minimum, then drains mail that could
    /// carry an earlier timestamp.
    pub fn epoch(&mut self) {
        let horizon = self.queue.peek_time();
        self.mail_ring.take(&mut self.scratch);
        self.report(horizon);
    }

    fn report(&self, _h: Option<u64>) {}
}
