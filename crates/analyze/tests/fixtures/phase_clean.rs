//! Fixture: the correct epoch machine, mirroring `run_worker` in
//! `crates/core/src/engine.rs`. Within each barrier interval the order
//! is drain -> minima -> stage -> publish -> barrier; the barrier wait
//! is B0, so the next iteration's drain legally follows this iteration's
//! publish. Also pins the two deliberate non-findings: a driver calling
//! a complete epoch machine is neutral, and `Option::take` /
//! shard-touching setup code carry no rank.

pub struct Worker {
    mail_ring: BatchRing,
    queue: EventQueue,
    outbox: Vec<u64>,
    scratch: Vec<u64>,
    slot: Option<u64>,
    barrier: Barrier,
}

impl Worker {
    /// The blessed shape: one full epoch per barrier interval.
    pub fn run(&mut self, epochs: u64) {
        for _ in 0..epochs {
            self.mail_ring.take(&mut self.scratch);
            let horizon = self.queue.peek_time();
            self.stage(horizon);
            self.mail_ring.publish(&mut self.outbox);
            self.barrier.wait();
        }
    }

    fn stage(&mut self, horizon: Option<u64>) {
        if let Some(t) = horizon {
            self.outbox.push(t);
        }
    }

    /// A complete epoch machine spans consumer and producer ranks, so
    /// calling it twice back-to-back is neutral — the machine carries
    /// its own barrier.
    pub fn drive(&mut self) {
        self.run(1);
        self.run(1);
    }

    /// `Option::take` after `peek_time` is not a mailbox drain: the
    /// receiver chain is not ring-like.
    pub fn swap_slot(&mut self) -> Option<u64> {
        let horizon = self.queue.peek_time();
        let parked = self.slot.take();
        self.slot = horizon;
        parked
    }
}

pub struct Engine {
    shards: Vec<Shard>,
}

impl Engine {
    /// Setup code is unranked; wiring peer lists directly is fine.
    pub fn wire(&mut self, dst: usize, peer: u32) {
        self.shards[dst].out_peers.push(peer);
    }
}
