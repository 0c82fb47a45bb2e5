//! Fixture: the blessed linear-resource shapes, mirroring production.
//! A `?` on the acquire itself keeps the error path clean
//! (validate-then-commit), a genuine handoff holds at exit under
//! `tcc_transfer_ok`, a drain loop releases more than it acquires
//! (net-releaser functions are legal), and a tracked handle paired
//! exactly once raises nothing.

pub struct CreditPool {
    available: u32,
}

pub enum SendError {
    Congested,
}

impl CreditPool {
    #[cfg_attr(lint, tcc_acquires(credit))]
    pub fn consume(&mut self) -> Result<(), SendError> {
        if self.available == 0 {
            return Err(SendError::Congested);
        }
        self.available -= 1;
        Ok(())
    }

    #[cfg_attr(lint, tcc_releases(credit))]
    pub fn release(&mut self) {
        self.available += 1;
    }
}

/// `consume()?` commits its acquire only on the success path, and that
/// path releases before falling through: both exits are balanced.
#[cfg_attr(lint, tcc_linear(credit))]
pub fn balanced(pool: &mut CreditPool) -> Result<(), SendError> {
    pool.consume()?;
    pool.release();
    Ok(())
}

/// A real handoff: the consumed credit rides out with the packet and
/// comes back via the far side's credit-return NOP.
// tcc_transfer_ok: the credit is owned by the in-flight packet once
// this returns; the receiver's NOP releases it elsewhere.
#[cfg_attr(lint, tcc_linear(credit), tcc_transfer_ok)]
pub fn send(pool: &mut CreditPool) -> Result<(), SendError> {
    pool.consume()?;
    Ok(())
}

/// Net releaser: a drain loop returning credits acquired elsewhere may
/// go arbitrarily negative without being a defect.
#[cfg_attr(lint, tcc_linear(credit))]
pub fn drain_returns(pool: &mut CreditPool, n: u32) {
    for _ in 0..n {
        pool.release();
    }
}

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

/// A tracked handle paired exactly once, with the payload (not the
/// handle) used afterwards.
#[cfg_attr(lint, tcc_linear(slab_handle))]
pub fn roundtrip(slab: &mut Slab) -> u64 {
    let handle = slab.park(7);
    let ev = slab.take(handle);
    ev * 2
}
