//! Deterministic pseudo-random number generation.
//!
//! Experiments must be reproducible bit-for-bit across runs and across
//! versions of external crates, so the kernel carries its own
//! xoshiro256** generator (Blackman & Vigna) seeded through SplitMix64.
//! It also implements [`rand::TryRng`] so `rand` distributions can be used
//! on top when convenient.

/// SplitMix64 — used to expand a single `u64` seed into generator state.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256** 1.0 — the kernel's workhorse generator.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Seed via SplitMix64 as the xoshiro authors recommend.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        Xoshiro256 { s }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, bound)` via Lemire's multiply-shift reduction.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Unbiased enough for simulation purposes (bias < 2^-64 * bound).
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Split off an independently-seeded child generator (for per-node RNGs).
    pub fn split(&mut self) -> Xoshiro256 {
        Xoshiro256::seeded(self.next_u64())
    }
}

// `rand` 0.10 derives its infallible `Rng` trait from `TryRng` with an
// `Infallible` error, so implementing `TryRng` is what makes `Xoshiro256`
// usable with `rand` distributions.
impl rand::TryRng for Xoshiro256 {
    type Error = core::convert::Infallible;

    fn try_next_u32(&mut self) -> Result<u32, Self::Error> {
        Ok((self.next_u64() >> 32) as u32)
    }

    fn try_next_u64(&mut self) -> Result<u64, Self::Error> {
        Ok(Xoshiro256::next_u64(self))
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Self::Error> {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 (from the public-domain
        // splitmix64.c output).
        let mut sm = SplitMix64::new(1234567);
        let v: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(v[0], 6457827717110365317);
        assert_eq!(v[1], 3203168211198807973);
        assert_eq!(v[2], 9817491932198370423);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Xoshiro256::seeded(42);
        let mut b = Xoshiro256::seeded(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::seeded(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn below_in_bounds_and_covers() {
        let mut r = Xoshiro256::seeded(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit in 1000 draws");
    }

    #[test]
    fn f64_unit_interval() {
        let mut r = Xoshiro256::seeded(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Xoshiro256::seeded(5);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fill_bytes_handles_remainder() {
        use rand::Rng;
        let mut r = Xoshiro256::seeded(11);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn split_decorrelates() {
        let mut parent = Xoshiro256::seeded(1);
        let mut a = parent.split();
        let mut b = parent.split();
        let eq = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(eq, 0);
    }
}
