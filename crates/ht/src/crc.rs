//! Link-level CRC window overhead.
//!
//! HyperTransport protects each lane with a periodic CRC computed over
//! 512-bit-time windows and transmitted during 4 dedicated bit times, an
//! overhead of 4/516 of the raw wire rate. The link layer folds that
//! overhead into its effective bandwidth; CRC errors themselves are
//! modelled as resends in `LinkTx` (see `LinkTx::crc_error_rate`).

/// Bit times per CRC window (data portion).
pub const WINDOW_BIT_TIMES: u64 = 512;
/// Bit times the CRC itself occupies per window.
pub const CRC_BIT_TIMES: u64 = 4;

/// Scale `raw` bytes/sec down by the CRC window overhead (integer math).
pub fn derate_bandwidth(raw: u64) -> u64 {
    (raw as u128 * WINDOW_BIT_TIMES as u128 / (WINDOW_BIT_TIMES + CRC_BIT_TIMES) as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_overhead() {
        assert_eq!(
            (WINDOW_BIT_TIMES, WINDOW_BIT_TIMES + CRC_BIT_TIMES),
            (512, 516)
        );
        // 3.2 GB/s raw derates to ~3.175 GB/s.
        let eff = derate_bandwidth(3_200_000_000);
        assert_eq!(eff, 3_175_193_798);
    }
}
