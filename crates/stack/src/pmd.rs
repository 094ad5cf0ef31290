//! Polling-mode-driver parameters.
//!
//! DPDK applications poll their receive rings and process packets in
//! batches (default 32) to amortise driver overhead and improve locality
//! (Sec. III, observation 1). The event-driven poll loop itself lives in
//! the full-system simulator; this module holds its batch size.

/// DPDK's default receive batch size: the most packets one `rx_burst`
/// call takes.
pub const DEFAULT_BATCH: u32 = 32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_dpdk() {
        assert_eq!(DEFAULT_BATCH, 32);
    }
}
