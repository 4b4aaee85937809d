//! The access-bit scanning daemon of the Linux prototype (§3.2).
//!
//! Horizon LRU needs per-page access *timestamps*, but x86 hardware only
//! maintains access *bits* — and clearing a page's access bit forces a
//! TLB invalidation, so scanning naively is expensive. The paper's
//! prototype runs a background daemon that scans mosaic memory at a fixed
//! interval, keeps "8 recent histories of access status" per page to
//! classify it hot or cold, always reads-and-clears the bits of cold
//! pages, but samples only 20 % of hot pages — assuming the other 80 %
//! were accessed (they almost certainly were; that's what made them hot).
//!
//! [`AccessScanner`] reproduces that daemon; `MosaicMemory::with_scanner`
//! runs Horizon LRU on the daemon's approximate timestamps instead of
//! exact ones, letting tests quantify the fidelity cost.

use crate::addr::Pfn;
use crate::frame::FrameTable;
use mosaic_hash::SplitMix64;

/// Daemon parameters (§3.2 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScannerConfig {
    /// Accesses between scans (models the 1 s wall-clock interval).
    pub interval: u64,
    /// A page is *hot* when at least this many of its last 8 scan
    /// histories saw it accessed.
    pub hot_threshold: u32,
    /// Permille of hot pages whose access bit is actually read and
    /// cleared each scan (the paper samples 20 %).
    pub hot_sample_permille: u32,
}

impl Default for ScannerConfig {
    fn default() -> Self {
        Self {
            interval: 65_536,
            hot_threshold: 5,
            hot_sample_permille: 200,
        }
    }
}

/// Daemon statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScannerStats {
    /// Scans performed.
    pub scans: u64,
    /// Access bits actually read and cleared (each would cost a TLB
    /// invalidation on real hardware).
    pub bits_cleared: u64,
    /// Hot pages assumed accessed without touching their bit (the
    /// invalidations saved).
    pub assumed_accessed: u64,
}

/// The background scanning daemon.
#[derive(Debug, Clone)]
pub struct AccessScanner {
    cfg: ScannerConfig,
    /// Per-frame simulated hardware access bit.
    marked: Vec<bool>,
    /// Per-frame 8-scan access history (bit 0 = most recent).
    history: Vec<u8>,
    last_scan: u64,
    rng: SplitMix64,
    stats: ScannerStats,
}

impl AccessScanner {
    /// Creates a daemon for `num_frames` frames.
    ///
    /// # Panics
    ///
    /// Panics if the interval is zero or the sample rate exceeds 1000 ‰.
    pub fn new(num_frames: usize, cfg: ScannerConfig, seed: u64) -> Self {
        assert!(cfg.interval > 0, "scan interval must be positive");
        assert!(cfg.hot_sample_permille <= 1000, "sample rate over 100%");
        assert!(cfg.hot_threshold <= 8, "history holds 8 scans");
        Self {
            cfg,
            marked: vec![false; num_frames],
            history: vec![0; num_frames],
            last_scan: 0,
            rng: SplitMix64::new(seed),
            stats: ScannerStats::default(),
        }
    }

    /// The daemon configuration.
    pub fn config(&self) -> &ScannerConfig {
        &self.cfg
    }

    /// Daemon statistics so far.
    pub fn stats(&self) -> &ScannerStats {
        &self.stats
    }

    /// Hardware sets the frame's access bit (called on every access).
    #[inline]
    pub fn mark(&mut self, pfn: Pfn) {
        self.marked[pfn.0 as usize] = true;
    }

    /// Resets daemon state for a frame that changed owners.
    #[inline]
    pub fn reset(&mut self, pfn: Pfn) {
        self.marked[pfn.0 as usize] = false;
        self.history[pfn.0 as usize] = 0;
    }

    /// Whether a page is currently classified hot.
    pub fn is_hot(&self, pfn: Pfn) -> bool {
        self.history[pfn.0 as usize].count_ones() >= self.cfg.hot_threshold
    }

    /// Whether a scan is due at time `now`.
    #[inline]
    pub fn due(&self, now: u64) -> bool {
        now >= self.last_scan + self.cfg.interval
    }

    /// Runs one scan over every resident frame, refreshing the last-access
    /// timestamp (to `now`) of each page observed — or assumed — accessed.
    pub fn scan(&mut self, frames: &mut FrameTable, now: u64) {
        self.stats.scans += 1;
        self.last_scan = now;
        let resident: Vec<Pfn> = frames.iter_resident().map(|(pfn, _)| pfn).collect();
        for pfn in resident {
            let idx = pfn.0 as usize;
            let hot = self.history[idx].count_ones() >= self.cfg.hot_threshold;
            let sampled = !hot
                || self.rng.next_below(1000) < u64::from(self.cfg.hot_sample_permille);
            let accessed = if sampled {
                // Read and clear the real bit (a TLB invalidation on
                // real hardware — the cost the sampling avoids).
                self.stats.bits_cleared += 1;
                std::mem::take(&mut self.marked[idx])
            } else {
                // Hot and unsampled: assume accessed, leave the bit.
                self.stats.assumed_accessed += 1;
                true
            };
            self.history[idx] = (self.history[idx] << 1) | u8::from(accessed);
            if accessed {
                frames.touch(pfn, now, false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Asid, PageKey, Vpn};
    use crate::frame::FrameEntry;
    use crate::layout::MemoryLayout;
    use mosaic_iceberg::IcebergConfig;

    fn table() -> FrameTable {
        FrameTable::new(MemoryLayout::new(IcebergConfig::paper_default(8)))
    }

    fn install(frames: &mut FrameTable, pfn: u64, at: u64) {
        frames.install(
            Pfn(pfn),
            FrameEntry {
                key: PageKey::new(Asid(1), Vpn(pfn)),
                last_access: at,
                dirty: false,
                has_swap_copy: false,
            },
        );
    }

    #[test]
    fn scan_refreshes_marked_pages_only() {
        let mut frames = table();
        install(&mut frames, 0, 1);
        install(&mut frames, 1, 1);
        let mut sc = AccessScanner::new(frames.num_frames(), ScannerConfig::default(), 7);
        sc.mark(Pfn(0));
        sc.scan(&mut frames, 100);
        assert_eq!(frames.entry(Pfn(0)).unwrap().last_access, 100);
        assert_eq!(frames.entry(Pfn(1)).unwrap().last_access, 1, "unmarked page untouched");
    }

    #[test]
    fn pages_become_hot_after_repeated_scans() {
        let mut frames = table();
        install(&mut frames, 3, 0);
        let mut sc = AccessScanner::new(frames.num_frames(), ScannerConfig::default(), 7);
        assert!(!sc.is_hot(Pfn(3)));
        for t in 1..=6u64 {
            sc.mark(Pfn(3));
            sc.scan(&mut frames, t * 100);
        }
        assert!(sc.is_hot(Pfn(3)), "6 consecutive accessed scans => hot");
    }

    #[test]
    fn hot_pages_are_mostly_assumed() {
        let mut frames = table();
        for pfn in 0..100 {
            install(&mut frames, pfn, 0);
        }
        let mut sc = AccessScanner::new(frames.num_frames(), ScannerConfig::default(), 7);
        // Make everything hot.
        for t in 1..=8u64 {
            for pfn in 0..100 {
                sc.mark(Pfn(pfn));
            }
            sc.scan(&mut frames, t * 100);
        }
        let before = *sc.stats();
        sc.scan(&mut frames, 10_000);
        let after = *sc.stats();
        let assumed = after.assumed_accessed - before.assumed_accessed;
        let cleared = after.bits_cleared - before.bits_cleared;
        // ~80% assumed, ~20% sampled.
        assert!(
            (60..=95).contains(&assumed),
            "assumed {assumed} of 100 hot pages"
        );
        assert_eq!(assumed + cleared, 100);
    }

    #[test]
    fn cold_pages_always_sampled() {
        let mut frames = table();
        for pfn in 0..50 {
            install(&mut frames, pfn, 0);
        }
        let mut sc = AccessScanner::new(frames.num_frames(), ScannerConfig::default(), 7);
        sc.scan(&mut frames, 100);
        assert_eq!(sc.stats().bits_cleared, 50, "all cold pages read");
        assert_eq!(sc.stats().assumed_accessed, 0);
    }

    #[test]
    fn reset_clears_history() {
        let mut frames = table();
        install(&mut frames, 0, 0);
        let mut sc = AccessScanner::new(frames.num_frames(), ScannerConfig::default(), 7);
        for t in 1..=8u64 {
            sc.mark(Pfn(0));
            sc.scan(&mut frames, t);
        }
        assert!(sc.is_hot(Pfn(0)));
        sc.reset(Pfn(0));
        assert!(!sc.is_hot(Pfn(0)));
    }

    #[test]
    fn due_respects_interval() {
        let sc = AccessScanner::new(16, ScannerConfig { interval: 100, ..Default::default() }, 1);
        assert!(!sc.due(99));
        assert!(sc.due(100));
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        AccessScanner::new(16, ScannerConfig { interval: 0, ..Default::default() }, 1);
    }
}
