//! Paging statistics: the counters Tables 3 and 4 are built from.

/// Counters maintained by every [`MemoryManager`](crate::manager::MemoryManager).
///
/// *Swap I/O* accounting follows `sysstat`'s `pswpin`/`pswpout`, the metric
/// Table 4 reports: a swap-out is counted only when an evicted page's
/// contents must actually be written (dirty, or never yet on swap); evicting
/// a clean page whose swap copy is still valid is free, as is dropping a
/// never-written (all-zero) anonymous page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PagingStats {
    /// Total page accesses driven through the manager.
    pub accesses: u64,
    /// First-touch (zero-fill) faults: no I/O.
    pub minor_faults: u64,
    /// Faults on swapped-out pages: each costs a swap-in I/O.
    pub major_faults: u64,
    /// Pages read back from the swap device.
    pub swapped_in: u64,
    /// Pages written to the swap device.
    pub swapped_out: u64,
    /// Evictions that reclaimed a ghost page (Mosaic only).
    pub ghost_evictions: u64,
    /// Evictions that took a live (non-ghost) page.
    pub live_evictions: u64,
    /// Clean pages dropped without I/O (valid swap copy or never written).
    pub clean_drops: u64,
    /// Associativity conflicts: allocations that found every candidate slot
    /// holding a live page (Mosaic only; the baseline never conflicts).
    pub conflicts: u64,
}

impl PagingStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total swap I/O operations (`pswpin + pswpout`), Table 4's unit.
    pub fn swap_ops(&self) -> u64 {
        self.swapped_in + self.swapped_out
    }

    /// Total faults of any kind.
    pub fn faults(&self) -> u64 {
        self.minor_faults + self.major_faults
    }

    /// Total evictions of any kind.
    pub fn evictions(&self) -> u64 {
        self.ghost_evictions + self.live_evictions
    }

    /// Faults per access, `0.0` for an empty stream (no accesses yet).
    pub fn fault_rate(&self) -> f64 {
        mosaic_obs::fmt::safe_ratio(self.faults(), self.accesses)
    }

    /// Swap I/O operations per access, `0.0` for an empty stream.
    pub fn swap_rate(&self) -> f64 {
        mosaic_obs::fmt::safe_ratio(self.swap_ops(), self.accesses)
    }
}

/// Counters for injected faults and the manager's recovery work.
///
/// Populated only when a manager carries a
/// [`FaultInjector`](crate::fault::FaultInjector); a fault-free run leaves
/// every field zero. Reported alongside [`PagingStats`] by the resilience
/// table of the pressure experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResilienceStats {
    /// Transient allocation failures the injector produced.
    pub alloc_faults_injected: u64,
    /// Allocation attempts repeated after a transient failure.
    pub alloc_retries: u64,
    /// Allocations abandoned after exhausting the retry budget (each
    /// surfaced as a typed error to the driver).
    pub alloc_failures: u64,
    /// Swap I/O errors the injector produced (including burst members).
    pub io_faults_injected: u64,
    /// Swap I/O operations repeated after an error.
    pub io_retries: u64,
    /// Simulated exponential-backoff delay accumulated across I/O retries,
    /// in abstract ticks (doubling per consecutive retry).
    pub io_backoff_ticks: u64,
    /// Swap I/Os abandoned after exhausting the retry budget.
    pub io_failures: u64,
    /// Bit-flips injected into TLB-cached ToC entries (CPFNs).
    pub toc_flips_injected: u64,
    /// Corrupted translations recovered by a page-table re-walk.
    pub toc_rewalks: u64,
}

impl ResilienceStats {
    /// The all-zero counters, usable in `const` position.
    pub const ZERO: ResilienceStats = ResilienceStats {
        alloc_faults_injected: 0,
        alloc_retries: 0,
        alloc_failures: 0,
        io_faults_injected: 0,
        io_retries: 0,
        io_backoff_ticks: 0,
        io_failures: 0,
        toc_flips_injected: 0,
        toc_rewalks: 0,
    };

    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::ZERO
    }

    /// Total faults injected across all classes.
    pub fn faults_injected(&self) -> u64 {
        self.alloc_faults_injected + self.io_faults_injected + self.toc_flips_injected
    }

    /// Total retry attempts spent absorbing transient faults.
    pub fn retries(&self) -> u64 {
        self.alloc_retries + self.io_retries
    }

    /// Faults recovered without surfacing an error: retried-past transient
    /// failures plus re-walked ToC corruptions.
    pub fn recoveries(&self) -> u64 {
        self.alloc_retries + self.io_retries + self.toc_rewalks
    }

    /// Faults that exhausted their budget and surfaced as typed errors.
    pub fn hard_failures(&self) -> u64 {
        self.alloc_failures + self.io_failures
    }

    /// Folds another manager's counters into this one (for run totals).
    pub fn merge(&mut self, other: &ResilienceStats) {
        self.alloc_faults_injected += other.alloc_faults_injected;
        self.alloc_retries += other.alloc_retries;
        self.alloc_failures += other.alloc_failures;
        self.io_faults_injected += other.io_faults_injected;
        self.io_retries += other.io_retries;
        self.io_backoff_ticks += other.io_backoff_ticks;
        self.io_failures += other.io_failures;
        self.toc_flips_injected += other.toc_flips_injected;
        self.toc_rewalks += other.toc_rewalks;
    }
}

impl core::fmt::Display for ResilienceStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "faults {} (alloc {} / io {} / toc {}) | retries {} | backoff {} ticks | rewalks {} | hard failures {}",
            self.faults_injected(),
            self.alloc_faults_injected,
            self.io_faults_injected,
            self.toc_flips_injected,
            self.retries(),
            self.io_backoff_ticks,
            self.toc_rewalks,
            self.hard_failures(),
        )
    }
}

impl core::fmt::Display for PagingStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "accesses {} | faults {} minor / {} major | swap {} in / {} out | evictions {} ghost / {} live | conflicts {}",
            self.accesses,
            self.minor_faults,
            self.major_faults,
            self.swapped_in,
            self.swapped_out,
            self.ghost_evictions,
            self.live_evictions,
            self.conflicts,
        )
    }
}

/// Tracks memory-utilization milestones over a run (Table 3's two columns).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct UtilizationTracker {
    /// Utilization (0..=1) when the first associativity conflict occurred.
    first_conflict: Option<f64>,
    /// Running sum of sampled utilizations, for the steady-state mean.
    sum: f64,
    /// Number of samples folded into `sum`.
    samples: u64,
    /// Highest utilization observed.
    peak: f64,
}

impl UtilizationTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the utilization at the first conflict; later calls are no-ops
    /// (Table 3 reports the *first* conflict only).
    pub fn record_first_conflict(&mut self, utilization: f64) {
        self.first_conflict.get_or_insert(utilization);
    }

    /// Folds a periodic utilization sample into the steady-state average.
    pub fn sample(&mut self, utilization: f64) {
        self.sum += utilization;
        self.samples += 1;
        if utilization > self.peak {
            self.peak = utilization;
        }
    }

    /// Utilization at the first associativity conflict, if one occurred.
    pub fn first_conflict(&self) -> Option<f64> {
        self.first_conflict
    }

    /// Mean of the sampled utilizations, if any were taken.
    pub fn steady_state_mean(&self) -> Option<f64> {
        (self.samples > 0).then(|| self.sum / self.samples as f64)
    }

    /// Highest utilization observed across samples.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Steady-state samples taken so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_ops_sums_directions() {
        let s = PagingStats {
            swapped_in: 3,
            swapped_out: 5,
            ..PagingStats::new()
        };
        assert_eq!(s.swap_ops(), 8);
    }

    #[test]
    fn faults_and_evictions_sum() {
        let s = PagingStats {
            minor_faults: 2,
            major_faults: 3,
            ghost_evictions: 4,
            live_evictions: 5,
            ..PagingStats::new()
        };
        assert_eq!(s.faults(), 5);
        assert_eq!(s.evictions(), 9);
    }

    #[test]
    fn display_contains_counters() {
        let s = PagingStats {
            accesses: 10,
            conflicts: 2,
            ..PagingStats::new()
        };
        let text = s.to_string();
        assert!(text.contains("accesses 10"));
        assert!(text.contains("conflicts 2"));
    }

    #[test]
    fn rates_guard_empty_stream() {
        let s = PagingStats::new();
        assert_eq!(s.fault_rate(), 0.0);
        assert_eq!(s.swap_rate(), 0.0);
        let s = PagingStats {
            accesses: 10,
            minor_faults: 2,
            swapped_in: 1,
            ..PagingStats::new()
        };
        assert!((s.fault_rate() - 0.2).abs() < 1e-12);
        assert!((s.swap_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn resilience_rollups_and_merge() {
        let mut a = ResilienceStats {
            alloc_faults_injected: 4,
            alloc_retries: 3,
            alloc_failures: 1,
            io_faults_injected: 2,
            io_retries: 2,
            io_backoff_ticks: 6,
            io_failures: 0,
            toc_flips_injected: 5,
            toc_rewalks: 5,
        };
        assert_eq!(a.faults_injected(), 11);
        assert_eq!(a.retries(), 5);
        assert_eq!(a.recoveries(), 10);
        assert_eq!(a.hard_failures(), 1);
        a.merge(&a.clone());
        assert_eq!(a.faults_injected(), 22);
        assert_eq!(a.io_backoff_ticks, 12);
        assert_eq!(ResilienceStats::new(), ResilienceStats::ZERO);
        let text = a.to_string();
        assert!(text.contains("retries 10") && text.contains("rewalks 10"));
    }

    #[test]
    fn first_conflict_latches() {
        let mut t = UtilizationTracker::new();
        assert_eq!(t.first_conflict(), None);
        t.record_first_conflict(0.98);
        t.record_first_conflict(0.50);
        assert_eq!(t.first_conflict(), Some(0.98));
    }

    #[test]
    fn steady_state_mean_and_peak() {
        let mut t = UtilizationTracker::new();
        assert_eq!(t.steady_state_mean(), None);
        t.sample(0.5);
        t.sample(1.0);
        assert!((t.steady_state_mean().unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(t.peak(), 1.0);
    }
}
