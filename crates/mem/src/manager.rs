//! The [`MemoryManager`] trait: the OS-side contract the simulator drives.
//!
//! Both memory systems under comparison — [`MosaicMemory`](crate::mosaic)
//! and the unconstrained [`LinuxMemory`](crate::linux) baseline — implement
//! this trait, so the swapping experiments (Tables 3–4) run the identical
//! reference stream through either.

use crate::addr::{Asid, PageKey, Pfn};
use crate::error::MosaicResult;
use crate::quota::{QuotaStats, TenantQuota};
use crate::stats::{PagingStats, ResilienceStats, UtilizationTracker};
use mosaic_obs::ObsHandle;

/// Whether an access reads or writes the page (drives dirty tracking and
/// therefore swap-out accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read.
    Load,
    /// A write.
    Store,
}

impl AccessKind {
    /// Whether this access dirties the page.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Store)
    }
}

/// How an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// The page was resident and live.
    Hit,
    /// The page was resident but ghosted; it was resurrected without I/O
    /// (Mosaic only — the baseline has no ghosts).
    GhostHit,
    /// First touch: a frame was allocated and zero-filled, no I/O.
    MinorFault,
    /// The page was on swap: a frame was allocated and the page read back.
    MajorFault,
}

impl AccessOutcome {
    /// Whether the access required taking a page fault.
    pub fn faulted(self) -> bool {
        matches!(self, AccessOutcome::MinorFault | AccessOutcome::MajorFault)
    }
}

/// A demand-paged physical memory manager.
pub trait MemoryManager {
    /// Ensures `key` is resident (faulting and evicting as needed) and
    /// records an access at time `now`. `now` must be non-decreasing across
    /// calls.
    ///
    /// Fails only when the manager's fault injector exhausts a retry budget
    /// (or, defensively, on internal corruption); a failed access leaves the
    /// manager consistent — the page is simply not mapped in, and the same
    /// access may be retried later. Without an injector this never fails.
    fn try_access(&mut self, key: PageKey, kind: AccessKind, now: u64)
        -> MosaicResult<AccessOutcome>;

    /// Infallible convenience wrapper over [`try_access`](Self::try_access)
    /// for fault-free runs; panics on the (injected-fault-only) error path.
    fn access(&mut self, key: PageKey, kind: AccessKind, now: u64) -> AccessOutcome {
        match self.try_access(key, kind, now) {
            Ok(outcome) => outcome,
            Err(e) => panic!("unrecoverable memory fault: {e}"),
        }
    }

    /// The frame currently backing `key`, if resident.
    fn resident_pfn(&self, key: PageKey) -> Option<Pfn>;

    /// Releases every page belonging to `asid` — resident frames *and*
    /// swap copies — without any swap I/O, returning the number of frames
    /// freed. This is process-exit reclaim: the pages' contents are dead,
    /// so eviction accounting (write-back, swap-out counters) does not
    /// apply. Callers owning TLBs must shoot down the ASID separately.
    ///
    /// The default does nothing and returns 0, for managers that never see
    /// more than one address space.
    fn release_asid(&mut self, _asid: Asid) -> u64 {
        0
    }

    /// Sets (or replaces) `asid`'s working-set quota. Once any quota is
    /// set, eviction becomes quota-aware: a tenant at its cap self-evicts
    /// before displacing under-quota tenants, and allocations it cannot
    /// self-serve defer with [`QuotaExceeded`] backpressure. The default
    /// ignores quotas entirely (single-tenant managers).
    ///
    /// [`QuotaExceeded`]: crate::error::MosaicError::QuotaExceeded
    fn set_quota(&mut self, _asid: Asid, _quota: TenantQuota) {}

    /// Quota backpressure counters (all-zero when no quota was ever set,
    /// the default).
    fn quota_stats(&self) -> QuotaStats {
        QuotaStats::ZERO
    }

    /// Total physical frames managed.
    fn num_frames(&self) -> usize;

    /// Frames currently occupied (live or ghost).
    fn resident_frames(&self) -> usize;

    /// Occupied / total, the utilization metric of Table 3. A zero-frame
    /// manager is vacuously fully utilized rather than NaN.
    fn utilization(&self) -> f64 {
        if self.num_frames() == 0 {
            1.0
        } else {
            self.resident_frames() as f64 / self.num_frames() as f64
        }
    }

    /// Paging counters accumulated so far.
    fn stats(&self) -> &PagingStats;

    /// Fault-injection and recovery counters. All-zero for managers without
    /// an injector (the default).
    fn resilience(&self) -> &ResilienceStats {
        &ResilienceStats::ZERO
    }

    /// Checks the manager's internal structural invariants (frame-ownership
    /// bijection, accounting consistency, horizon monotonicity where
    /// applicable). The pressure driver calls this at configurable
    /// intervals during fault-injection runs. The default does nothing.
    fn verify(&self) -> MosaicResult<()> {
        Ok(())
    }

    /// Binds this manager's counters and events to `obs` under
    /// `<prefix>.*` names (see `docs/OBSERVABILITY.md` for the schema).
    /// The default ignores the handle; managers that implement it must
    /// keep behavior identical whether or not tracing is attached.
    fn set_obs(&mut self, _obs: &ObsHandle, _prefix: &str) {}

    /// Publishes to the attached registry: the movement of the paging
    /// counters since the last publish, and the slow-moving gauges
    /// (utilization, horizon, ghost count). Accesses count only into
    /// the manager's own fields, so the driver calls this just before
    /// every snapshot; the default does nothing.
    fn publish_obs(&self) {}

    /// Utilization milestones (first conflict, steady-state samples).
    fn utilization_tracker(&self) -> &UtilizationTracker;

    /// Folds the current utilization into the steady-state average; the
    /// experiment driver calls this periodically.
    fn sample_utilization(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_write_flag() {
        assert!(!AccessKind::Load.is_write());
        assert!(AccessKind::Store.is_write());
    }

    #[test]
    fn outcome_fault_classification() {
        assert!(!AccessOutcome::Hit.faulted());
        assert!(!AccessOutcome::GhostHit.faulted());
        assert!(AccessOutcome::MinorFault.faulted());
        assert!(AccessOutcome::MajorFault.faulted());
    }
}
