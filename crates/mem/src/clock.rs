//! A stock-Linux-faithful baseline: two-list (active/inactive) reclaim
//! with referenced bits and second chances.
//!
//! The exact-LRU baseline in [`linux`](crate::linux) is an *idealisation*
//! of Linux reclaim; real kernels approximate LRU with two FIFO lists and
//! per-page referenced bits, demoting from the active list and evicting
//! from the inactive list with one second chance. The approximation makes
//! systematically worse choices than exact LRU — which is part of why the
//! paper measures Mosaic beating stock Linux by up to 29 % (Table 4)
//! while staying close to an exact-LRU ideal. This module lets the
//! Table 4 driver and the ablation bench quantify exactly that gap.

use crate::addr::{PageKey, Pfn};
use crate::error::{MosaicError, MosaicResult};
use crate::frame::{FrameEntry, FrameTable};
use crate::invariants;
use crate::layout::MemoryLayout;
use crate::manager::{AccessKind, AccessOutcome, MemoryManager};
use crate::obs::MemObs;
use crate::stats::{PagingStats, UtilizationTracker};
use mosaic_hash::{FastHashMap, FastHashSet};
use mosaic_obs::ObsHandle;
use std::collections::VecDeque;

/// Per-page reclaim state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PageLru {
    referenced: bool,
    active: bool,
}

/// A two-list (active/inactive) clock-style memory manager.
///
/// Faulted-in pages enter the inactive list; a reference while inactive
/// marks the page, and reclaim promotes marked pages to the active list
/// instead of evicting them (one second chance). When the inactive list
/// runs low, the active list is scanned and unreferenced pages are
/// demoted. Reclaim triggers at the same 0.8 % free watermark as the
/// exact-LRU baseline.
///
/// # Example
///
/// ```
/// use mosaic_mem::prelude::*;
/// use mosaic_mem::clock::ClockMemory;
///
/// let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
/// let mut mm = ClockMemory::new(layout);
/// let key = PageKey::new(Asid::new(1), Vpn::new(3));
/// assert_eq!(mm.access(key, AccessKind::Store, 1), AccessOutcome::MinorFault);
/// assert_eq!(mm.access(key, AccessKind::Load, 2), AccessOutcome::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct ClockMemory {
    frames: FrameTable,
    free: Vec<Pfn>,
    resident: FastHashMap<PageKey, Pfn>,
    swapped: FastHashSet<PageKey>,
    lru_state: FastHashMap<PageKey, PageLru>,
    active: VecDeque<PageKey>,
    inactive: VecDeque<PageKey>,
    low_watermark: usize,
    high_watermark: usize,
    stats: PagingStats,
    util: UtilizationTracker,
    obs: MemObs,
    /// ASID of the in-flight access, for blaming reclaim on the tenant
    /// whose fault forced it.
    obs_requester: u16,
}

impl ClockMemory {
    /// Creates a manager with the default (0.8 % / 1.2 %) watermarks.
    pub fn new(layout: MemoryLayout) -> Self {
        let total = layout.num_frames();
        let low = (total * crate::linux::DEFAULT_LOW_WATERMARK_PERMILLE / 1000).max(1);
        let high = (total * crate::linux::DEFAULT_HIGH_WATERMARK_PERMILLE / 1000).max(low + 1);
        Self {
            free: (0..total as u64).rev().map(Pfn).collect(),
            frames: FrameTable::new(layout),
            resident: FastHashMap::default(),
            swapped: FastHashSet::default(),
            lru_state: FastHashMap::default(),
            active: VecDeque::new(),
            inactive: VecDeque::new(),
            low_watermark: low,
            high_watermark: high,
            stats: PagingStats::new(),
            util: UtilizationTracker::new(),
            obs: MemObs::noop(),
            obs_requester: 0,
        }
    }

    /// Free frames right now.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Length of the active list (diagnostics).
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Length of the inactive list (diagnostics).
    pub fn inactive_len(&self) -> usize {
        self.inactive.len()
    }

    fn evict(&mut self, victim: PageKey) -> MosaicResult<()> {
        let pfn = self
            .resident
            .remove(&victim)
            .ok_or(MosaicError::internal("reclaim only evicts resident pages"))?;
        let entry = self.frames.evict(pfn);
        self.obs
            .attrib_evicted(self.obs_requester, victim.asid.0, false);
        self.lru_state.remove(&victim);
        self.stats.live_evictions += 1;
        self.obs.live_evictions.inc();
        if entry.eviction_needs_writeback() {
            self.stats.swapped_out += 1;
            self.obs.swapped_out.inc();
            self.swapped.insert(victim);
        } else {
            self.stats.clean_drops += 1;
            self.obs.clean_drops.inc();
            if entry.has_swap_copy {
                self.swapped.insert(victim);
            }
        }
        self.free.push(pfn);
        Ok(())
    }

    /// Demotes unreferenced active pages until the inactive list holds at
    /// least as many pages as the active list (Linux's balancing goal).
    fn refill_inactive(&mut self) -> MosaicResult<()> {
        let mut scans = self.active.len();
        while self.inactive.len() < self.active.len() && scans > 0 {
            scans -= 1;
            let Some(page) = self.active.pop_front() else {
                break;
            };
            let state = self
                .lru_state
                .get_mut(&page)
                .ok_or(MosaicError::internal("listed pages have state"))?;
            if state.referenced {
                // Second chance: clear and rotate to the active tail.
                state.referenced = false;
                self.active.push_back(page);
            } else {
                state.active = false;
                self.inactive.push_back(page);
            }
        }
        Ok(())
    }

    /// kswapd-style shrink: evict from the inactive list (with one second
    /// chance) until free memory recovers to the high watermark.
    fn reclaim_if_needed(&mut self) -> MosaicResult<()> {
        if self.free.len() >= self.low_watermark {
            return Ok(());
        }
        while self.free.len() < self.high_watermark {
            if self.inactive.is_empty() {
                self.refill_inactive()?;
            }
            let Some(page) = self.inactive.pop_front() else {
                // Everything is active and referenced: force-demote.
                match self.active.pop_front() {
                    Some(p) => {
                        self.evict(p)?;
                        continue;
                    }
                    None => break,
                }
            };
            let state = self
                .lru_state
                .get_mut(&page)
                .ok_or(MosaicError::internal("listed pages have state"))?;
            if state.referenced {
                // Referenced while inactive: promote instead of evicting.
                state.referenced = false;
                state.active = true;
                self.active.push_back(page);
            } else {
                self.evict(page)?;
            }
        }
        Ok(())
    }
}

impl MemoryManager for ClockMemory {
    fn try_access(
        &mut self,
        key: PageKey,
        kind: AccessKind,
        now: u64,
    ) -> MosaicResult<AccessOutcome> {
        self.stats.accesses += 1;
        self.obs.accesses.inc();
        self.obs_requester = key.asid.0;

        if let Some(&pfn) = self.resident.get(&key) {
            self.frames.touch(pfn, now, kind.is_write());
            // Hardware sets the referenced bit; no list movement on access.
            self.lru_state
                .get_mut(&key)
                .ok_or(MosaicError::internal("resident pages have state"))?
                .referenced = true;
            self.obs.hits.inc();
            return Ok(AccessOutcome::Hit);
        }

        self.reclaim_if_needed()?;
        let pfn = self
            .free
            .pop()
            .ok_or(MosaicError::internal(
                "reclaim keeps the free list non-empty",
            ))?;
        let from_swap = self.swapped.remove(&key);
        self.frames.install(
            pfn,
            FrameEntry {
                key,
                last_access: now,
                dirty: kind.is_write(),
                has_swap_copy: from_swap && !kind.is_write(),
            },
        );
        self.resident.insert(key, pfn);
        self.lru_state.insert(
            key,
            PageLru {
                referenced: false,
                active: false,
            },
        );
        self.inactive.push_back(key);
        Ok(if from_swap {
            self.stats.major_faults += 1;
            self.stats.swapped_in += 1;
            self.obs.major_faults.inc();
            self.obs.swapped_in.inc();
            AccessOutcome::MajorFault
        } else {
            self.stats.minor_faults += 1;
            self.obs.minor_faults.inc();
            self.obs.attrib_cold(key.asid.0);
            AccessOutcome::MinorFault
        })
    }

    fn resident_pfn(&self, key: PageKey) -> Option<Pfn> {
        self.resident.get(&key).copied()
    }

    fn num_frames(&self) -> usize {
        self.frames.num_frames()
    }

    fn resident_frames(&self) -> usize {
        self.frames.resident()
    }

    fn stats(&self) -> &PagingStats {
        &self.stats
    }

    fn utilization_tracker(&self) -> &UtilizationTracker {
        &self.util
    }

    fn sample_utilization(&mut self) {
        let u = self.utilization();
        self.util.sample(u);
    }

    fn set_obs(&mut self, obs: &ObsHandle, prefix: &str) {
        self.obs = MemObs::register(obs, prefix);
    }

    fn publish_obs(&self) {
        self.obs.util.set(self.utilization());
    }

    fn verify(&self) -> MosaicResult<()> {
        invariants::check_frame_bijection(&self.frames, &self.resident)?;
        invariants::check_swap_disjoint(&self.resident, &self.swapped)?;
        invariants::check_free_list_accounting(self.num_frames(), &self.free, &self.frames)?;
        // The two lists together cover every resident page exactly once.
        if self.active.len() + self.inactive.len() != self.resident.len() {
            return Err(MosaicError::invariant(
                "clock-list-coverage",
                format!(
                    "{} active + {} inactive != {} resident",
                    self.active.len(),
                    self.inactive.len(),
                    self.resident.len()
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Asid, Vpn};
    use mosaic_iceberg::IcebergConfig;

    fn key(n: u64) -> PageKey {
        PageKey::new(Asid(1), Vpn(n))
    }

    fn memory() -> ClockMemory {
        ClockMemory::new(MemoryLayout::new(IcebergConfig::paper_default(8)))
    }

    #[test]
    fn fault_then_hit() {
        let mut mm = memory();
        assert_eq!(mm.access(key(1), AccessKind::Store, 1), AccessOutcome::MinorFault);
        assert_eq!(mm.access(key(1), AccessKind::Load, 2), AccessOutcome::Hit);
    }

    #[test]
    fn no_reclaim_above_watermark() {
        let mut mm = memory();
        let fill = mm.num_frames() - mm.low_watermark - 1;
        for n in 0..fill as u64 {
            mm.access(key(n), AccessKind::Store, n + 1);
        }
        assert_eq!(mm.stats().evictions(), 0);
    }

    #[test]
    fn second_chance_protects_referenced_pages() {
        let mut mm = memory();
        let total = mm.num_frames() as u64;
        let mut now = 0;
        // Fill memory, then keep re-referencing the first 50 pages while
        // streaming new ones through.
        for n in 0..total {
            now += 1;
            mm.access(key(n), AccessKind::Store, now);
        }
        for round in 0..6u64 {
            for n in 0..50 {
                now += 1;
                mm.access(key(n), AccessKind::Load, now);
            }
            for n in 0..30 {
                now += 1;
                mm.access(key(total + round * 30 + n), AccessKind::Store, now);
            }
        }
        let mut hot_resident = 0;
        for n in 0..50 {
            if mm.resident_pfn(key(n)).is_some() {
                hot_resident += 1;
            }
        }
        assert!(
            hot_resident >= 45,
            "only {hot_resident}/50 hot pages survived reclaim"
        );
    }

    #[test]
    fn cold_stream_is_evicted() {
        let mut mm = memory();
        let total = mm.num_frames() as u64;
        for n in 0..total * 2 {
            mm.access(key(n), AccessKind::Store, n + 1);
        }
        assert!(mm.stats().evictions() > 0);
        assert!(mm.resident_frames() <= mm.num_frames());
        // Early stream pages (touched once) are gone.
        assert!(mm.resident_pfn(key(0)).is_none());
    }

    #[test]
    fn lists_partition_resident_pages() {
        let mut mm = memory();
        let total = mm.num_frames() as u64;
        let mut now = 0;
        for n in 0..total + 200 {
            now += 1;
            mm.access(key(n % (total + 100)), AccessKind::Store, now);
        }
        assert_eq!(
            mm.active_len() + mm.inactive_len(),
            mm.resident_frames(),
            "every resident page is on exactly one list"
        );
    }

    #[test]
    fn clock_swaps_at_least_as_much_as_exact_lru() {
        // The approximation cannot beat the ideal on a scan-heavy stream.
        use crate::linux::LinuxMemory;
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
        let mut clock = ClockMemory::new(layout);
        let mut exact = LinuxMemory::new(layout);
        let total = layout.num_frames() as u64;
        let mut now = 0;
        for _ in 0..4 {
            for n in 0..total * 5 / 4 {
                now += 1;
                clock.access(key(n), AccessKind::Store, now);
                exact.access(key(n), AccessKind::Store, now);
            }
        }
        assert!(
            clock.stats().swap_ops() + 50 >= exact.stats().swap_ops(),
            "clock {} vs exact {}",
            clock.stats().swap_ops(),
            exact.stats().swap_ops()
        );
    }
}
