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
use crate::layout::MemoryLayout;
use crate::linux::FreeList;
use crate::paging::{PagingCore, Policy};
use std::collections::VecDeque;

/// Per-frame reclaim state of the page it holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PageLru {
    referenced: bool,
    active: bool,
}

/// The clock's placement and victim choice: any free frame, and
/// second-chance reclaim over the active and inactive lists between the
/// watermarks.
#[derive(Debug, Clone)]
pub struct TwoListClock {
    free: FreeList,
    /// Reclaim state of each frame's page.
    state: Vec<PageLru>,
    active: VecDeque<Pfn>,
    inactive: VecDeque<Pfn>,
}

impl TwoListClock {
    /// Demotes unreferenced active pages until the inactive list holds at
    /// least as many pages as the active list (Linux's balancing goal).
    fn refill_inactive(&mut self) {
        let mut scans = self.active.len();
        while self.inactive.len() < self.active.len() && scans > 0 {
            scans -= 1;
            let Some(pfn) = self.active.pop_front() else {
                break;
            };
            let state = &mut self.state[pfn.0 as usize];
            if state.referenced {
                // Second chance: clear and rotate to the active tail.
                state.referenced = false;
                self.active.push_back(pfn);
            } else {
                state.active = false;
                self.inactive.push_back(pfn);
            }
        }
    }
}

/// A two-list (active/inactive) clock-style memory manager.
///
/// Faulted-in pages enter the inactive list; a reference while inactive
/// marks the page, and reclaim promotes marked pages to the active list
/// instead of evicting them (one second chance). When the inactive list
/// runs low, the active list is scanned and unreferenced pages are
/// demoted. Reclaim triggers at the same 0.8 % free watermark as the
/// exact-LRU baseline. It takes no fault injector, and its reclaim
/// ignores quotas: [`set_quota`](crate::manager::MemoryManager::set_quota)
/// only makes the shared core count each tenant's pages.
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
pub type ClockMemory = PagingCore<TwoListClock>;

impl ClockMemory {
    /// Creates a manager with the default (0.8 % / 1.2 %) watermarks.
    pub fn new(layout: MemoryLayout) -> Self {
        let total = layout.num_frames();
        let policy = TwoListClock {
            free: FreeList::with_default_watermarks(total),
            state: vec![PageLru::default(); total],
            active: VecDeque::new(),
            inactive: VecDeque::new(),
        };
        Self::from_parts(layout, policy)
    }

    /// Free frames right now.
    pub fn free_frames(&self) -> usize {
        self.policy.free.len()
    }

    /// Length of the active list (diagnostics).
    pub fn active_len(&self) -> usize {
        self.policy.active.len()
    }

    /// Length of the inactive list (diagnostics).
    pub fn inactive_len(&self) -> usize {
        self.policy.inactive.len()
    }

    /// kswapd-style shrink: evict from the inactive list (with one second
    /// chance) until free memory recovers to the high watermark.
    fn reclaim_if_needed(&mut self) -> MosaicResult<()> {
        if !self.policy.free.reclaim_due() {
            return Ok(());
        }
        while self.policy.free.below_high() {
            let clock = &mut self.policy;
            if clock.inactive.is_empty() {
                clock.refill_inactive();
            }
            let victim = match clock.inactive.front().copied() {
                Some(pfn) if clock.state[pfn.0 as usize].referenced => {
                    // Referenced while inactive: promote instead of evicting.
                    clock.inactive.pop_front();
                    clock.state[pfn.0 as usize] = PageLru {
                        referenced: false,
                        active: true,
                    };
                    clock.active.push_back(pfn);
                    continue;
                }
                Some(pfn) => pfn,
                // Everything is active and referenced: force-demote.
                None => match clock.active.front() {
                    Some(&pfn) => pfn,
                    None => break,
                },
            };
            self.evict(victim, false)?;
        }
        Ok(())
    }
}

impl Policy for TwoListClock {
    #[inline]
    fn hit(mm: &mut ClockMemory, _key: PageKey, pfn: Pfn, write: bool, now: u64) {
        mm.frames.touch(pfn, now, write);
        // Hardware sets the referenced bit; no list movement on access.
        mm.policy.state[pfn.0 as usize].referenced = true;
    }

    #[inline]
    fn place(mm: &mut ClockMemory, _key: PageKey) -> MosaicResult<Pfn> {
        mm.reclaim_if_needed()?;
        mm.policy.free.pop()
    }

    #[inline]
    fn unplace(&mut self, pfn: Pfn) {
        self.free.push(pfn);
    }

    #[inline]
    fn installed(mm: &mut ClockMemory, _key: PageKey, pfn: Pfn, _now: u64) {
        mm.policy.state[pfn.0 as usize] = PageLru::default();
        mm.policy.inactive.push_back(pfn);
    }

    #[inline]
    fn vacated(&mut self, pfn: Pfn, _key: PageKey) {
        // Reclaim evicts the head of a list, found at once; a release
        // may search the whole list.
        let list = if self.state[pfn.0 as usize].active {
            &mut self.active
        } else {
            &mut self.inactive
        };
        if let Some(at) = list.iter().position(|&p| p == pfn) {
            list.remove(at);
        }
        self.free.push(pfn);
    }

    fn verify(mm: &ClockMemory) -> MosaicResult<()> {
        let clock = &mm.policy;
        clock.free.verify(&mm.frames)?;
        // The two lists together cover every resident page exactly once.
        if clock.active.len() + clock.inactive.len() != mm.resident.len() {
            return Err(MosaicError::invariant(
                "clock-list-coverage",
                format!(
                    "{} active + {} inactive != {} resident",
                    clock.active.len(),
                    clock.inactive.len(),
                    mm.resident.len()
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
    use crate::manager::{AccessKind, AccessOutcome, MemoryManager};
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
        let fill = mm.num_frames() - mm.policy.free.low() - 1;
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
