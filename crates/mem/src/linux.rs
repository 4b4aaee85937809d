//! The baseline: an unconstrained, Linux-like memory manager.
//!
//! This is what Tables 3 and 4 compare Mosaic against. Any page may occupy
//! any frame (full associativity); reclaim is watermark-driven: when free
//! frames dip below the low watermark (0.8 % of memory, matching the
//! paper's observation that "the standard Linux allocator begins swapping
//! at about 99.2 % memory utilization"), the manager evicts pages in strict
//! LRU order until free memory recovers to the high watermark — the
//! batched, kswapd-style reclaim that evicts ahead of demand.
//!
//! The LRU is a [`FrameLru`]: an intrusive list over frame numbers, so a
//! hit re-links one node in O(1), and the victim's page comes from the
//! frame table. Everything else — residency, swap, eviction accounting,
//! quotas, faults — is the shared [`PagingCore`].

use crate::addr::{Asid, PageKey, Pfn};
use crate::error::{MosaicError, MosaicResult};
use crate::frame::FrameTable;
use crate::invariants;
use crate::layout::MemoryLayout;
use crate::lru::FrameLru;
use crate::paging::{Injectable, PagingCore, Policy};

/// Default low watermark: reclaim begins when free frames fall below
/// 0.8 % of memory (per-zone watermarks in stock Linux; §4.2).
pub const DEFAULT_LOW_WATERMARK_PERMILLE: usize = 8;

/// Default high watermark: reclaim stops once 1.2 % of memory is free.
pub const DEFAULT_HIGH_WATERMARK_PERMILLE: usize = 12;

/// How far down the LRU list quota-aware reclaim scans for a preferred
/// victim (over-quota or low-priority) before settling for the strict
/// LRU page. Bounds the per-eviction cost like kswapd's scan batches.
const QUOTA_SCAN_WINDOW: usize = 64;

/// Free frames and the watermarks that trigger batch reclaim: the
/// placement of both free-list baselines.
#[derive(Debug, Clone)]
pub(crate) struct FreeList {
    /// Free-frame stack.
    frames: Vec<Pfn>,
    low: usize,
    high: usize,
}

impl FreeList {
    /// Every one of `total` frames free, with the default (0.8 % / 1.2 %)
    /// watermarks.
    pub(crate) fn with_default_watermarks(total: usize) -> Self {
        let low = (total * DEFAULT_LOW_WATERMARK_PERMILLE / 1000).max(1);
        let high = (total * DEFAULT_HIGH_WATERMARK_PERMILLE / 1000).max(low + 1);
        Self::new(total, low, high)
    }

    /// # Panics
    ///
    /// Panics unless `0 < low < high <= total`.
    fn new(total: usize, low: usize, high: usize) -> Self {
        assert!(low > 0, "low watermark must be positive");
        assert!(low < high, "low watermark must be below high");
        assert!(high <= total, "high watermark exceeds memory");
        Self {
            frames: (0..total as u64).rev().map(Pfn).collect(),
            low,
            high,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.frames.len()
    }

    pub(crate) fn low(&self) -> usize {
        self.low
    }

    /// Whether free memory has dipped below the low watermark.
    pub(crate) fn reclaim_due(&self) -> bool {
        self.frames.len() < self.low
    }

    /// Whether batch reclaim has yet to restore the high watermark.
    pub(crate) fn below_high(&self) -> bool {
        self.frames.len() < self.high
    }

    pub(crate) fn push(&mut self, pfn: Pfn) {
        self.frames.push(pfn);
    }

    pub(crate) fn pop(&mut self) -> MosaicResult<Pfn> {
        self.frames.pop().ok_or(MosaicError::internal(
            "reclaim keeps the free list non-empty",
        ))
    }

    /// Frames are either free or occupied, with no overlap and none lost.
    pub(crate) fn verify(&self, frames: &FrameTable) -> MosaicResult<()> {
        invariants::check_free_list_accounting(frames.num_frames(), &self.frames, frames)
    }
}

/// Linux's placement and victim choice: any free frame, and exact global
/// LRU reclaim between the watermarks.
#[derive(Debug, Clone)]
pub struct WatermarkLru {
    free: FreeList,
    /// Exact LRU over the frames of resident pages.
    lru: FrameLru,
}

/// A fully-associative memory manager with watermark-triggered LRU reclaim.
///
/// # Example
///
/// ```
/// use mosaic_mem::prelude::*;
///
/// let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
/// let mut mm = LinuxMemory::new(layout);
/// let key = PageKey::new(Asid::new(1), Vpn::new(3));
/// assert_eq!(mm.access(key, AccessKind::Store, 1), AccessOutcome::MinorFault);
/// assert_eq!(mm.access(key, AccessKind::Load, 2), AccessOutcome::Hit);
/// ```
pub type LinuxMemory = PagingCore<WatermarkLru>;

impl LinuxMemory {
    /// Creates a manager with the default (stock-Linux-like) watermarks.
    pub fn new(layout: MemoryLayout) -> Self {
        let free = FreeList::with_default_watermarks(layout.num_frames());
        Self::with_free_list(layout, free)
    }

    /// Creates a manager with explicit watermarks, in frames.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < low < high <= total frames`.
    pub fn with_watermarks(layout: MemoryLayout, low: usize, high: usize) -> Self {
        let free = FreeList::new(layout.num_frames(), low, high);
        Self::with_free_list(layout, free)
    }

    fn with_free_list(layout: MemoryLayout, free: FreeList) -> Self {
        let lru = FrameLru::new(layout.num_frames());
        Self::from_parts(layout, WatermarkLru { free, lru })
    }

    /// Free frames right now.
    pub fn free_frames(&self) -> usize {
        self.policy.free.len()
    }

    /// The low (reclaim-trigger) watermark in frames.
    pub fn low_watermark(&self) -> usize {
        self.policy.free.low()
    }

    /// The frame of the next reclaim victim. Without quotas this is the
    /// strict LRU page. With quotas, a bounded scan from the LRU end
    /// prefers over-quota owners, then low priority, then age; when
    /// nothing in the window is distinguished, the oldest page wins —
    /// identical to the quota-less choice.
    fn reclaim_victim(&self) -> Option<Pfn> {
        let lru = &self.policy.lru;
        match self.quotas.as_ref() {
            None => lru.oldest(),
            Some(q) => lru
                .iter_oldest()
                .take(QUOTA_SCAN_WINDOW)
                .enumerate()
                .min_by_key(|&(idx, (pfn, _))| {
                    let class = self.frames.entry(pfn).map(|e| q.victim_class(e.key.asid));
                    (class, idx)
                })
                .map(|(_, (pfn, _))| pfn),
        }
    }

    fn evict_lru_page(&mut self) -> MosaicResult<()> {
        let victim = self
            .reclaim_victim()
            .ok_or(MosaicError::internal("reclaim with no resident pages"))?;
        if self.quotas.is_some() && self.policy.lru.oldest() != Some(victim) {
            self.note_quota_steered();
        }
        self.evict(victim, false)
    }

    /// Admission control for a tenant at its cap: evict its own LRU
    /// pages until it is back under quota, or — if it has nothing
    /// resident to self-serve with — defer the admission with typed
    /// backpressure and counted backoff.
    fn enforce_quota(&mut self, asid: Asid) -> MosaicResult<()> {
        while self.at_quota(asid) {
            let Some(victim) = self.quotas.as_ref().and_then(|q| q.own_lru_oldest(asid)) else {
                return Err(self.defer_quota(asid));
            };
            let pfn = self
                .resident
                .get(&victim)
                .copied()
                .ok_or(MosaicError::internal(
                    "quota LRU tracks only resident pages",
                ))?;
            self.evict_own(pfn)?;
        }
        Ok(())
    }

    /// kswapd-style reclaim: once free memory dips below the low watermark,
    /// evict LRU pages until it recovers to the high watermark. Degrades
    /// gracefully under injected I/O failure: reclaim stops early rather
    /// than aborting, as long as at least one frame is free for the
    /// current allocation.
    fn reclaim_if_needed(&mut self) -> MosaicResult<()> {
        if !self.policy.free.reclaim_due() {
            return Ok(());
        }
        while self.policy.free.below_high() && !self.policy.lru.is_empty() {
            if let Err(e) = self.evict_lru_page() {
                // Batched reclaim is opportunistic; only a fully-exhausted
                // free list makes the failure fatal for this access.
                if self.policy.free.len() == 0 {
                    return Err(e);
                }
                return Ok(());
            }
        }
        Ok(())
    }
}

impl Policy for WatermarkLru {
    #[inline]
    fn hit(mm: &mut LinuxMemory, _key: PageKey, pfn: Pfn, write: bool, now: u64) {
        mm.frames.touch(pfn, now, write);
        mm.policy.lru.touch(pfn, now);
    }

    #[inline]
    fn place(mm: &mut LinuxMemory, key: PageKey) -> MosaicResult<Pfn> {
        mm.enforce_quota(key.asid)?;
        mm.reclaim_if_needed()?;
        mm.policy.free.pop()
    }

    #[inline]
    fn unplace(&mut self, pfn: Pfn) {
        self.free.push(pfn);
    }

    #[inline]
    fn installed(mm: &mut LinuxMemory, _key: PageKey, pfn: Pfn, now: u64) {
        mm.policy.lru.touch(pfn, now);
    }

    #[inline]
    fn vacated(&mut self, pfn: Pfn, _key: PageKey) {
        self.lru.remove(pfn);
        self.free.push(pfn);
    }

    fn verify(mm: &LinuxMemory) -> MosaicResult<()> {
        invariants::check_lru_tracks_resident(&mm.policy.lru, &mm.resident)?;
        invariants::check_lru_order(&mm.policy.lru, &mm.frames, mm.resident.len())?;
        mm.policy.free.verify(&mm.frames)
    }
}

impl Injectable for WatermarkLru {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Vpn;
    use crate::manager::{AccessKind, AccessOutcome, MemoryManager};
    use mosaic_iceberg::IcebergConfig;

    fn key(n: u64) -> PageKey {
        PageKey::new(Asid(1), Vpn(n))
    }

    fn memory(buckets: usize) -> LinuxMemory {
        LinuxMemory::new(MemoryLayout::new(IcebergConfig::paper_default(buckets)))
    }

    #[test]
    fn fault_then_hit() {
        let mut mm = memory(8);
        assert_eq!(mm.access(key(9), AccessKind::Store, 1), AccessOutcome::MinorFault);
        assert_eq!(mm.access(key(9), AccessKind::Load, 2), AccessOutcome::Hit);
        assert_eq!(mm.stats().swap_ops(), 0);
    }

    #[test]
    fn no_swapping_until_low_watermark() {
        let mut mm = memory(16); // 1024 frames, low = 8
        let fill = mm.num_frames() - mm.low_watermark();
        for n in 0..fill as u64 {
            mm.access(key(n), AccessKind::Store, n + 1);
        }
        assert_eq!(mm.stats().evictions(), 0, "no reclaim above the watermark");
        let util = mm.utilization();
        assert!(util > 0.99, "utilization {util}");
    }

    #[test]
    fn reclaim_evicts_in_lru_order() {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8)); // 512 frames
        let mut mm = LinuxMemory::with_watermarks(layout, 4, 8);
        let total = mm.num_frames() as u64;
        let mut now = 0;
        for n in 0..total {
            now += 1;
            mm.access(key(n), AccessKind::Store, now);
        }
        // Re-touch the first 100 pages so they are MRU.
        for n in 0..100 {
            now += 1;
            mm.access(key(n), AccessKind::Load, now);
        }
        // Trigger reclaim with fresh pages; victims must not be the hot 100.
        for n in total..total + 20 {
            now += 1;
            mm.access(key(n), AccessKind::Store, now);
        }
        for n in 0..100 {
            assert!(mm.resident_pfn(key(n)).is_some(), "hot page {n} evicted");
        }
        assert!(mm.stats().evictions() > 0);
    }

    #[test]
    fn batch_reclaim_frees_to_high_watermark() {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
        let mut mm = LinuxMemory::with_watermarks(layout, 10, 30);
        let total = mm.num_frames() as u64;
        let mut now = 0;
        // Fill until reclaim triggers.
        for n in 0..(total - 8) {
            now += 1;
            mm.access(key(n), AccessKind::Store, now);
        }
        // free was 9 (< low = 10) before the last allocation; reclaim ran.
        assert!(mm.free_frames() >= 29, "free {} after batch", mm.free_frames());
        assert!(mm.stats().evictions() >= 20);
    }

    #[test]
    fn swap_in_after_eviction() {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
        let mut mm = LinuxMemory::with_watermarks(layout, 4, 8);
        let total = mm.num_frames() as u64;
        let mut now = 0;
        for n in 0..total + 50 {
            now += 1;
            mm.access(key(n), AccessKind::Store, now);
        }
        // Page 0 (written, LRU) must have been swapped out; re-access is a
        // major fault.
        assert!(mm.resident_pfn(key(0)).is_none());
        now += 1;
        assert_eq!(mm.access(key(0), AccessKind::Load, now), AccessOutcome::MajorFault);
        assert!(mm.stats().swapped_in >= 1);
    }

    #[test]
    fn clean_pages_drop_without_io() {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
        let mut mm = LinuxMemory::with_watermarks(layout, 4, 8);
        let total = mm.num_frames() as u64;
        for n in 0..total + 100 {
            mm.access(key(n), AccessKind::Load, n + 1);
        }
        assert!(mm.stats().evictions() > 0);
        assert_eq!(mm.stats().swapped_out, 0);
    }

    #[test]
    fn utilization_hovers_at_watermark_under_pressure() {
        let mut mm = memory(16); // 1024 frames, low 8 high 12
        let total = mm.num_frames() as u64;
        let mut now = 0;
        for round in 0..2 {
            for n in 0..total + 200 {
                now += 1;
                mm.access(key(n), AccessKind::Store, now);
            }
            let util = mm.utilization();
            assert!(
                (0.985..=1.0).contains(&util),
                "round {round}: utilization {util}"
            );
        }
    }

    #[test]
    fn release_asid_returns_frames_to_free_list() {
        let mut mm = memory(8);
        let mut now = 0;
        for n in 0..60u64 {
            now += 1;
            mm.access(PageKey::new(Asid(1), Vpn(n)), AccessKind::Store, now);
            now += 1;
            mm.access(PageKey::new(Asid(2), Vpn(n)), AccessKind::Store, now);
        }
        let free_before = mm.free_frames();
        let io_before = mm.stats().swap_ops();
        assert_eq!(mm.release_asid(Asid(2)), 60);
        assert_eq!(mm.free_frames(), free_before + 60);
        assert_eq!(mm.stats().swap_ops(), io_before, "exit reclaim is I/O-free");
        for n in 0..60u64 {
            assert!(mm.resident_pfn(PageKey::new(Asid(2), Vpn(n))).is_none());
            assert!(mm.resident_pfn(PageKey::new(Asid(1), Vpn(n))).is_some());
        }
        mm.verify().unwrap();
    }

    #[test]
    #[should_panic(expected = "low watermark must be below high")]
    fn bad_watermarks_panic() {
        LinuxMemory::with_watermarks(
            MemoryLayout::new(IcebergConfig::paper_default(8)),
            10,
            10,
        );
    }

    #[test]
    fn quota_caps_tenant_residency_and_self_evicts() {
        use crate::quota::TenantQuota;
        let mut mm = memory(8);
        mm.set_quota(Asid(1), TenantQuota { frames: 50, priority: 0 });
        let mut now = 0;
        // The victim's working set first, then a capped hog sweep.
        for n in 0..100u64 {
            now += 1;
            mm.access(PageKey::new(Asid(2), Vpn(n)), AccessKind::Store, now);
        }
        for n in 0..500u64 {
            now += 1;
            mm.access(PageKey::new(Asid(1), Vpn(n)), AccessKind::Store, now);
        }
        let hog_resident = (0..500u64)
            .filter(|&n| mm.resident_pfn(PageKey::new(Asid(1), Vpn(n))).is_some())
            .count();
        assert!(hog_resident <= 50, "hog at {hog_resident} against quota 50");
        assert!(mm.quota_stats().self_evictions > 0);
        for n in 0..100u64 {
            assert!(
                mm.resident_pfn(PageKey::new(Asid(2), Vpn(n))).is_some(),
                "victim page {n} displaced by a capped hog"
            );
        }
        mm.verify().unwrap();
    }

    #[test]
    fn zero_quota_defers_with_backpressure() {
        use crate::quota::TenantQuota;
        let mut mm = memory(8);
        mm.set_quota(Asid(3), TenantQuota { frames: 0, priority: 0 });
        let err = mm
            .try_access(PageKey::new(Asid(3), Vpn(0)), AccessKind::Store, 1)
            .unwrap_err();
        assert!(matches!(err, MosaicError::QuotaExceeded { .. }));
        assert!(err.is_transient());
        assert_eq!(mm.quota_stats().admissions_deferred, 1);
        // Other tenants proceed normally.
        assert_eq!(
            mm.access(PageKey::new(Asid(1), Vpn(0)), AccessKind::Store, 2),
            AccessOutcome::MinorFault
        );
        mm.verify().unwrap();
    }

    #[test]
    fn reclaim_prefers_over_quota_tenants_in_window() {
        use crate::quota::TenantQuota;
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8)); // 512
        let mut mm = LinuxMemory::with_watermarks(layout, 4, 8);
        let mut now = 0;
        // Tenant 2's single page is the strict LRU-oldest.
        now += 1;
        mm.access(PageKey::new(Asid(2), Vpn(0)), AccessKind::Store, now);
        // Tenant 1 fills 300 frames, then its quota drops to 10: over quota.
        for n in 0..300u64 {
            now += 1;
            mm.access(PageKey::new(Asid(1), Vpn(n)), AccessKind::Store, now);
        }
        mm.set_quota(Asid(1), TenantQuota { frames: 10, priority: 0 });
        // Tenant 3 (no quota) drives free below the watermark.
        for n in 0..210u64 {
            now += 1;
            mm.access(PageKey::new(Asid(3), Vpn(n)), AccessKind::Store, now);
        }
        assert!(mm.stats().evictions() > 0, "reclaim never triggered");
        assert!(
            mm.resident_pfn(PageKey::new(Asid(2), Vpn(0))).is_some(),
            "under-quota LRU page evicted ahead of over-quota pages"
        );
        assert!(mm.quota_stats().quota_evictions > 0);
        mm.verify().unwrap();
    }

    /// The naive exact-LRU reference for the reclaim oracle: resident
    /// pages in a `Vec` kept sorted by (timestamp, touch sequence), with
    /// the same watermark-driven batch reclaim.
    struct NaiveLru {
        total: usize,
        low: usize,
        high: usize,
        /// `(timestamp, sequence, key, dirty, has_swap_copy)`, oldest first.
        resident: Vec<(u64, u64, PageKey, bool, bool)>,
        swapped: std::collections::BTreeSet<PageKey>,
        seq: u64,
    }

    impl NaiveLru {
        fn link(&mut self, now: u64, key: PageKey, dirty: bool, swap_copy: bool) {
            self.seq += 1;
            let at = self
                .resident
                .partition_point(|&(ts, seq, ..)| (ts, seq) < (now, self.seq));
            self.resident.insert(at, (now, self.seq, key, dirty, swap_copy));
        }

        fn access(&mut self, key: PageKey, write: bool, now: u64) -> AccessOutcome {
            if let Some(i) = self.resident.iter().position(|e| e.2 == key) {
                let (_, _, _, dirty, swap_copy) = self.resident.remove(i);
                self.link(now, key, dirty || write, swap_copy && !write);
                return AccessOutcome::Hit;
            }
            if self.total - self.resident.len() < self.low {
                while self.total - self.resident.len() < self.high && !self.resident.is_empty() {
                    let (_, _, victim, dirty, swap_copy) = self.resident.remove(0);
                    if dirty || swap_copy {
                        self.swapped.insert(victim);
                    }
                }
            }
            let from_swap = self.swapped.remove(&key);
            self.link(now, key, write, from_swap && !write);
            if from_swap {
                AccessOutcome::MajorFault
            } else {
                AccessOutcome::MinorFault
            }
        }

        fn release_asid(&mut self, asid: Asid) -> u64 {
            let before = self.resident.len();
            self.resident.retain(|e| e.2.asid != asid);
            self.swapped.retain(|k| k.asid != asid);
            (before - self.resident.len()) as u64
        }
    }

    #[test]
    fn reclaim_matches_naive_exact_lru_oracle() {
        use mosaic_hash::SplitMix64;
        use std::collections::BTreeSet;
        let (low, high) = (8, 24);
        for seed in 1..=3u64 {
            let layout = MemoryLayout::new(IcebergConfig::paper_default(8)); // 512 frames
            let total = layout.num_frames();
            let mut mm = LinuxMemory::with_watermarks(layout, low, high);
            let mut oracle = NaiveLru {
                total,
                low,
                high,
                resident: Vec::new(),
                swapped: BTreeSet::new(),
                seq: 0,
            };
            let mut rng = SplitMix64::new(seed);
            let mut clock = 1_000u64;
            for step in 0..20_000u64 {
                if step == 10_000 {
                    assert_eq!(
                        mm.release_asid(Asid(2)),
                        oracle.release_asid(Asid(2)),
                        "seed {seed}: release_asid freed counts differ"
                    );
                }
                let r = rng.next_u64();
                let asid = Asid(1 + (r % 3) as u16);
                // A hot set of 64 pages per tenant and a cold tail of 400.
                let vpn = if (r >> 8).is_multiple_of(4) {
                    (r >> 16) % 400
                } else {
                    (r >> 16) % 64
                };
                let write = (r >> 40).is_multiple_of(3);
                // Mostly advancing, sometimes repeating or rewinding, time.
                clock = (clock + (r >> 48) % 4).saturating_sub(1);
                let key = PageKey::new(asid, Vpn(vpn));
                let kind = if write {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                };
                assert_eq!(
                    mm.access(key, kind, clock),
                    oracle.access(key, write, clock),
                    "seed {seed}, step {step}: outcome for {key}"
                );
            }
            mm.verify().unwrap();
            let resident: BTreeSet<PageKey> = mm.resident.keys().copied().collect();
            let expect: BTreeSet<PageKey> = oracle.resident.iter().map(|e| e.2).collect();
            assert_eq!(resident, expect, "seed {seed}: resident sets differ");
            let swapped: BTreeSet<PageKey> = mm.swapped.iter().copied().collect();
            assert_eq!(swapped, oracle.swapped, "seed {seed}: swapped sets differ");
            assert!(
                mm.stats().evictions() > 1_000,
                "seed {seed}: too little reclaim"
            );
        }
    }

    #[test]
    fn resident_count_conserved() {
        let mut mm = memory(8);
        let total = mm.num_frames() as u64;
        for n in 0..total * 2 {
            mm.access(key(n), AccessKind::Store, n + 1);
        }
        assert_eq!(
            mm.resident_frames() + mm.free_frames(),
            mm.num_frames(),
            "frames leaked"
        );
    }
}
