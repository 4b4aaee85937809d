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
//! frame table.

use crate::addr::{PageKey, Pfn};
use crate::error::{MosaicError, MosaicResult};
use crate::fault::{FaultInjector, FaultPlan};
use crate::frame::{FrameEntry, FrameTable};
use crate::invariants;
use crate::layout::MemoryLayout;
use crate::lru::FrameLru;
use crate::manager::{AccessKind, AccessOutcome, MemoryManager};
use crate::obs::MemObs;
use crate::quota::{QuotaStats, QuotaTable, TenantQuota};
use crate::stats::{PagingStats, ResilienceStats, UtilizationTracker};
use mosaic_hash::{FastHashBuilder, FastHashMap, FastHashSet};
use mosaic_obs::ObsHandle;

/// Default low watermark: reclaim begins when free frames fall below
/// 0.8 % of memory (per-zone watermarks in stock Linux; §4.2).
pub const DEFAULT_LOW_WATERMARK_PERMILLE: usize = 8;

/// Default high watermark: reclaim stops once 1.2 % of memory is free.
pub const DEFAULT_HIGH_WATERMARK_PERMILLE: usize = 12;

/// How far down the LRU list quota-aware reclaim scans for a preferred
/// victim (over-quota or low-priority) before settling for the strict
/// LRU page. Bounds the per-eviction cost like kswapd's scan batches.
const QUOTA_SCAN_WINDOW: usize = 64;

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
#[derive(Debug, Clone)]
pub struct LinuxMemory {
    frames: FrameTable,
    /// Free-frame stack.
    free: Vec<Pfn>,
    /// Exact LRU over the frames of resident pages.
    lru: FrameLru,
    /// Residency map, sized for every frame when the manager is built
    /// (like `lru`), so it never rehashes mid-run.
    resident: FastHashMap<PageKey, Pfn>,
    swapped: FastHashSet<PageKey>,
    low_watermark: usize,
    high_watermark: usize,
    /// Per-tenant working-set quotas; `None` keeps every path
    /// byte-identical to the quota-less manager.
    quotas: Option<QuotaTable>,
    /// When present, injects deterministic swap I/O (and allocation)
    /// faults, mirroring the Mosaic manager's robustness harness.
    fault: Option<FaultInjector>,
    resilience: ResilienceStats,
    stats: PagingStats,
    /// Resident hits, which [`PagingStats`] does not count: published
    /// as `<prefix>.hits`.
    hits: u64,
    util: UtilizationTracker,
    obs: MemObs,
    /// Reference count of the in-flight access, for event timestamps.
    obs_now: u64,
    /// ASID of the in-flight access, for blaming reclaim on the tenant
    /// whose fault forced it.
    obs_requester: u16,
}

impl LinuxMemory {
    /// Creates a manager with the default (stock-Linux-like) watermarks.
    pub fn new(layout: MemoryLayout) -> Self {
        let total = layout.num_frames();
        let low = (total * DEFAULT_LOW_WATERMARK_PERMILLE / 1000).max(1);
        let high = (total * DEFAULT_HIGH_WATERMARK_PERMILLE / 1000).max(low + 1);
        Self::with_watermarks(layout, low, high)
    }

    /// Creates a manager with explicit watermarks, in frames.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < low < high <= total frames`.
    pub fn with_watermarks(layout: MemoryLayout, low: usize, high: usize) -> Self {
        let total = layout.num_frames();
        assert!(low > 0, "low watermark must be positive");
        assert!(low < high, "low watermark must be below high");
        assert!(high <= total, "high watermark exceeds memory");
        Self {
            free: (0..total as u64).rev().map(Pfn).collect(),
            frames: FrameTable::new(layout),
            lru: FrameLru::new(total),
            resident: FastHashMap::with_capacity_and_hasher(total, FastHashBuilder),
            swapped: FastHashSet::default(),
            low_watermark: low,
            high_watermark: high,
            quotas: None,
            fault: None,
            resilience: ResilienceStats::new(),
            stats: PagingStats::new(),
            hits: 0,
            util: UtilizationTracker::new(),
            obs: MemObs::noop(),
            obs_now: 0,
            obs_requester: 0,
        }
    }

    /// Attaches a deterministic fault injector executing `plan`, seeded by
    /// `seed`. With [`FaultPlan::NONE`] this is behaviorally identical to
    /// not attaching one.
    pub fn with_fault_injector(mut self, plan: FaultPlan, seed: u64) -> Self {
        self.fault = Some(FaultInjector::new(plan, seed));
        self
    }

    /// The fault injector, if one is attached.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// The memory layout.
    pub fn layout(&self) -> &MemoryLayout {
        self.frames.layout()
    }

    /// Free frames right now.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// The low (reclaim-trigger) watermark in frames.
    pub fn low_watermark(&self) -> usize {
        self.low_watermark
    }

    /// Forgets page `key` entirely: frees its frame (if resident) and
    /// drops any swap copy, with no swap I/O and no eviction accounting
    /// (process-exit reclaim, not displacement). Returns whether a frame
    /// was actually freed.
    pub fn release(&mut self, key: PageKey) -> bool {
        self.swapped.remove(&key);
        let Some(pfn) = self.resident.remove(&key) else {
            return false;
        };
        self.lru.remove(pfn);
        if let Some(q) = self.quotas.as_mut() {
            q.note_evict(key);
        }
        let entry = self.frames.evict(pfn);
        debug_assert_eq!(entry.key, key);
        self.free.push(pfn);
        true
    }

    /// One (simulated) swap-device transfer, absorbing injected errors
    /// with bounded retries and counted exponential backoff.
    fn swap_io(&mut self, write: bool) -> MosaicResult<()> {
        let Some(max) = self.fault.as_ref().map(|i| i.plan().max_io_retries) else {
            return Ok(());
        };
        let mut retries = 0u32;
        loop {
            let failed = self.fault.as_mut().is_some_and(|i| i.io_should_fail());
            if !failed {
                return Ok(());
            }
            self.resilience.io_faults_injected += 1;
            self.obs.record_fault_injected(self.obs_now, "io");
            if retries >= max {
                self.resilience.io_failures += 1;
                self.obs
                    .record_fault_unrecovered(self.obs_now, "io", "budget-exhausted");
                return Err(MosaicError::SwapIoFailed { retries, write });
            }
            retries += 1;
            self.resilience.io_retries += 1;
            self.resilience.io_backoff_ticks += 1u64 << retries.min(16);
            self.obs.record_fault_recovered(self.obs_now, "io", "retry");
        }
    }

    /// Evicts the page in frame `pfn` with full displacement accounting
    /// (write-back first, so an I/O error leaves it resident and the
    /// reclaim retryable). `quota_self` marks quota-forced self-evictions
    /// for the fault-attribution table.
    fn evict_page(&mut self, pfn: Pfn, quota_self: bool) -> MosaicResult<()> {
        let needs_writeback = self
            .frames
            .entry(pfn)
            .ok_or(MosaicError::internal("LRU tracks only occupied frames"))?
            .eviction_needs_writeback();
        if needs_writeback {
            self.swap_io(true)?;
        }
        let entry = self.frames.evict(pfn);
        let victim = entry.key;
        self.lru.remove(pfn);
        self.resident.remove(&victim);
        if let Some(q) = self.quotas.as_mut() {
            q.note_evict(victim);
        }
        self.obs
            .attrib_evicted(self.obs_requester, victim.asid.0, quota_self);
        self.stats.live_evictions += 1;
        if entry.eviction_needs_writeback() {
            self.stats.swapped_out += 1;
            self.swapped.insert(victim);
        } else {
            self.stats.clean_drops += 1;
            if entry.has_swap_copy {
                self.swapped.insert(victim);
            }
        }
        self.free.push(pfn);
        Ok(())
    }

    /// The frame of the next reclaim victim. Without quotas this is the
    /// strict LRU page. With quotas, a bounded scan from the LRU end
    /// prefers over-quota owners, then low priority, then age; when
    /// nothing in the window is distinguished, the oldest page wins —
    /// identical to the quota-less choice.
    fn reclaim_victim(&self) -> Option<Pfn> {
        match self.quotas.as_ref() {
            None => self.lru.oldest(),
            Some(q) => self
                .lru
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
        let was_quota_steered = self.quotas.is_some() && self.lru.oldest() != Some(victim);
        if was_quota_steered {
            if let Some(q) = self.quotas.as_mut() {
                q.note_quota_eviction();
            }
            self.obs.quota_evictions.inc();
        }
        self.evict_page(victim, false)
    }

    /// Admission control for a tenant at its cap: evict its own LRU
    /// pages until it is back under quota, or — if it has nothing
    /// resident to self-serve with — defer the admission with typed
    /// backpressure and counted backoff.
    fn enforce_quota(&mut self, key: PageKey) -> MosaicResult<()> {
        while self
            .quotas
            .as_ref()
            .is_some_and(|q| q.at_capacity(key.asid))
        {
            let own = self
                .quotas
                .as_ref()
                .and_then(|q| q.own_lru_oldest(key.asid));
            match own {
                Some(victim) => {
                    let pfn = self
                        .resident
                        .get(&victim)
                        .copied()
                        .ok_or(MosaicError::internal("quota LRU tracks only resident pages"))?;
                    self.evict_page(pfn, true)?;
                    if let Some(q) = self.quotas.as_mut() {
                        q.note_self_eviction();
                    }
                    self.obs.quota_self_evictions.inc();
                }
                None => {
                    let (resident, quota) = self
                        .quotas
                        .as_ref()
                        .map(|q| {
                            (
                                q.resident(key.asid) as u64,
                                q.quota(key.asid).map_or(0, |t| t.frames as u64),
                            )
                        })
                        .unwrap_or((0, 0));
                    let ticks = self
                        .quotas
                        .as_mut()
                        .map_or(0, |q| q.note_deferred(key.asid));
                    self.obs
                        .record_quota_deferred(self.obs_now, key.asid.0, ticks);
                    return Err(MosaicError::QuotaExceeded {
                        asid: key.asid.0,
                        resident,
                        quota,
                    });
                }
            }
        }
        Ok(())
    }

    /// kswapd-style reclaim: once free memory dips below the low watermark,
    /// evict LRU pages until it recovers to the high watermark. Degrades
    /// gracefully under injected I/O failure: reclaim stops early rather
    /// than aborting, as long as at least one frame is free for the
    /// current allocation.
    fn reclaim_if_needed(&mut self) -> MosaicResult<()> {
        if self.free.len() >= self.low_watermark {
            return Ok(());
        }
        while self.free.len() < self.high_watermark && !self.lru.is_empty() {
            if let Err(e) = self.evict_lru_page() {
                // Batched reclaim is opportunistic; only a fully-exhausted
                // free list makes the failure fatal for this access.
                if self.free.is_empty() {
                    return Err(e);
                }
                return Ok(());
            }
        }
        Ok(())
    }
}

impl MemoryManager for LinuxMemory {
    fn try_access(
        &mut self,
        key: PageKey,
        kind: AccessKind,
        now: u64,
    ) -> MosaicResult<AccessOutcome> {
        self.stats.accesses += 1;
        self.obs_now = now;
        self.obs_requester = key.asid.0;

        if let Some(&pfn) = self.resident.get(&key) {
            self.frames.touch(pfn, now, kind.is_write());
            self.lru.touch(pfn, now);
            if let Some(q) = self.quotas.as_mut() {
                q.note_touch(key, now);
            }
            self.hits += 1;
            return Ok(AccessOutcome::Hit);
        }

        if self
            .quotas
            .as_ref()
            .is_some_and(|q| q.at_capacity(key.asid))
        {
            self.enforce_quota(key)?;
        }
        self.reclaim_if_needed()?;
        let pfn = self
            .free
            .pop()
            .ok_or(MosaicError::internal(
                "reclaim keeps the free list non-empty",
            ))?;
        let from_swap = self.swapped.contains(&key);
        if from_swap {
            // The swap-in read; a persistent failure returns the frame to
            // the free list and leaves the page on swap, retryable.
            if let Err(e) = self.swap_io(false) {
                self.free.push(pfn);
                return Err(e);
            }
            self.swapped.remove(&key);
        }
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
        self.lru.touch(pfn, now);
        if let Some(q) = self.quotas.as_mut() {
            q.note_install(key, now);
        }
        Ok(if from_swap {
            self.stats.major_faults += 1;
            self.stats.swapped_in += 1;
            AccessOutcome::MajorFault
        } else {
            self.stats.minor_faults += 1;
            self.obs.attrib_cold(key.asid.0);
            AccessOutcome::MinorFault
        })
    }

    fn resident_pfn(&self, key: PageKey) -> Option<Pfn> {
        self.resident.get(&key).copied()
    }

    fn release_asid(&mut self, asid: crate::addr::Asid) -> u64 {
        let mut keys: Vec<PageKey> = self
            .resident
            .keys()
            .chain(self.swapped.iter())
            .filter(|k| k.asid == asid)
            .copied()
            .collect();
        // Freed frames return to the free stack in key order, so the
        // placement of later allocations is independent of hash-map
        // iteration order (byte-identical replays need this). The key
        // itself breaks any hash_key tie — the packing is injective so
        // ties cannot happen today, but determinism must not hinge on
        // that side fact.
        keys.sort_unstable_by_key(|k| (k.hash_key(), k.asid.0, k.vpn.0));
        let mut freed = 0;
        for key in keys {
            if self.release(key) {
                freed += 1;
            }
        }
        if let Some(q) = self.quotas.as_mut() {
            q.remove_tenant(asid);
        }
        self.obs.attrib_shootdown(asid.0, freed);
        freed
    }

    fn set_quota(&mut self, asid: crate::addr::Asid, quota: TenantQuota) {
        let table = self.quotas.get_or_insert_with(QuotaTable::new);
        table.set(asid, quota);
        if table.resident(asid) == 0 {
            // Seed the table from pages resident before the quota existed,
            // in a deterministic (timestamp, key) order so replays agree.
            let mut seed: Vec<(u64, PageKey)> = self
                .resident
                .iter()
                .filter(|(k, _)| k.asid == asid)
                .filter_map(|(&k, &pfn)| {
                    self.frames.entry(pfn).map(|e| (e.last_access, k))
                })
                .collect();
            seed.sort_unstable_by_key(|&(ts, k)| (ts, k.hash_key()));
            if let Some(table) = self.quotas.as_mut() {
                for (ts, k) in seed {
                    table.note_install(k, ts);
                }
            }
        }
    }

    fn quota_stats(&self) -> QuotaStats {
        self.quotas.as_ref().map_or(QuotaStats::ZERO, |q| q.stats())
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

    fn resilience(&self) -> &ResilienceStats {
        &self.resilience
    }

    fn set_obs(&mut self, obs: &ObsHandle, prefix: &str) {
        self.obs = MemObs::register(obs, prefix);
        self.obs.mark_published(&self.stats, self.hits, 0);
    }

    fn publish_obs(&self) {
        self.obs.publish_counts(&self.stats, self.hits, 0);
        self.obs.util.set(self.utilization());
        if let Some(inj) = self.fault.as_ref() {
            self.obs
                .io_burst_remaining
                .set(f64::from(inj.burst_remaining()));
            self.obs
                .retry_budget_spent
                .set(self.resilience.retries() as f64);
            self.obs
                .io_backoff_ticks
                .set(self.resilience.io_backoff_ticks as f64);
        }
    }

    fn verify(&self) -> MosaicResult<()> {
        invariants::check_frame_bijection(&self.frames, &self.resident)?;
        invariants::check_swap_disjoint(&self.resident, &self.swapped)?;
        invariants::check_lru_tracks_resident(&self.lru, &self.resident)?;
        invariants::check_lru_order(&self.lru, &self.frames, self.resident.len())?;
        if let Some(q) = self.quotas.as_ref() {
            invariants::check_quota_accounting(q, &self.resident)?;
        }
        invariants::check_free_list_accounting(self.num_frames(), &self.free, &self.frames)
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
