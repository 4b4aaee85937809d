//! The Mosaic memory manager: Iceberg frame allocation + Horizon LRU (§2.2–2.4).
//!
//! Allocation follows Figure 3 of the paper: a faulting page first tries a
//! free (or ghost) slot in its front-yard bucket, then the emptiest of its
//! `d` backyard buckets, where ghosts do not count toward occupancy. Only
//! when every one of its `h` candidate slots holds a *live* page does an
//! **associativity conflict** occur; Horizon LRU then evicts the
//! least-recently-used candidate and raises the global horizon to that
//! page's access time, ghosting every page a true global LRU would have
//! evicted by now. Residency, swap, eviction accounting, quotas and
//! faults are the shared [`PagingCore`].

use crate::addr::{Asid, PageKey, Pfn};
use crate::cpfn::{Cpfn, CpfnCodec};
use crate::error::{MosaicError, MosaicResult};
use crate::frame::{FrameEntry, Placement};
use crate::invariants;
use crate::layout::MemoryLayout;
use crate::lru::{FrameLru, ListId};
use crate::manager::MemoryManager;
use crate::paging::{Injectable, PagingCore, Policy};
use crate::policy::MosaicPolicy;
use crate::scanner::{AccessScanner, ScannerConfig};
use crate::shadow::ConcurrentShadow;
use mosaic_hash::XxFamily;
use mosaic_iceberg::CandidateSet;

/// Mosaic's placement and victim choice: Figure 3 over each page's
/// candidate slots, with Horizon LRU (or a §2.4 alternative) on conflict.
#[derive(Debug, Clone)]
pub struct IcebergHorizon {
    codec: CpfnCodec,
    family: XxFamily,
    /// The Horizon LRU high-water mark of evicted pages' access times.
    horizon: u64,
    eviction: MosaicPolicy,
    /// Global LRU over the frames of resident pages; present only under
    /// `ReservedCapacity`.
    global_lru: Option<FrameLru>,
    /// Live-page cap (equals `num_frames` except under `ReservedCapacity`).
    live_budget: usize,
    /// When present, timestamps come from the §3.2 scanning daemon rather
    /// than being exact.
    scanner: Option<AccessScanner>,
    /// Concurrent-allocator mirror of the residency map; `None` (the
    /// default) keeps every path byte-identical to the shadow-less manager.
    shadow: Option<ConcurrentShadow>,
}

/// The Mosaic memory system: constrained allocation with ghost-page
/// swapping.
///
/// # Example
///
/// ```
/// use mosaic_mem::prelude::*;
///
/// let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
/// let mut mm = MosaicMemory::new(layout, 7);
/// let key = PageKey::new(Asid::new(1), Vpn::new(42));
/// assert_eq!(mm.access(key, AccessKind::Load, 1), AccessOutcome::MinorFault);
/// assert_eq!(mm.access(key, AccessKind::Load, 2), AccessOutcome::Hit);
/// // The page's position compresses to a CPFN.
/// assert!(mm.cpfn_of(key).is_some());
/// ```
pub type MosaicMemory = PagingCore<IcebergHorizon>;

impl MosaicMemory {
    /// Creates a manager over `layout` with the paper's Horizon LRU
    /// policy, deriving its hash family from `seed`.
    pub fn new(layout: MemoryLayout, seed: u64) -> Self {
        Self::with_policy(layout, seed, MosaicPolicy::HorizonLru)
    }

    /// Creates a manager with an explicit eviction policy (§2.4 ablation).
    pub fn with_policy(layout: MemoryLayout, seed: u64, policy: MosaicPolicy) -> Self {
        let cfg = *layout.config();
        let num_frames = layout.num_frames();
        let placement = IcebergHorizon {
            codec: CpfnCodec::new(cfg),
            family: XxFamily::new(cfg.hash_count(), seed),
            horizon: 0,
            eviction: policy,
            global_lru: matches!(policy, MosaicPolicy::ReservedCapacity { .. })
                .then(|| FrameLru::new(num_frames, 1)),
            live_budget: policy.live_budget(num_frames),
            scanner: None,
            shadow: None,
        };
        Self::from_parts(layout, placement)
    }

    /// Attaches a [`ConcurrentShadow`]: from now on every residency-map
    /// mutation is mirrored into a lock-free
    /// [`ConcurrentIcebergTable`](mosaic_iceberg::ConcurrentIcebergTable),
    /// and [`verify`](crate::manager::MemoryManager::verify) cross-checks
    /// the mirror against the map. Pages already resident are seeded in.
    /// Purely observational: allocation decisions are unchanged, so all
    /// outputs stay byte-identical with the shadow on or off.
    pub fn enable_concurrent_shadow(&mut self) {
        let mut sh = ConcurrentShadow::new(self.layout().config(), self.policy.family);
        let mut seed: Vec<(PageKey, Pfn)> = self.resident_pages().collect();
        seed.sort_unstable_by_key(|&(k, _)| (k.hash_key(), k.asid.0, k.vpn.0));
        for (key, pfn) in seed {
            sh.note_install(key, pfn);
        }
        self.policy.shadow = Some(sh);
    }

    /// The concurrent-allocator mirror, if enabled.
    pub fn concurrent_shadow(&self) -> Option<&ConcurrentShadow> {
        self.policy.shadow.as_ref()
    }

    /// Creates a manager whose access timestamps are produced by the
    /// §3.2 scanning daemon (access bits + hot/cold sampling) instead of
    /// being exact — the fidelity the Linux prototype actually has.
    pub fn with_scanner(layout: MemoryLayout, seed: u64, cfg: ScannerConfig) -> Self {
        let mut mm = Self::new(layout, seed);
        mm.policy.scanner = Some(AccessScanner::new(
            mm.frames.num_frames(),
            cfg,
            seed ^ 0x5CAB,
        ));
        mm
    }

    /// The scanning daemon, if timestamps are scanner-driven.
    pub fn scanner(&self) -> Option<&AccessScanner> {
        self.policy.scanner.as_ref()
    }

    /// The eviction policy in force.
    pub fn policy(&self) -> MosaicPolicy {
        self.policy.eviction
    }

    /// The CPFN codec for this geometry.
    pub fn codec(&self) -> &CpfnCodec {
        &self.policy.codec
    }

    /// The current Horizon LRU horizon.
    pub fn horizon(&self) -> u64 {
        self.policy.horizon
    }

    /// Number of resident ghost pages (diagnostics).
    pub fn ghost_count(&self) -> usize {
        self.frames.ghost_count(self.policy.horizon)
    }

    /// The candidate set of a page.
    pub fn candidates(&self, key: PageKey) -> CandidateSet {
        CandidateSet::compute(&self.policy.family, self.layout().config(), key.hash_key())
    }

    /// The CPFN encoding of `key`'s current frame, if resident.
    ///
    /// This is the value a Mosaic page-table leaf (and hence a TLB ToC
    /// sub-entry) stores for the page.
    pub fn cpfn_of(&self, key: PageKey) -> Option<Cpfn> {
        let pfn = *self.resident.get(&key)?;
        let slot = self.layout().slot_of_pfn(pfn);
        let cands = self.candidates(key);
        Some(self.policy.codec.encode_slot(&cands, slot))
    }

    /// Gate at the top of every allocation: absorbs injected transient
    /// failures with bounded retries, classifying an exhausted budget as an
    /// associativity conflict when the page's candidate set is fully live.
    fn alloc_gate(&mut self, key: PageKey) -> MosaicResult<()> {
        let Some(max) = self.fault.as_ref().map(|i| i.plan().max_alloc_retries) else {
            return Ok(());
        };
        let mut attempts = 0u32;
        loop {
            let failed = self.fault.as_mut().is_some_and(|i| i.alloc_should_fail());
            if !failed {
                return Ok(());
            }
            self.resilience.alloc_faults_injected += 1;
            self.obs.record_fault_injected(self.obs_now, "alloc");
            if attempts >= max {
                self.resilience.alloc_failures += 1;
                self.obs
                    .record_fault_unrecovered(self.obs_now, "alloc", "budget-exhausted");
                // Every candidate slot live: Figure 3's conflict predicate.
                let cands = self.candidates(key);
                let placement = self.frames.figure3(&cands, self.policy.horizon);
                return Err(if matches!(placement, Placement::Conflict { .. }) {
                    MosaicError::AssociativityConflict {
                        mvpn: key.vpn.0,
                        load_pct: self.utilization() * 100.0,
                    }
                } else {
                    MosaicError::AllocationFailed { retries: max }
                });
            }
            attempts += 1;
            self.resilience.alloc_retries += 1;
            self.obs.record_fault_recovered(self.obs_now, "alloc", "retry");
        }
    }

    /// Models a single-event upset in the CPFN a TLB ToC entry caches for a
    /// hit: flips one bit of the true encoding, detects the corruption
    /// (the flipped value decodes to a different — or no — candidate slot,
    /// never to a frame owning `key`), and recovers by a page-table
    /// re-walk, which in this model is the resident map itself.
    fn maybe_corrupt_translation(&mut self, key: PageKey, pfn: Pfn) {
        let flipped = self.fault.as_mut().is_some_and(|i| i.toc_should_flip());
        if !flipped {
            return;
        }
        self.resilience.toc_flips_injected += 1;
        self.obs.record_fault_injected(self.obs_now, "toc");
        let cands = self.candidates(key);
        let slot = self.layout().slot_of_pfn(pfn);
        let codec = &self.policy.codec;
        let cpfn = codec.encode_slot(&cands, slot);
        let bits = codec.bits();
        let Some(corrupt) = self.fault.as_mut().map(|i| Cpfn(i.flip_bit(cpfn.0, bits))) else {
            return;
        };
        let detected = match self.policy.codec.try_decode_slot(&cands, corrupt) {
            // Not a valid encoding, or the unmapped sentinel: obviously bad.
            Err(_) | Ok(None) => true,
            // Decodes, but to a slot that does not hold this page. (A flip
            // in the choice field can alias the same physical slot when the
            // hash picked duplicate backyard buckets; such a flip is benign
            // and genuinely undetectable.)
            Ok(Some(s)) => self.frames.slot_entry(s).is_none_or(|e| e.key != key),
        };
        if detected {
            self.resilience.toc_rewalks += 1;
            self.obs.record_fault_recovered(self.obs_now, "toc", "rewalk");
        } else {
            self.obs
                .record_fault_unrecovered(self.obs_now, "toc", "benign-alias");
        }
    }

    /// Runs the scanning daemon when its interval has elapsed.
    #[inline]
    fn run_scanner_if_due(&mut self, now: u64) {
        if let Some(sc) = self.policy.scanner.as_mut() {
            if sc.due(now) {
                sc.scan(&mut self.frames, now);
            }
        }
    }

    /// Finds (or makes) a frame for `key` per the Iceberg + Horizon LRU
    /// policy, evicting if necessary. Fails only on injected faults that
    /// outlast their retry budget; no state is mutated past the point of
    /// failure, so the same fault may simply be re-taken later.
    fn allocate_frame(&mut self, key: PageKey) -> MosaicResult<Pfn> {
        self.alloc_gate(key)?;

        // Prior-work policy: hold live pages below (1 - δ)p by evicting
        // the *global* LRU page at capacity, so candidate slots are
        // (w.h.p.) never all full.
        if let Some(lru) = self.policy.global_lru.as_ref() {
            if self.frames.resident() >= self.policy.live_budget {
                let pfn = lru
                    .oldest(ListId::FIRST)
                    .ok_or(MosaicError::internal("resident pages are LRU-tracked"))?;
                self.evict(pfn, false)?;
            }
        }

        let cands = self.candidates(key);

        // A tenant at its working-set quota never displaces another
        // tenant's live page: it evicts its own LRU candidate, or takes
        // a free or ghost slot if it has a page the post-install trim can
        // give back, or defers with counted backoff. Self-evictions never
        // raise the horizon: the victim is chosen by ownership, not age,
        // so ghosting from it would over-approximate what a global LRU
        // would have evicted.
        let at_quota = self.at_quota(key.asid);
        if at_quota {
            // Another tenant's page ranks after all of this tenant's.
            let own = |e: &FrameEntry| (u8::from(e.key.asid != key.asid), e.last_access);
            if let Some(((0, _), pfn)) = self.frames.candidate_min(&cands, own) {
                self.evict_own(pfn)?;
                return Ok(pfn);
            }
            let has_own = self
                .quotas
                .as_ref()
                .is_some_and(|q| q.resident(key.asid) > 0);
            if !has_own {
                return Err(self.defer_quota(key.asid));
            }
        }

        // Steps 1–3 of Figure 3 take a free frame or a ghost's.
        let (lru, lru_ts) = match self.frames.figure3(&cands, self.policy.horizon) {
            Placement::Free(pfn) => return Ok(pfn),
            Placement::Ghost(pfn) => return self.evict(pfn, false).map(|()| pfn),
            Placement::Conflict { .. } if at_quota => return Err(self.defer_quota(key.asid)),
            Placement::Conflict { lru, ts } => (lru, ts),
        };

        // 4. Associativity conflict: every candidate slot is live. Fall
        // back to evicting the LRU candidate instead of aborting.
        self.stats.conflicts += 1;
        if self.stats.conflicts == 1 {
            self.util.record_first_conflict(self.utilization());
            let load_pct = self.utilization() * 100.0;
            self.obs.record_first_conflict(self.obs_now, load_pct);
        }
        // Quota-aware victim choice: over-quota owners first, then
        // ascending priority, then age, then slot order. Without a quota
        // table this *is* the LRU candidate, bit-for-bit.
        let steered = self.quotas.as_ref().and_then(|q| {
            let rank = |e: &FrameEntry| (q.victim_class(e.key.asid), e.last_access);
            let victim = self.frames.candidate_min(&cands, rank);
            victim.filter(|&(_, pfn)| pfn != lru)
        });
        if steered.is_some() {
            self.note_quota_steered();
        }
        let victim = steered.map_or(lru, |(_, pfn)| pfn);
        self.evict(victim, false)?;
        if self.policy.eviction.uses_ghosts() {
            // Raise the horizon to the candidate-set LRU's access time —
            // regardless of which victim quota ordering picked. A global
            // LRU would have evicted everything at least that old by
            // now, so the ghost census stays a sound (conservative)
            // under-approximation; see DESIGN.md §12.
            self.policy.horizon = self.policy.horizon.max(lru_ts);
        }
        Ok(victim)
    }

    /// Evicts `asid`'s own global-LRU pages until it is back within its
    /// quota (the rebalance after a capped tenant took a non-displacing
    /// slot). A failed write-back under injected I/O faults stops the
    /// trim — the tenant stays transiently over quota and the next fault
    /// resumes trimming.
    fn quota_trim(&mut self, asid: Asid) {
        while let Some(pfn) = self
            .quotas
            .as_ref()
            .filter(|q| q.over_quota(asid))
            .and_then(|q| q.own_lru_oldest(asid))
        {
            if self.evict_own(pfn).is_err() {
                return;
            }
        }
    }
}

impl Policy for IcebergHorizon {
    #[inline]
    fn horizon(&self) -> u64 {
        self.horizon
    }

    #[inline]
    fn hit(mm: &mut MosaicMemory, key: PageKey, pfn: Pfn, write: bool, now: u64) {
        match mm.policy.scanner.as_mut() {
            Some(sc) => {
                // Hardware sets the access bit; the daemon will
                // refresh the timestamp at its next scan.
                sc.mark(pfn);
                if write {
                    mm.frames.mark_dirty(pfn);
                }
            }
            None => mm.frames.touch(pfn, now, write),
        }
        if let Some(lru) = mm.policy.global_lru.as_mut() {
            lru.touch(ListId::FIRST, pfn, now);
        }
        mm.run_scanner_if_due(now);
        if mm.fault.is_some() {
            mm.maybe_corrupt_translation(key, pfn);
        }
    }

    #[inline]
    fn place(mm: &mut MosaicMemory, key: PageKey) -> MosaicResult<Pfn> {
        mm.allocate_frame(key)
    }

    #[inline]
    fn installed(mm: &mut MosaicMemory, key: PageKey, pfn: Pfn, now: u64) {
        let placement = &mut mm.policy;
        if let Some(sh) = placement.shadow.as_mut() {
            sh.note_install(key, pfn);
        }
        if let Some(sc) = placement.scanner.as_mut() {
            // Fault time is known to the OS exactly; history restarts.
            sc.reset(pfn);
            sc.mark(pfn);
        }
        if let Some(lru) = placement.global_lru.as_mut() {
            lru.touch(ListId::FIRST, pfn, now);
        }
        mm.run_scanner_if_due(now);
    }

    #[inline]
    fn faulted(mm: &mut MosaicMemory, key: PageKey) {
        // If a capped tenant took a non-displacing slot, rebalance by
        // evicting its own LRU pages back down to quota.
        mm.quota_trim(key.asid);
    }

    #[inline]
    fn vacated(&mut self, pfn: Pfn, key: PageKey) {
        if let Some(sh) = self.shadow.as_mut() {
            sh.note_remove(key);
        }
        if let Some(lru) = self.global_lru.as_mut() {
            lru.remove(ListId::FIRST, pfn);
        }
        if let Some(sc) = self.scanner.as_mut() {
            sc.reset(pfn);
        }
    }

    fn verify(mm: &MosaicMemory) -> MosaicResult<()> {
        invariants::check_ghost_census(&mm.frames, mm.policy.horizon)?;
        if let Some(lru) = mm.policy.global_lru.as_ref() {
            invariants::check_lru_tracks_resident(lru, &mm.resident)?;
            invariants::check_lru_order(lru, ListId::FIRST, &mm.frames, mm.resident.len())?;
        }
        if let Some(sh) = mm.policy.shadow.as_ref() {
            sh.verify_against(&mm.resident)?;
        }
        // Placement: every resident page sits inside its candidate set,
        // so every CPFN stays decodable.
        let cfg = *mm.layout().config();
        for (pfn, entry) in mm.frames.iter_resident() {
            let slot = mm.layout().slot_of_pfn(pfn);
            if mm.candidates(entry.key).index_of_slot(&cfg, slot).is_none() {
                return Err(MosaicError::invariant(
                    "candidate-placement",
                    format!("{:?} at {pfn:?} is outside its candidate set", entry.key),
                ));
            }
        }
        Ok(())
    }
}

impl Injectable for IcebergHorizon {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{AccessKind, AccessOutcome};
    use crate::addr::{Asid, Vpn};
    use mosaic_iceberg::IcebergConfig;

    fn key(n: u64) -> PageKey {
        PageKey::new(Asid(1), Vpn(n))
    }

    fn memory(buckets: usize) -> MosaicMemory {
        MosaicMemory::new(MemoryLayout::new(IcebergConfig::paper_default(buckets)), 11)
    }

    #[test]
    fn first_touch_is_minor_fault_then_hit() {
        let mut mm = memory(8);
        assert_eq!(mm.access(key(1), AccessKind::Load, 1), AccessOutcome::MinorFault);
        assert_eq!(mm.access(key(1), AccessKind::Load, 2), AccessOutcome::Hit);
        assert_eq!(mm.stats().minor_faults, 1);
        assert_eq!(mm.stats().swap_ops(), 0);
    }

    #[test]
    fn pages_land_in_their_candidate_set() {
        let mut mm = memory(16);
        for n in 0..800 {
            mm.access(key(n), AccessKind::Store, n + 1);
        }
        let cfg = *mm.layout().config();
        for n in 0..800 {
            let pfn = mm.resident_pfn(key(n)).expect("resident");
            let slot = mm.layout().slot_of_pfn(pfn);
            let cands = mm.candidates(key(n));
            assert!(
                cands.index_of_slot(&cfg, slot).is_some(),
                "page {n} placed outside its candidate set"
            );
        }
    }

    #[test]
    fn cpfn_round_trips_to_frame() {
        let mut mm = memory(16);
        for n in 0..500 {
            mm.access(key(n), AccessKind::Store, n + 1);
        }
        for n in 0..500 {
            let cpfn = mm.cpfn_of(key(n)).unwrap();
            let cands = mm.candidates(key(n));
            let slot = mm.codec().decode_slot(&cands, cpfn).unwrap();
            assert_eq!(
                mm.layout().pfn_of_slot(slot),
                mm.resident_pfn(key(n)).unwrap(),
                "CPFN decodes to the wrong frame for page {n}"
            );
        }
    }

    #[test]
    fn no_conflicts_below_95_percent() {
        let mut mm = memory(32); // 2048 frames
        let frames = mm.num_frames();
        let fill = frames * 95 / 100;
        for n in 0..fill as u64 {
            mm.access(key(n), AccessKind::Store, n + 1);
        }
        assert_eq!(mm.stats().conflicts, 0, "conflict below 95% utilization");
        assert_eq!(mm.stats().swap_ops(), 0);
    }

    #[test]
    fn first_conflict_utilization_is_high() {
        let mut mm = memory(64); // 4096 frames
        let mut now = 0;
        // Touch pages until the first conflict.
        let mut n = 0u64;
        while mm.stats().conflicts == 0 {
            now += 1;
            mm.access(key(n), AccessKind::Store, now);
            n += 1;
            assert!(n < 2 * mm.num_frames() as u64, "never conflicted");
        }
        let at_conflict = mm.utilization_tracker().first_conflict().unwrap();
        assert!(
            at_conflict > 0.95,
            "first conflict at {:.2}% utilization",
            at_conflict * 100.0
        );
    }

    #[test]
    fn overcommit_swaps_and_stays_consistent() {
        let mut mm = memory(16); // 1024 frames
        let frames = mm.num_frames() as u64;
        let footprint = frames + frames / 4; // 125 % of memory
        let mut now = 0;
        for round in 0..3 {
            for n in 0..footprint {
                now += 1;
                mm.access(key(n), AccessKind::Store, now);
            }
            // Residency never exceeds capacity.
            assert!(mm.resident_frames() <= mm.num_frames(), "round {round}");
        }
        assert!(mm.stats().swapped_out > 0, "overcommit must swap");
        assert!(mm.stats().major_faults > 0);
        // Conservation: every major fault re-read a page that was evicted.
        assert_eq!(mm.stats().swapped_in, mm.stats().major_faults);
    }

    #[test]
    fn ghost_reaccess_costs_no_io() {
        // Force a conflict so a horizon exists, then re-access a ghost.
        let mut mm = memory(16);
        let frames = mm.num_frames() as u64;
        let mut now = 0;
        for n in 0..frames + 64 {
            now += 1;
            mm.access(key(n), AccessKind::Store, now);
        }
        assert!(mm.horizon() > 0, "conflicts should have raised the horizon");
        // Find a resident ghost and re-access it.
        let ghost_key = (0..frames + 64)
            .map(key)
            .find(|&k| {
                mm.resident_pfn(k)
                    .and_then(|pfn| mm.frames.entry(pfn))
                    .is_some_and(|e| e.is_ghost(mm.horizon()))
            })
            .expect("some ghost is resident");
        let before = mm.stats().swap_ops();
        let outcome = mm.access(ghost_key, AccessKind::Load, now + 1);
        assert_eq!(outcome, AccessOutcome::GhostHit);
        assert_eq!(mm.stats().swap_ops(), before, "ghost hit must be free");
        // The page is live again.
        let pfn = mm.resident_pfn(ghost_key).unwrap();
        assert!(!mm.frames.entry(pfn).unwrap().is_ghost(mm.horizon()));
    }

    #[test]
    fn clean_page_eviction_skips_writeback() {
        let mut mm = memory(8);
        let frames = mm.num_frames() as u64;
        let mut now = 0;
        // Read-only touch of 130% of memory: evictions of never-written
        // pages must not produce swap-out I/O.
        for n in 0..frames * 13 / 10 {
            now += 1;
            mm.access(key(n), AccessKind::Load, now);
        }
        assert!(mm.stats().evictions() > 0);
        assert_eq!(mm.stats().swapped_out, 0, "clean pages never write back");
        // And their re-access is a minor fault (zero-fill), not swap-in.
        assert_eq!(mm.stats().swapped_in, 0);
    }

    #[test]
    fn dirty_then_clean_swap_cycle() {
        let mut mm = memory(8);
        let frames = mm.num_frames() as u64;
        let mut now = 0;
        // Write everything once (dirty), then cycle reads over an
        // overcommitted footprint.
        let footprint = frames + 200;
        for n in 0..footprint {
            now += 1;
            mm.access(key(n), AccessKind::Store, now);
        }
        let outs_after_writes = mm.stats().swapped_out;
        for _ in 0..2 {
            for n in 0..footprint {
                now += 1;
                mm.access(key(n), AccessKind::Load, now);
            }
        }
        // Read-only cycling re-faults pages from swap; once clean copies
        // exist, further evictions of those pages are free drops.
        assert!(mm.stats().clean_drops > 0, "expected clean drops");
        assert!(mm.stats().swapped_in >= mm.stats().swapped_out - outs_after_writes);
    }

    #[test]
    fn horizon_is_monotone() {
        let mut mm = memory(8);
        let mut last = 0;
        let mut now = 0;
        for n in 0..(mm.num_frames() as u64 * 3 / 2) {
            now += 1;
            mm.access(key(n), AccessKind::Store, now);
            assert!(mm.horizon() >= last, "horizon went backwards");
            last = mm.horizon();
        }
    }

    #[test]
    fn release_frees_frame_and_swap_copy_without_io() {
        let mut mm = memory(8);
        let frames = mm.num_frames() as u64;
        let mut now = 0;
        // Overcommit so some pages land on swap.
        for n in 0..frames + 100 {
            now += 1;
            mm.access(key(n), AccessKind::Store, now);
        }
        let io_before = mm.stats().swap_ops();
        let resident_before = mm.resident_frames();
        // Release one resident page and one swapped-out page.
        let resident_key = (0..frames + 100)
            .map(key)
            .find(|&k| mm.resident_pfn(k).is_some())
            .unwrap();
        let swapped_key = (0..frames + 100)
            .map(key)
            .find(|&k| mm.resident_pfn(k).is_none())
            .unwrap();
        assert!(mm.release(resident_key));
        assert!(!mm.release(swapped_key), "no frame to free for a swapped page");
        assert_eq!(mm.resident_frames(), resident_before - 1);
        assert_eq!(mm.stats().swap_ops(), io_before, "release must not do I/O");
        // The released pages revert to untouched: next access zero-fills.
        now += 1;
        assert_eq!(mm.access(resident_key, AccessKind::Load, now), AccessOutcome::MinorFault);
        now += 1;
        assert_eq!(mm.access(swapped_key, AccessKind::Load, now), AccessOutcome::MinorFault);
        mm.verify().unwrap();
    }

    #[test]
    fn release_asid_reclaims_only_that_asid() {
        let mut mm = memory(8);
        let mut now = 0;
        for n in 0..100u64 {
            now += 1;
            mm.access(PageKey::new(Asid(1), Vpn(n)), AccessKind::Store, now);
            now += 1;
            mm.access(PageKey::new(Asid(2), Vpn(n)), AccessKind::Store, now);
        }
        let freed = mm.release_asid(Asid(1));
        assert_eq!(freed, 100);
        assert_eq!(mm.resident_frames(), 100);
        for n in 0..100u64 {
            assert!(mm.resident_pfn(PageKey::new(Asid(1), Vpn(n))).is_none());
            assert!(mm.resident_pfn(PageKey::new(Asid(2), Vpn(n))).is_some());
        }
        assert_eq!(mm.release_asid(Asid(7)), 0, "unknown asid frees nothing");
        mm.verify().unwrap();
    }

    #[test]
    fn utilization_sampling_feeds_tracker() {
        let mut mm = memory(8);
        mm.access(key(0), AccessKind::Load, 1);
        mm.sample_utilization();
        let mean = mm.utilization_tracker().steady_state_mean().unwrap();
        assert!((mean - 1.0 / mm.num_frames() as f64).abs() < 1e-12);
    }
}

#[cfg(test)]
mod quota_tests {
    use super::*;
    use crate::manager::{AccessKind, AccessOutcome};
    use crate::addr::{Asid, Vpn};
    use crate::quota::TenantQuota;
    use mosaic_iceberg::IcebergConfig;

    fn k(asid: u16, vpn: u64) -> PageKey {
        PageKey::new(Asid(asid), Vpn(vpn))
    }

    fn memory(buckets: usize) -> MosaicMemory {
        MosaicMemory::new(MemoryLayout::new(IcebergConfig::paper_default(buckets)), 3)
    }

    fn tenant_resident(mm: &MosaicMemory, asid: u16) -> usize {
        mm.resident_pages()
            .filter(|(key, _)| key.asid == Asid(asid))
            .count()
    }

    #[test]
    fn quota_caps_tenant_residency() {
        let mut mm = memory(8);
        mm.set_quota(Asid(1), TenantQuota { frames: 32, priority: 0 });
        let mut now = 0;
        for vpn in 0..200 {
            now += 1;
            mm.access(k(1, vpn), AccessKind::Store, now);
            let count = tenant_resident(&mm, 1);
            assert!(count <= 32, "tenant at {count} frames against quota 32");
        }
        assert!(mm.quota_stats().self_evictions > 0);
        mm.verify().unwrap();
    }

    #[test]
    fn capped_hog_never_touches_victim_pages() {
        let mut mm = memory(8);
        let mut now = 0;
        // The victim's working set, established first (oldest timestamps).
        for vpn in 0..50 {
            now += 1;
            mm.access(k(2, vpn), AccessKind::Store, now);
        }
        // A capped hog sweeping far past its quota.
        mm.set_quota(Asid(1), TenantQuota { frames: 64, priority: 0 });
        for vpn in 0..1000 {
            now += 1;
            mm.access(k(1, vpn), AccessKind::Store, now);
        }
        for vpn in 0..50 {
            assert!(
                mm.resident_pfn(k(2, vpn)).is_some(),
                "victim page {vpn} displaced by a capped hog"
            );
        }
        assert!(tenant_resident(&mm, 1) <= 64);
        mm.verify().unwrap();
    }

    #[test]
    fn zero_quota_defers_with_exponential_backpressure() {
        let mut mm = memory(8);
        mm.set_quota(Asid(1), TenantQuota { frames: 0, priority: 0 });
        let err = mm.try_access(k(1, 0), AccessKind::Store, 1).unwrap_err();
        assert!(matches!(err, MosaicError::QuotaExceeded { .. }));
        assert!(err.is_transient(), "backpressure must be retryable");
        let _ = mm.try_access(k(1, 0), AccessKind::Store, 2).unwrap_err();
        let st = mm.quota_stats();
        assert_eq!(st.admissions_deferred, 2);
        assert_eq!(st.backoff_ticks, 1 + 2, "exponential in the streak");
        // Other tenants are unaffected by the deferrals.
        assert_eq!(
            mm.access(k(2, 0), AccessKind::Store, 3),
            AccessOutcome::MinorFault
        );
        mm.verify().unwrap();
    }

    #[test]
    fn late_quota_seeds_from_resident_pages() {
        let mut mm = memory(8);
        let mut now = 0;
        for vpn in 0..40 {
            now += 1;
            mm.access(k(1, vpn), AccessKind::Store, now);
        }
        mm.set_quota(Asid(1), TenantQuota { frames: 48, priority: 2 });
        mm.verify().unwrap(); // census: table count == recount, LRU covers
        // The cap binds going forward.
        for vpn in 40..200 {
            now += 1;
            mm.access(k(1, vpn), AccessKind::Store, now);
            assert!(tenant_resident(&mm, 1) <= 48);
        }
        mm.verify().unwrap();
    }

    #[test]
    fn release_asid_clears_quota_state() {
        let mut mm = memory(8);
        mm.set_quota(Asid(1), TenantQuota { frames: 16, priority: 0 });
        let mut now = 0;
        for vpn in 0..30 {
            now += 1;
            mm.access(k(1, vpn), AccessKind::Store, now);
        }
        mm.release_asid(Asid(1));
        // The quota died with the tenant: a respawned ASID is uncapped.
        for vpn in 0..64 {
            now += 1;
            mm.access(k(1, vpn), AccessKind::Store, now);
        }
        assert_eq!(tenant_resident(&mm, 1), 64);
        mm.verify().unwrap();
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::manager::AccessKind;
    use crate::addr::{Asid, Vpn};
    use mosaic_iceberg::IcebergConfig;

    fn key(n: u64) -> PageKey {
        PageKey::new(Asid(1), Vpn(n))
    }

    fn memory_with(policy: MosaicPolicy) -> MosaicMemory {
        MosaicMemory::with_policy(
            MemoryLayout::new(IcebergConfig::paper_default(16)),
            11,
            policy,
        )
    }

    fn overcommit(mm: &mut MosaicMemory, passes: u64) {
        let footprint = mm.num_frames() as u64 * 6 / 5;
        let mut now = 0;
        for _ in 0..passes {
            for n in 0..footprint {
                now += 1;
                mm.access(key(n), AccessKind::Store, now);
            }
        }
    }

    #[test]
    fn candidate_lru_never_creates_ghosts() {
        let mut mm = memory_with(MosaicPolicy::CandidateLru);
        overcommit(&mut mm, 2);
        assert_eq!(mm.horizon(), 0, "no horizon without ghosts");
        assert_eq!(mm.ghost_count(), 0);
        assert_eq!(mm.stats().ghost_evictions, 0);
        assert!(mm.stats().live_evictions > 0);
    }

    #[test]
    fn reserved_capacity_caps_live_pages() {
        let mut mm = memory_with(MosaicPolicy::reserved_default());
        let budget = MosaicPolicy::reserved_default().live_budget(mm.num_frames());
        overcommit(&mut mm, 2);
        assert!(
            mm.resident_frames() <= budget,
            "resident {} exceeds budget {budget}",
            mm.resident_frames()
        );
        // The reserved fraction is wasted: utilization stays below 1 - δ.
        assert!(mm.utilization() <= budget as f64 / mm.num_frames() as f64 + 1e-9);
    }

    #[test]
    fn reserved_capacity_suppresses_conflicts() {
        // The point of the prior-work scheme: capacity evictions keep
        // candidate sets from filling with live pages. The paper's δ = 2%
        // is calibrated for GiB-scale memories; this 1024-frame test pool
        // needs a larger reserve for the same effect, and the suppression
        // must strengthen monotonically with the reserve.
        let conflicts_at = |permille| {
            let mut mm = memory_with(MosaicPolicy::ReservedCapacity {
                reserve_permille: permille,
            });
            overcommit(&mut mm, 3);
            (mm.stats().conflicts, mm.stats().evictions())
        };
        let (c20, _) = conflicts_at(20);
        let (c80, e80) = conflicts_at(80);
        // Versus the naive policy, where *every* eviction is a conflict.
        let mut naive = memory_with(MosaicPolicy::CandidateLru);
        overcommit(&mut naive, 3);
        assert!(c20 < naive.stats().conflicts, "reserve must beat naive");
        assert!(c80 < c20 / 2, "bigger reserve, fewer conflicts");
        assert!(c80 * 10 < e80, "8% reserve: conflicts are rare");
    }

    #[test]
    fn horizon_lru_swaps_no_more_than_candidate_lru() {
        // Ghosts can only help: a ghost hit avoids a swap-in that the
        // naive policy must pay.
        let mk = |policy| {
            let mut mm = memory_with(policy);
            overcommit(&mut mm, 3);
            mm.stats().swap_ops()
        };
        let horizon = mk(MosaicPolicy::HorizonLru);
        let naive = mk(MosaicPolicy::CandidateLru);
        assert!(
            horizon <= naive + naive / 10,
            "horizon {horizon} vs naive {naive}"
        );
    }

    #[test]
    fn all_policies_preserve_candidate_placement() {
        for policy in [
            MosaicPolicy::HorizonLru,
            MosaicPolicy::CandidateLru,
            MosaicPolicy::reserved_default(),
        ] {
            let mut mm = memory_with(policy);
            overcommit(&mut mm, 1);
            mm.verify()
                .unwrap_or_else(|e| panic!("{policy}: {e}"));
            let cfg = *mm.layout().config();
            for n in 0..mm.num_frames() as u64 / 2 {
                if let Some(pfn) = mm.resident_pfn(key(n)) {
                    let slot = mm.layout().slot_of_pfn(pfn);
                    assert!(
                        mm.candidates(key(n)).index_of_slot(&cfg, slot).is_some(),
                        "{policy}: page outside candidate set"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod scanner_mode_tests {
    use super::*;
    use crate::manager::AccessKind;
    use crate::addr::{Asid, Vpn};
    use crate::scanner::ScannerConfig;
    use mosaic_iceberg::IcebergConfig;

    fn key(n: u64) -> PageKey {
        PageKey::new(Asid(1), Vpn(n))
    }

    fn overcommit(mm: &mut MosaicMemory, passes: u64) -> u64 {
        let footprint = mm.num_frames() as u64 * 5 / 4;
        let mut now = 0;
        for _ in 0..passes {
            for n in 0..footprint {
                now += 1;
                mm.access(key(n), AccessKind::Store, now);
            }
        }
        now
    }

    #[test]
    fn scanner_mode_actually_scans() {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
        let mut mm = MosaicMemory::with_scanner(
            layout,
            5,
            ScannerConfig {
                interval: 1_000,
                ..Default::default()
            },
        );
        overcommit(&mut mm, 2);
        let st = mm.scanner().unwrap().stats();
        assert!(st.scans > 0, "daemon never ran");
        assert!(st.bits_cleared > 0);
    }

    #[test]
    fn hits_do_not_refresh_timestamps_between_scans() {
        // With the daemon effectively disabled (huge interval), a second
        // pass of pure hits leaves install-time timestamps in place —
        // the bit is set, but only a scan would convert it to a time.
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
        let mut mm = MosaicMemory::with_scanner(
            layout,
            5,
            ScannerConfig {
                interval: u64::MAX / 2,
                ..Default::default()
            },
        );
        let frames = mm.num_frames() as u64;
        let mut now = 0;
        // Fill half of memory (no evictions), then re-touch everything.
        for n in 0..frames / 2 {
            now += 1;
            mm.access(key(n), AccessKind::Store, now);
        }
        let first_pass_end = now;
        for n in 0..frames / 2 {
            now += 1;
            mm.access(key(n), AccessKind::Load, now);
        }
        let refreshed = mm
            .frames
            .iter_resident()
            .filter(|(_, e)| e.last_access > first_pass_end)
            .count();
        assert_eq!(refreshed, 0, "hits must not carry exact timestamps");
    }

    #[test]
    fn scanned_swapping_close_to_exact() {
        // The paper's sampling daemon must not wreck Horizon LRU: swap
        // I/O within 2x of the exact-timestamp run on a scan workload.
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
        let mut exact = MosaicMemory::new(layout, 5);
        let mut scanned = MosaicMemory::with_scanner(
            layout,
            5,
            ScannerConfig {
                interval: 2_000,
                ..Default::default()
            },
        );
        overcommit(&mut exact, 3);
        overcommit(&mut scanned, 3);
        let (e, s) = (exact.stats().swap_ops(), scanned.stats().swap_ops());
        assert!(s > 0 && e > 0);
        assert!(s < e * 2, "scanned {s} vs exact {e}");
    }

    #[test]
    fn ghost_hits_still_free_under_scanner() {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
        let mut mm = MosaicMemory::with_scanner(layout, 7, ScannerConfig::default());
        overcommit(&mut mm, 2);
        let before = mm.stats().swap_ops();
        // Re-touch a resident page; never I/O regardless of ghost status.
        if let Some(k) = (0..mm.num_frames() as u64).map(key).find(|&k| mm.resident_pfn(k).is_some()) {
            mm.access(k, AccessKind::Load, u64::MAX / 2);
            assert_eq!(mm.stats().swap_ops(), before);
        }
    }

    #[test]
    fn attribution_charges_cold_displacement_and_shootdown() {
        use mosaic_obs::{AttribCategory, ObsHandle};
        let obs = ObsHandle::enabled();
        obs.set_attrib(true);
        let mut mm =
            MosaicMemory::new(MemoryLayout::new(IcebergConfig::paper_default(8)), 11);
        mm.set_obs(&obs, "mosaic");
        // Two tenants overcommit the machine: every first touch is a cold
        // fault, and overflow evictions are blamed on whichever tenant's
        // fault forced them.
        let frames = mm.layout().num_frames() as u64;
        let mut now = 0;
        for n in 0..frames {
            for asid in [1u16, 2u16] {
                now += 1;
                mm.access(PageKey::new(Asid(asid), Vpn(n)), AccessKind::Store, now);
            }
        }
        let table = obs.attrib_table("mosaic.faults");
        assert_eq!(
            table.category_total(AttribCategory::Cold),
            mm.stats().minor_faults,
            "every demand-zero fault is charged as cold"
        );
        let displaced = table.category_total(AttribCategory::CapacityEvict)
            + table.category_total(AttribCategory::CrossTenant);
        assert_eq!(
            displaced,
            mm.stats().live_evictions + mm.stats().ghost_evictions,
            "every eviction is charged to exactly one displacement cell"
        );
        assert!(
            table.category_total(AttribCategory::CrossTenant) > 0,
            "interleaved tenants displace each other"
        );
        let freed = mm.release_asid(Asid(2));
        assert!(freed > 0);
        let table = obs.attrib_table("mosaic.faults");
        assert_eq!(table.category_total(AttribCategory::Shootdown), freed);
    }
}
