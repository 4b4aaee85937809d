//! The vanilla TLB: a conventional VPN → PFN cache, unified across 4 KiB
//! and 2 MiB pages (Table 1a).
//!
//! The kernel is mapped with huge pages in the paper's vanilla baseline —
//! the artifact that lets fully-associative vanilla edge out Mosaic-4 on
//! Graph500 (§4.1) — so the model supports both page sizes in one
//! structure, with the set index derived from each size's own page number.

use super::cache::{SetAssocCache, TlbConfig};
use super::obs::TlbObs;
use super::stats::TlbStats;
use mosaic_obs::ObsHandle;
use crate::arity::{huge_index, HUGE_PAGE_SPAN};
use mosaic_mem::{Asid, Pfn, Vpn};

/// Tag for a unified vanilla TLB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
struct VanillaTag {
    asid: Asid,
    /// Page number in units of the entry's own page size.
    page: u64,
    huge: bool,
}

/// Payload of a vanilla entry: the frame (or first frame, for huge pages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct VanillaEntry {
    pfn: Pfn,
}

/// Result of a vanilla TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VanillaLookup {
    /// Hit on a 4 KiB entry.
    HitBase(Pfn),
    /// Hit on a 2 MiB entry (the PFN of the accessed base page is derived).
    HitHuge(Pfn),
    /// Miss: the walker must be invoked and the entry filled.
    Miss,
}

impl VanillaLookup {
    /// Whether the lookup hit.
    pub fn is_hit(self) -> bool {
        !matches!(self, VanillaLookup::Miss)
    }
}

/// A conventional set-associative TLB.
///
/// # Example
///
/// ```
/// use mosaic_mmu::{Associativity, TlbConfig, VanillaTlb, VanillaLookup};
/// use mosaic_mem::{Asid, Pfn, Vpn};
///
/// let mut tlb = VanillaTlb::new(TlbConfig::new(64, Associativity::Ways(4)));
/// let asid = Asid::new(1);
/// assert_eq!(tlb.lookup(asid, Vpn::new(5)), VanillaLookup::Miss);
/// tlb.fill_base(asid, Vpn::new(5), Pfn::new(99));
/// assert_eq!(tlb.lookup(asid, Vpn::new(5)), VanillaLookup::HitBase(Pfn::new(99)));
/// ```
#[derive(Debug, Clone)]
pub struct VanillaTlb {
    cache: SetAssocCache<VanillaTag, VanillaEntry>,
    cfg: TlbConfig,
    stats: TlbStats,
    obs: TlbObs,
    /// `stats` as of the last [`VanillaTlb::publish_obs`].
    published: TlbStats,
}

impl VanillaTlb {
    /// Creates an empty vanilla TLB.
    pub fn new(cfg: TlbConfig) -> Self {
        Self {
            cache: SetAssocCache::new(cfg),
            cfg,
            stats: TlbStats::new(),
            obs: TlbObs::noop(),
            published: TlbStats::new(),
        }
    }

    /// Exports this TLB's counters as `tlb.<label>.*` on `obs`. A no-op
    /// when `obs` is disabled; simulation behavior is unchanged either
    /// way. Only movement after this call is exported, and only when
    /// [`VanillaTlb::publish_obs`] pushes it. (3C miss classification
    /// happens outside the TLB: see [`crate::tlb::ClassPass`].)
    pub fn set_obs(&mut self, obs: &ObsHandle, label: &str) {
        self.obs = TlbObs::register(obs, label);
        self.published = self.stats;
    }

    /// Publishes the counter movement since the last publish (or
    /// [`VanillaTlb::set_obs`]) in one [`TlbObs::flush_delta`]. Lookups
    /// and fills only count locally, so exported counters are current
    /// after this call and stale between calls.
    pub fn publish_obs(&mut self) {
        self.obs.flush_delta(&self.published, &self.stats);
        self.published = self.stats;
    }

    /// The TLB geometry.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    fn base_tag(asid: Asid, vpn: Vpn) -> VanillaTag {
        VanillaTag {
            asid,
            page: vpn.0,
            huge: false,
        }
    }

    fn huge_tag(asid: Asid, vpn: Vpn) -> VanillaTag {
        VanillaTag {
            asid,
            page: huge_index(vpn),
            huge: true,
        }
    }

    /// Looks up the translation for `(asid, vpn)`, counting hit/miss.
    ///
    /// Both page sizes are probed, base first (a real unified TLB probes
    /// ways of both sizes in parallel; probe order does not affect
    /// correctness because a page is mapped at one size at a time).
    pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> VanillaLookup {
        self.stats.accesses += 1;
        let result = 'probe: {
            let base = Self::base_tag(asid, vpn);
            if let Some(e) = self.cache.lookup(vpn.0 as usize, base) {
                break 'probe VanillaLookup::HitBase(e.pfn);
            }
            let huge = Self::huge_tag(asid, vpn);
            if let Some(e) = self.cache.lookup(huge.page as usize, huge) {
                // Derive the base frame within the huge mapping.
                break 'probe VanillaLookup::HitHuge(Pfn(e.pfn.0 + (vpn.0 & (HUGE_PAGE_SPAN - 1))));
            }
            VanillaLookup::Miss
        };
        if result.is_hit() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        result
    }

    /// Counts `n` further lookups of the translation just looked up or
    /// filled. Each repeats the lookup or fill before it, whose entry
    /// is then valid and most recently used in its set, so it hits and
    /// moves no LRU state: only `accesses` and `hits` advance. They are
    /// plain sums, so a caller that skipped many such repeats may count
    /// them all in one call.
    pub fn count_mru_hits(&mut self, n: u64) {
        self.stats.accesses += n;
        self.stats.hits += n;
    }

    /// Fills a 4 KiB entry after a walk.
    pub fn fill_base(&mut self, asid: Asid, vpn: Vpn, pfn: Pfn) {
        let evicted = self
            .cache
            .insert(vpn.0 as usize, Self::base_tag(asid, vpn), VanillaEntry { pfn });
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
    }

    /// Fills a 2 MiB entry covering `vpn`'s huge page; `first_pfn` is the
    /// frame of the huge page's first base page.
    pub fn fill_huge(&mut self, asid: Asid, vpn: Vpn, first_pfn: Pfn) {
        let tag = Self::huge_tag(asid, vpn);
        let evicted = self
            .cache
            .insert(tag.page as usize, tag, VanillaEntry { pfn: first_pfn });
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
    }

    /// Invalidates the 4 KiB entry for `(asid, vpn)`, if cached.
    pub fn invalidate(&mut self, asid: Asid, vpn: Vpn) {
        self.cache
            .invalidate(vpn.0 as usize, Self::base_tag(asid, vpn));
    }

    /// Drops every entry (full flush).
    pub fn flush(&mut self) {
        self.cache.flush();
    }

    /// Drops every entry belonging to `asid` (a context-switch shootdown
    /// on hardware without ASID-tagged retention), returning how many
    /// entries were invalidated so exit-time reclaim can be audited.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        let victims: Vec<(usize, VanillaTag)> = self
            .cache
            .iter()
            .filter(|(t, _)| t.asid == asid)
            .map(|(t, _)| (t.page as usize, *t))
            .collect();
        let invalidated = victims.len();
        for (set, tag) in victims {
            self.cache.invalidate(set, tag);
        }
        invalidated
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the TLB is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb::Associativity;

    fn tlb(entries: usize, assoc: Associativity) -> VanillaTlb {
        VanillaTlb::new(TlbConfig::new(entries, assoc))
    }

    const A: Asid = Asid(1);

    #[test]
    fn miss_fill_hit_cycle() {
        let mut t = tlb(16, Associativity::Ways(4));
        assert_eq!(t.lookup(A, Vpn(9)), VanillaLookup::Miss);
        t.fill_base(A, Vpn(9), Pfn(3));
        assert_eq!(t.lookup(A, Vpn(9)), VanillaLookup::HitBase(Pfn(3)));
        assert_eq!(t.stats().accesses, 2);
        assert_eq!(t.stats().misses, 1);
        assert_eq!(t.stats().hits, 1);
    }

    #[test]
    fn asids_do_not_alias() {
        let mut t = tlb(16, Associativity::Ways(4));
        t.fill_base(Asid(1), Vpn(9), Pfn(3));
        assert_eq!(t.lookup(Asid(2), Vpn(9)), VanillaLookup::Miss);
    }

    #[test]
    fn huge_entry_covers_512_pages() {
        let mut t = tlb(16, Associativity::Ways(4));
        t.fill_huge(A, Vpn(0), Pfn(1000));
        for vpn in [0u64, 1, 255, 511] {
            match t.lookup(A, Vpn(vpn)) {
                VanillaLookup::HitHuge(pfn) => assert_eq!(pfn, Pfn(1000 + vpn)),
                other => panic!("vpn {vpn}: expected huge hit, got {other:?}"),
            }
        }
        assert_eq!(t.lookup(A, Vpn(512)), VanillaLookup::Miss);
    }

    #[test]
    fn base_and_huge_coexist() {
        let mut t = tlb(64, Associativity::Ways(4));
        t.fill_huge(A, Vpn(0), Pfn(0));
        t.fill_base(A, Vpn(1024), Pfn(77));
        assert!(matches!(t.lookup(A, Vpn(100)), VanillaLookup::HitHuge(_)));
        assert_eq!(t.lookup(A, Vpn(1024)), VanillaLookup::HitBase(Pfn(77)));
    }

    #[test]
    fn capacity_miss_evicts_lru() {
        // Direct-mapped, 4 sets: vpns 0 and 4 collide in set 0.
        let mut t = tlb(4, Associativity::Ways(1));
        t.fill_base(A, Vpn(0), Pfn(0));
        t.fill_base(A, Vpn(4), Pfn(4));
        assert_eq!(t.lookup(A, Vpn(0)), VanillaLookup::Miss);
        assert_eq!(t.lookup(A, Vpn(4)), VanillaLookup::HitBase(Pfn(4)));
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn full_associativity_has_no_conflicts() {
        let mut t = tlb(8, Associativity::Full);
        for vpn in 0..8u64 {
            t.fill_base(A, Vpn(vpn * 8), Pfn(vpn)); // same low bits
        }
        for vpn in 0..8u64 {
            assert!(t.lookup(A, Vpn(vpn * 8)).is_hit(), "vpn {}", vpn * 8);
        }
        assert_eq!(t.stats().evictions, 0);
    }

    #[test]
    fn working_set_larger_than_tlb_thrashes() {
        let mut t = tlb(8, Associativity::Full);
        // 16-page cyclic working set over an 8-entry TLB with LRU: every
        // access misses (the classic LRU cycle pathology).
        let mut misses = 0;
        for round in 0..4 {
            for vpn in 0..16u64 {
                if t.lookup(A, Vpn(vpn)) == VanillaLookup::Miss {
                    misses += 1;
                    t.fill_base(A, Vpn(vpn), Pfn(vpn));
                }
            }
            if round == 0 {
                assert_eq!(misses, 16, "cold misses");
            }
        }
        assert_eq!(misses, 64, "LRU cycles on a >capacity loop");
    }

    #[test]
    fn invalidate_and_flush() {
        let mut t = tlb(16, Associativity::Ways(4));
        t.fill_base(A, Vpn(5), Pfn(5));
        t.invalidate(A, Vpn(5));
        assert_eq!(t.lookup(A, Vpn(5)), VanillaLookup::Miss);
        t.fill_base(A, Vpn(6), Pfn(6));
        t.flush();
        assert!(t.is_empty());
    }
}
