//! A coalescing TLB (CoLT-style): the contiguity-dependent comparator of
//! §5.2.
//!
//! CoLT (Pham et al., MICRO '12) packs up to `W` translations into one
//! entry when the pages are both virtually *and physically* contiguous:
//! an entry anchored at an aligned virtual window holds a base PFN and a
//! validity bitmap, and covers sub-page `j` iff `pfn(vpn_base + j) ==
//! base_pfn + j`. Its reach therefore *depends on residual physical
//! contiguity* — exactly the property Mosaic abandons. The fragmentation
//! experiment (`mosaic-bench --bin fragmentation`) runs this design
//! against Mosaic as allocator contiguity decays.

use super::cache::{SetAssocCache, TlbConfig};
use super::stats::TlbStats;
use mosaic_mem::{Asid, Pfn, Vpn};

/// Tag for a coalesced entry: the aligned virtual window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
struct ColtTag {
    asid: Asid,
    window: u64,
}

/// One coalesced entry: a base PFN plus per-sub-page validity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ColtEntry {
    /// PFN of the window's first page *if it were mapped contiguously*
    /// (sub-page `j` translates to `base_pfn + j` when its bit is set).
    base_pfn: Pfn,
    /// Validity bitmap over the window.
    valid: u32,
}

/// Result of a coalescing-TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColtLookup {
    /// Translation served from a coalesced entry.
    Hit(Pfn),
    /// Miss: walk and call [`CoalescedTlb::fill`].
    Miss,
}

impl ColtLookup {
    /// Whether the lookup hit.
    pub fn is_hit(self) -> bool {
        matches!(self, ColtLookup::Hit(_))
    }
}

/// A set-associative coalescing TLB with window size `W` (up to 32).
///
/// # Example
///
/// ```
/// use mosaic_mmu::tlb::{Associativity, CoalescedTlb, ColtLookup, TlbConfig};
/// use mosaic_mem::{Asid, Pfn, Vpn};
///
/// let mut tlb = CoalescedTlb::new(TlbConfig::new(64, Associativity::Ways(4)), 4);
/// let asid = Asid::new(1);
/// // Four contiguous translations coalesce into one entry.
/// tlb.fill(asid, Vpn::new(0), Pfn::new(100), &[Some(Pfn::new(100)), Some(Pfn::new(101)), Some(Pfn::new(102)), Some(Pfn::new(103))]);
/// assert_eq!(tlb.lookup(asid, Vpn::new(3)), ColtLookup::Hit(Pfn::new(103)));
/// assert_eq!(tlb.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct CoalescedTlb {
    cache: SetAssocCache<ColtTag, ColtEntry>,
    cfg: TlbConfig,
    window: usize,
    stats: TlbStats,
    /// Sub-translations currently packed beyond one per entry (reach won).
    coalesced_fills: u64,
}

impl CoalescedTlb {
    /// Creates a coalescing TLB with the given window size.
    ///
    /// # Panics
    ///
    /// Panics unless `window` is a power of two in `2..=32`.
    pub fn new(cfg: TlbConfig, window: usize) -> Self {
        assert!(
            window.is_power_of_two() && (2..=32).contains(&window),
            "window must be a power of two in 2..=32, got {window}"
        );
        Self {
            cache: SetAssocCache::new(cfg),
            cfg,
            window,
            stats: TlbStats::new(),
            coalesced_fills: 0,
        }
    }

    /// The TLB geometry.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// The coalescing window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Sub-translations packed beyond the anchor across all fills — the
    /// "free" reach physical contiguity provided.
    pub fn coalesced_fills(&self) -> u64 {
        self.coalesced_fills
    }

    fn tag(&self, asid: Asid, vpn: Vpn) -> (ColtTag, usize) {
        let w = self.window as u64;
        (
            ColtTag {
                asid,
                window: vpn.0 / w,
            },
            (vpn.0 % w) as usize,
        )
    }

    /// Looks up `(asid, vpn)`, counting hit/miss.
    pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> ColtLookup {
        self.stats.accesses += 1;
        let (tag, offset) = self.tag(asid, vpn);
        if let Some(e) = self.cache.lookup(tag.window as usize, tag) {
            if e.valid & (1 << offset) != 0 {
                let pfn = Pfn(e.base_pfn.0 + offset as u64);
                self.stats.hits += 1;
                return ColtLookup::Hit(pfn);
            }
        }
        self.stats.misses += 1;
        ColtLookup::Miss
    }

    /// Fills after a walk of `vpn` (which resolved to `pfn`), coalescing
    /// opportunistically: `neighbors[j]` is the PFN mapped at
    /// `window_base + j` (or `None` if unmapped), which the walker reads
    /// for free because the window's PTEs share cache lines.
    ///
    /// Sub-page `j` is packed iff `neighbors[j] == base_pfn + j`, where
    /// `base_pfn = pfn - offset` — the contiguity test.
    ///
    /// # Panics
    ///
    /// Panics if `neighbors.len() != window` or if the anchor's own
    /// neighbor entry disagrees with `pfn`.
    pub fn fill(&mut self, asid: Asid, vpn: Vpn, pfn: Pfn, neighbors: &[Option<Pfn>]) {
        assert_eq!(neighbors.len(), self.window, "neighbor slice width");
        let (tag, offset) = self.tag(asid, vpn);
        assert_eq!(
            neighbors[offset],
            Some(pfn),
            "anchor translation inconsistent with its neighbor slot"
        );
        // The hypothetical contiguous base. Sub-page j coalesces iff its
        // actual PFN equals base + j.
        let base = pfn.0.wrapping_sub(offset as u64);
        let mut valid = 0u32;
        let mut packed = 0;
        for (j, n) in neighbors.iter().enumerate() {
            if *n == Some(Pfn(base.wrapping_add(j as u64))) {
                valid |= 1 << j;
                packed += 1;
            }
        }
        debug_assert!(valid & (1 << offset) != 0);
        self.coalesced_fills += packed - 1; // beyond the anchor itself
        // Replace any stale entry for this window.
        self.cache.invalidate(tag.window as usize, tag);
        if self
            .cache
            .insert(
                tag.window as usize,
                tag,
                ColtEntry {
                    base_pfn: Pfn(base),
                    valid,
                },
            )
            .is_some()
        {
            self.stats.evictions += 1;
        }
    }

    /// Invalidates the entry covering `vpn`, if any.
    pub fn invalidate(&mut self, asid: Asid, vpn: Vpn) {
        let (tag, _) = self.tag(asid, vpn);
        self.cache.invalidate(tag.window as usize, tag);
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// Whether the TLB is empty.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Mean packed translations per resident entry (reach multiplier).
    pub fn mean_pack(&self) -> f64 {
        if self.cache.is_empty() {
            return 0.0;
        }
        let packed: u32 = self.cache.iter().map(|(_, e)| e.valid.count_ones()).sum();
        f64::from(packed) / self.cache.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlb::Associativity;

    const A: Asid = Asid(1);

    fn tlb(entries: usize) -> CoalescedTlb {
        CoalescedTlb::new(TlbConfig::new(entries, Associativity::Full), 4)
    }

    fn contiguous(base: u64) -> Vec<Option<Pfn>> {
        (0..4).map(|j| Some(Pfn(base + j))).collect()
    }

    #[test]
    fn contiguous_window_coalesces_fully() {
        let mut t = tlb(8);
        assert_eq!(t.lookup(A, Vpn(0)), ColtLookup::Miss);
        t.fill(A, Vpn(0), Pfn(100), &contiguous(100));
        for j in 0..4u64 {
            assert_eq!(t.lookup(A, Vpn(j)), ColtLookup::Hit(Pfn(100 + j)), "vpn {j}");
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.coalesced_fills(), 3);
        assert!((t.mean_pack() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn fragmented_window_covers_only_matching_pages() {
        let mut t = tlb(8);
        // vpn 0 -> 100, vpn 1 -> 101 contiguous; vpn 2 -> 500 breaks the run;
        // vpn 3 -> 103 happens to line up again.
        let neighbors = vec![Some(Pfn(100)), Some(Pfn(101)), Some(Pfn(500)), Some(Pfn(103))];
        t.fill(A, Vpn(0), Pfn(100), &neighbors);
        assert!(t.lookup(A, Vpn(0)).is_hit());
        assert!(t.lookup(A, Vpn(1)).is_hit());
        assert_eq!(t.lookup(A, Vpn(2)), ColtLookup::Miss);
        assert_eq!(t.lookup(A, Vpn(3)), ColtLookup::Hit(Pfn(103)));
    }

    #[test]
    fn refill_extends_coverage_for_noncontiguous_page() {
        let mut t = tlb(8);
        let neighbors = vec![Some(Pfn(100)), Some(Pfn(101)), Some(Pfn(500)), None];
        t.fill(A, Vpn(0), Pfn(100), &neighbors);
        assert_eq!(t.lookup(A, Vpn(2)), ColtLookup::Miss);
        // Walk for vpn 2 re-fills anchored at its own PFN: now 2 is
        // covered (alone — its neighbors are not contiguous with 500).
        t.fill(A, Vpn(2), Pfn(500), &neighbors);
        assert_eq!(t.lookup(A, Vpn(2)), ColtLookup::Hit(Pfn(500)));
        // The old run lost coverage (one entry per window).
        assert_eq!(t.lookup(A, Vpn(0)), ColtLookup::Miss);
    }

    #[test]
    fn unmapped_neighbors_do_not_coalesce() {
        let mut t = tlb(8);
        let neighbors = vec![Some(Pfn(7)), None, None, None];
        t.fill(A, Vpn(0), Pfn(7), &neighbors);
        assert!(t.lookup(A, Vpn(0)).is_hit());
        assert_eq!(t.lookup(A, Vpn(1)), ColtLookup::Miss);
        assert_eq!(t.coalesced_fills(), 0);
    }

    #[test]
    fn misaligned_anchor_still_covers_run() {
        let mut t = tlb(8);
        // Anchor at offset 2 of the window; the full run is contiguous.
        t.fill(A, Vpn(2), Pfn(102), &contiguous(100));
        assert_eq!(t.lookup(A, Vpn(0)), ColtLookup::Hit(Pfn(100)));
        assert_eq!(t.lookup(A, Vpn(3)), ColtLookup::Hit(Pfn(103)));
    }

    #[test]
    fn windows_are_independent_entries() {
        let mut t = tlb(8);
        t.fill(A, Vpn(0), Pfn(100), &contiguous(100));
        t.fill(A, Vpn(4), Pfn(200), &contiguous(200));
        assert_eq!(t.len(), 2);
        assert!(t.lookup(A, Vpn(1)).is_hit());
        assert!(t.lookup(A, Vpn(5)).is_hit());
    }

    #[test]
    #[should_panic(expected = "anchor translation inconsistent")]
    fn inconsistent_anchor_panics() {
        let mut t = tlb(8);
        t.fill(A, Vpn(0), Pfn(999), &contiguous(100));
    }

    #[test]
    #[should_panic(expected = "window must be a power of two")]
    fn bad_window_panics() {
        CoalescedTlb::new(TlbConfig::new(8, Associativity::Full), 3);
    }
}
