//! The mosaic TLB: an MVPN → ToC cache with per-sub-page validity (§3.1).
//!
//! One entry covers `arity` virtually-consecutive base pages. A lookup
//! hits only if the entry is present *and* the accessed sub-page's CPFN is
//! valid; a present entry with an invalid sub-entry is a **sub-entry
//! miss** — the walker refills just that CPFN, leaving the rest of the ToC
//! intact. Whole entries are evicted LRU on capacity misses.
//!
//! The ToCs live inline: one flat CPFN arena indexed
//! `slot * arity + offset`, where `slot` is the entry's index in the
//! tag cache ([`SetAssocCache::lookup_slot`]). A fill copies the walked
//! ToC into its slot's stripe, overwriting every sub-entry of an evicted
//! predecessor, so fills never allocate and no entry owns a heap buffer.

use super::cache::{SetAssocCache, TlbConfig};
use super::obs::TlbObs;
use super::stats::TlbStats;
use mosaic_obs::ObsHandle;
use crate::arity::{Arity, Mvpn};
use crate::toc::Toc;
use mosaic_mem::{Asid, Cpfn, Vpn};

/// Tag for a mosaic TLB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
struct MosaicTag {
    asid: Asid,
    mvpn: Mvpn,
}

/// Result of a mosaic TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MosaicLookup {
    /// The MVPN entry was present and the sub-page mapped: translation done.
    Hit(Cpfn),
    /// The MVPN entry was present but this sub-page's CPFN is invalid;
    /// fill it with [`MosaicTlb::fill_sub`].
    SubMiss,
    /// No entry for the MVPN; fill with [`MosaicTlb::fill_toc`].
    Miss,
}

impl MosaicLookup {
    /// Whether the lookup hit.
    pub fn is_hit(self) -> bool {
        matches!(self, MosaicLookup::Hit(_))
    }
}

/// A set-associative mosaic TLB.
///
/// # Example
///
/// ```
/// use mosaic_mmu::prelude::*;
/// use mosaic_mem::{Asid, Cpfn, Vpn};
///
/// let mut tlb = MosaicTlb::new(TlbConfig::new(64, Associativity::Ways(4)), Arity::new(4));
/// let asid = Asid::new(1);
/// assert_eq!(tlb.lookup(asid, Vpn::new(8)), MosaicLookup::Miss);
/// let mut toc = tlb.blank_toc();
/// toc.set(0, Cpfn(5));
/// tlb.fill_toc(asid, Vpn::new(8), toc);
/// assert_eq!(tlb.lookup(asid, Vpn::new(8)), MosaicLookup::Hit(Cpfn(5)));
/// ```
#[derive(Debug, Clone)]
pub struct MosaicTlb {
    /// Tags and LRU order; payloads live in `cpfns`.
    cache: SetAssocCache<MosaicTag, ()>,
    /// Inline ToCs: slot `i`'s sub-entries are
    /// `cpfns[i * arity .. (i + 1) * arity]`, `unmapped` where invalid.
    cpfns: Vec<Cpfn>,
    /// Slot of the last lookup that found its entry: where
    /// [`MosaicTlb::fill_sub`] looks first after a sub-entry miss.
    last_slot: usize,
    cfg: TlbConfig,
    arity: Arity,
    unmapped: Cpfn,
    stats: TlbStats,
    obs: TlbObs,
    /// `stats` as of the last [`MosaicTlb::publish_obs`].
    published: TlbStats,
}

impl MosaicTlb {
    /// Creates an empty mosaic TLB using the paper's 7-bit CPFN sentinel.
    pub fn new(cfg: TlbConfig, arity: Arity) -> Self {
        Self::with_sentinel(cfg, arity, Cpfn::UNMAPPED_7BIT)
    }

    /// Creates a mosaic TLB with an explicit unmapped sentinel (for
    /// non-default CPFN widths).
    pub fn with_sentinel(cfg: TlbConfig, arity: Arity, unmapped: Cpfn) -> Self {
        Self {
            cache: SetAssocCache::new(cfg),
            cpfns: vec![unmapped; cfg.entries() * arity.get()],
            last_slot: 0,
            cfg,
            arity,
            unmapped,
            stats: TlbStats::new(),
            obs: TlbObs::noop(),
            published: TlbStats::new(),
        }
    }

    /// Exports this TLB's counters as `tlb.<label>.*` on `obs`. A no-op
    /// when `obs` is disabled; simulation behavior is unchanged either
    /// way. Only movement after this call is exported, and only when
    /// [`MosaicTlb::publish_obs`] pushes it. (3C miss classification
    /// happens outside the TLB: see [`crate::tlb::ClassPass`].)
    pub fn set_obs(&mut self, obs: &ObsHandle, label: &str) {
        self.obs = TlbObs::register(obs, label);
        self.published = self.stats;
    }

    /// Publishes the counter movement since the last publish (or
    /// [`MosaicTlb::set_obs`]) in one [`TlbObs::flush_delta`]. Lookups
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

    /// The mosaic arity.
    pub fn arity(&self) -> Arity {
        self.arity
    }

    /// Accumulated counters.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// An all-unmapped ToC of this TLB's arity and sentinel.
    pub fn blank_toc(&self) -> Toc {
        Toc::new(self.arity, self.unmapped)
    }

    fn tag(&self, asid: Asid, vpn: Vpn) -> (MosaicTag, usize) {
        let (mvpn, offset) = self.arity.split(vpn);
        (MosaicTag { asid, mvpn }, offset)
    }

    /// Index of sub-entry `offset` of the entry in `slot`.
    #[inline]
    fn at(&self, slot: usize, offset: usize) -> usize {
        slot * self.arity.get() + offset
    }

    /// Looks up the translation for `(asid, vpn)`, counting hit/miss.
    pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> MosaicLookup {
        self.stats.accesses += 1;
        let (tag, offset) = self.tag(asid, vpn);
        match self.cache.lookup_slot(tag.mvpn.0 as usize, tag) {
            Some(slot) => {
                self.last_slot = slot;
                let cpfn = self.cpfns[self.at(slot, offset)];
                if cpfn != self.unmapped {
                    self.stats.hits += 1;
                    MosaicLookup::Hit(cpfn)
                } else {
                    self.stats.misses += 1;
                    self.stats.sub_entry_misses += 1;
                    MosaicLookup::SubMiss
                }
            }
            None => {
                self.stats.misses += 1;
                MosaicLookup::Miss
            }
        }
    }

    /// Counts `n` further lookups of the translation just looked up or
    /// filled. Each repeats the lookup or fill before it, whose sub-entry
    /// is then valid and most recently used in its set, so it hits and
    /// moves no LRU state: only `accesses` and `hits` advance. They are
    /// plain sums, so a caller that skipped many such repeats may count
    /// them all in one call.
    pub fn count_mru_hits(&mut self, n: u64) {
        self.stats.accesses += n;
        self.stats.hits += n;
    }

    /// Fills a whole ToC after a miss, evicting the set's LRU entry if
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if the ToC's arity or unmapped sentinel differs from the
    /// TLB's, or if the entry is already present (fill only on
    /// [`MosaicLookup::Miss`]).
    pub fn fill_toc(&mut self, asid: Asid, vpn: Vpn, toc: Toc) {
        self.fill_toc_ref(asid, vpn, &toc);
    }

    /// [`MosaicTlb::fill_toc`] from a borrowed ToC, copied into the
    /// entry's inline slot. The walk-memo paths hand out `&Toc`, making
    /// this the hot fill path of the batched replay.
    ///
    /// # Panics
    ///
    /// Panics if the ToC's arity or unmapped sentinel differs from the
    /// TLB's, or if the entry is already present (fill only on
    /// [`MosaicLookup::Miss`]).
    pub fn fill_toc_ref(&mut self, asid: Asid, vpn: Vpn, toc: &Toc) {
        assert_eq!(toc.len(), self.arity.get(), "ToC arity mismatch");
        assert_eq!(toc.unmapped(), self.unmapped, "ToC sentinel mismatch");
        let (tag, _) = self.tag(asid, vpn);
        let (slot, evicted) = self.cache.insert_slot(tag.mvpn.0 as usize, tag, ());
        if evicted.is_some() {
            self.stats.evictions += 1;
        }
        let start = self.at(slot, 0);
        self.cpfns[start..start + toc.len()].copy_from_slice(toc.as_slice());
    }

    /// Fills one sub-entry after a [`MosaicLookup::SubMiss`]. The entry
    /// is found through the slot that lookup left behind, so the usual
    /// lookup-then-fill pair scans the set once.
    ///
    /// # Panics
    ///
    /// Panics if no entry for the MVPN is present, or if `cpfn` is the
    /// unmapped sentinel.
    pub fn fill_sub(&mut self, asid: Asid, vpn: Vpn, cpfn: Cpfn) {
        assert_ne!(cpfn, self.unmapped, "use invalidate_sub() to unmap");
        let (tag, offset) = self.tag(asid, vpn);
        let slot = self
            .cache
            .lookup_slot_hinted(tag.mvpn.0 as usize, tag, self.last_slot)
            .expect("fill_sub without a resident MVPN entry");
        let i = self.at(slot, offset);
        self.cpfns[i] = cpfn;
    }

    /// Invalidates a single sub-page's CPFN, leaving the rest of the
    /// mosaic entry valid (§3.1: "we do not invalidate the entire mosaic
    /// page's entry").
    pub fn invalidate_sub(&mut self, asid: Asid, vpn: Vpn) {
        let (tag, offset) = self.tag(asid, vpn);
        if let Some(slot) = self.cache.lookup_slot(tag.mvpn.0 as usize, tag) {
            let i = self.at(slot, offset);
            self.cpfns[i] = self.unmapped;
        }
    }

    /// Invalidates the whole entry for the mosaic page containing `vpn`.
    pub fn invalidate_entry(&mut self, asid: Asid, vpn: Vpn) {
        let (tag, _) = self.tag(asid, vpn);
        self.cache.invalidate(tag.mvpn.0 as usize, tag);
    }

    /// Drops every entry (full flush).
    pub fn flush(&mut self) {
        self.cache.flush();
    }

    /// Drops every entry belonging to `asid`, returning how many entries
    /// were invalidated so exit-time reclaim can be audited.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        let victims: Vec<(usize, MosaicTag)> = self
            .cache
            .iter()
            .filter(|(t, _)| t.asid == asid)
            .map(|(t, _)| (t.mvpn.0 as usize, *t))
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

    const A: Asid = Asid(1);

    fn tlb(entries: usize, assoc: Associativity, arity: usize) -> MosaicTlb {
        MosaicTlb::new(TlbConfig::new(entries, assoc), Arity::new(arity))
    }

    fn full_toc(t: &MosaicTlb) -> Toc {
        let mut toc = t.blank_toc();
        for i in 0..toc.len() {
            toc.set(i, Cpfn(i as u8));
        }
        toc
    }

    #[test]
    fn one_entry_covers_arity_pages() {
        let mut t = tlb(16, Associativity::Ways(4), 4);
        assert_eq!(t.lookup(A, Vpn(8)), MosaicLookup::Miss);
        t.fill_toc(A, Vpn(8), full_toc(&t));
        // VPNs 8..12 share MVPN 2 and all hit.
        for vpn in 8..12u64 {
            assert!(t.lookup(A, Vpn(vpn)).is_hit(), "vpn {vpn}");
        }
        assert_eq!(t.lookup(A, Vpn(12)), MosaicLookup::Miss);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn sub_entry_miss_and_fill() {
        let mut t = tlb(16, Associativity::Ways(4), 4);
        let mut toc = t.blank_toc();
        toc.set(0, Cpfn(9));
        t.fill_toc(A, Vpn(0), toc);
        assert_eq!(t.lookup(A, Vpn(0)), MosaicLookup::Hit(Cpfn(9)));
        assert_eq!(t.lookup(A, Vpn(1)), MosaicLookup::SubMiss);
        t.fill_sub(A, Vpn(1), Cpfn(12));
        assert_eq!(t.lookup(A, Vpn(1)), MosaicLookup::Hit(Cpfn(12)));
        assert_eq!(t.stats().sub_entry_misses, 1);
        assert_eq!(t.len(), 1, "sub fill must not allocate a new entry");
    }

    #[test]
    fn sub_invalidate_keeps_rest_of_entry() {
        let mut t = tlb(16, Associativity::Ways(4), 4);
        t.fill_toc(A, Vpn(0), full_toc(&t));
        t.invalidate_sub(A, Vpn(2));
        assert_eq!(t.lookup(A, Vpn(2)), MosaicLookup::SubMiss);
        assert!(t.lookup(A, Vpn(0)).is_hit());
        assert!(t.lookup(A, Vpn(3)).is_hit());
    }

    #[test]
    fn whole_entry_invalidate() {
        let mut t = tlb(16, Associativity::Ways(4), 4);
        t.fill_toc(A, Vpn(0), full_toc(&t));
        t.invalidate_entry(A, Vpn(1));
        assert_eq!(t.lookup(A, Vpn(0)), MosaicLookup::Miss);
    }

    #[test]
    fn reach_is_arity_times_vanilla() {
        // An 8-entry mosaic TLB with arity 4 covers a 32-page working set.
        let mut t = tlb(8, Associativity::Full, 4);
        for mvpn in 0..8u64 {
            t.fill_toc(A, Vpn(mvpn * 4), full_toc(&t));
        }
        let mut misses = 0;
        for vpn in 0..32u64 {
            if !t.lookup(A, Vpn(vpn)).is_hit() {
                misses += 1;
            }
        }
        assert_eq!(misses, 0, "entire 32-page set covered by 8 entries");
    }

    #[test]
    fn capacity_eviction_drops_whole_mosaic_entry() {
        let mut t = tlb(2, Associativity::Full, 4);
        t.fill_toc(A, Vpn(0), full_toc(&t));
        t.fill_toc(A, Vpn(4), full_toc(&t));
        // Touch MVPN 0 so MVPN 1 is LRU.
        t.lookup(A, Vpn(0));
        t.fill_toc(A, Vpn(8), full_toc(&t));
        assert_eq!(t.stats().evictions, 1);
        assert!(t.lookup(A, Vpn(0)).is_hit());
        assert_eq!(t.lookup(A, Vpn(4)), MosaicLookup::Miss, "LRU entry evicted");
        assert!(t.lookup(A, Vpn(8)).is_hit());
    }

    #[test]
    fn arity_one_behaves_like_vanilla_granularity() {
        let mut t = tlb(16, Associativity::Ways(4), 1);
        let mut toc = t.blank_toc();
        toc.set(0, Cpfn(1));
        t.fill_toc(A, Vpn(5), toc);
        assert!(t.lookup(A, Vpn(5)).is_hit());
        assert_eq!(t.lookup(A, Vpn(6)), MosaicLookup::Miss);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_toc_panics() {
        let mut t = tlb(16, Associativity::Ways(4), 4);
        let wrong = Toc::new(Arity::new(8), Cpfn::UNMAPPED_7BIT);
        t.fill_toc(A, Vpn(0), wrong);
    }

    #[test]
    #[should_panic(expected = "without a resident")]
    fn fill_sub_without_entry_panics() {
        let mut t = tlb(16, Associativity::Ways(4), 4);
        t.fill_sub(A, Vpn(0), Cpfn(1));
    }

    #[test]
    fn asids_are_distinct() {
        let mut t = tlb(16, Associativity::Ways(4), 4);
        t.fill_toc(Asid(1), Vpn(0), full_toc(&t));
        assert_eq!(t.lookup(Asid(2), Vpn(0)), MosaicLookup::Miss);
    }
}
