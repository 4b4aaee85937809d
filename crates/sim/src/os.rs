//! The demand-paging OS model behind the TLB experiments.
//!
//! For the Figure 6 simulations memory is sized generously (the experiment
//! measures TLB reach, not swapping), and every first touch maps the page
//! in *both* address-translation worlds:
//!
//! * the **vanilla** world assigns frames first-come-first-served
//!   (unconstrained, like a free-list allocator) and maps the kernel
//!   region with 2 MiB huge pages — the artifact the paper notes gives
//!   vanilla a slight edge (§4.1);
//! * the **mosaic** world allocates through
//!   [`MosaicMemory`] (Iceberg placement) and
//!   mirrors each mapping into one ToC-leaved radix page table per arity
//!   under test.

use mosaic_mem::{
    AccessKind, Asid, MemoryManager, MemoryLayout, MosaicError, MosaicMemory, MosaicResult,
    PageKey, Pfn, Vpn,
};
use mosaic_mmu::{Arity, PageWalker, RadixTable, Toc};
use std::collections::HashMap;

/// The ASID the single simulated process (and the kernel's global
/// mappings) runs under in the Figure 6 experiments. Multi-tenant runs
/// mint their own ASIDs through `mosaic_tenants::TenantRegistry` and pass
/// them via [`OsModel::with_asid`]; this default makes the classic
/// experiments the one-tenant special case.
pub const USER_ASID: Asid = Asid(1);

/// First VPN of the simulated kernel region (top of the 36-bit VPN space).
pub const KERNEL_VPN_BASE: u64 = 1 << 35;

/// Node accesses a hardware walk of a 2 MiB mapping costs (the walk stops
/// one level early at the PDE).
pub const HUGE_WALK_LEVELS: u64 = 3;

/// How a vanilla page-table walk resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VanillaTranslation {
    /// A 4 KiB mapping.
    Base(Pfn),
    /// A 2 MiB mapping; the PFN is the huge page's first frame.
    Huge(Pfn),
}

/// One (batch position, arity) leaf-ToC memo slot for
/// [`OsModel::mosaic_walk_memo`].
///
/// `gen` stamps the batch generation that last filled the slot; a
/// mismatched stamp means the contents are stale, but the `toc` buffer
/// is retained so the refill copies in place instead of allocating.
#[derive(Debug, Default)]
pub(crate) struct TocMemoSlot {
    gen: u64,
    levels: u32,
    toc: Option<Toc>,
}

/// The shared OS state of one dual-TLB simulation.
#[derive(Debug)]
pub struct OsModel {
    mosaic: MosaicMemory,
    /// Vanilla 4 KiB mappings, with walk-cost counting.
    vanilla_pt: PageWalker<Pfn>,
    /// Vanilla 2 MiB kernel mappings: huge index → first frame.
    vanilla_huge: HashMap<u64, Pfn>,
    vanilla_next_pfn: u64,
    huge_walks: u64,
    /// One ToC-leaved page table per arity under test.
    mosaic_pts: Vec<(Arity, PageWalker<Toc>)>,
    /// The address space every touch is keyed under.
    asid: Asid,
    now: u64,
}

impl OsModel {
    /// Creates the OS model over `layout` worth of mosaic-managed memory,
    /// with page tables for each arity in `arities`, running as the
    /// default [`USER_ASID`].
    pub fn new(layout: MemoryLayout, arities: &[Arity], seed: u64) -> Self {
        Self::with_asid(layout, arities, seed, USER_ASID)
    }

    /// Like [`OsModel::new`], but keys every mapping under an explicit
    /// `asid` (a tenant identity minted by a registry).
    pub fn with_asid(layout: MemoryLayout, arities: &[Arity], seed: u64, asid: Asid) -> Self {
        let mosaic = MosaicMemory::new(layout, seed);
        let mosaic_pts = arities
            .iter()
            .map(|&a| {
                let mvpn_bits = 36 - a.offset_bits();
                (a, PageWalker::new(RadixTable::new(mvpn_bits, 9)))
            })
            .collect();
        Self {
            mosaic,
            vanilla_pt: PageWalker::new(RadixTable::x86_vanilla()),
            vanilla_huge: HashMap::new(),
            vanilla_next_pfn: 0,
            huge_walks: 0,
            mosaic_pts,
            asid,
            now: 0,
        }
    }

    /// The ASID this model's mappings are keyed under.
    pub fn asid(&self) -> Asid {
        self.asid
    }

    /// Whether a VPN is in the simulated kernel region.
    pub fn is_kernel(vpn: Vpn) -> bool {
        vpn.0 >= KERNEL_VPN_BASE
    }

    /// The mosaic memory manager (inspection).
    pub fn mosaic(&self) -> &MosaicMemory {
        &self.mosaic
    }

    /// Binds the model's page-table walkers (and the mosaic allocator)
    /// to a live metrics registry: walk counts and depths export as
    /// `ptw.vanilla.*` / `ptw.mosaic-<arity>.*` when the simulation
    /// publishes them at batch end, allocator counters as `mosaic.*`.
    pub fn set_obs(&mut self, obs: &mosaic_obs::ObsHandle) {
        use mosaic_mem::MemoryManager as _;
        self.mosaic.set_obs(obs, "mosaic");
        self.set_walker_obs(obs);
    }

    /// [`OsModel::set_obs`] for the page-table walkers only.
    pub(crate) fn set_walker_obs(&mut self, obs: &mosaic_obs::ObsHandle) {
        self.vanilla_pt.set_obs(obs, "vanilla");
        for (arity, pt) in &mut self.mosaic_pts {
            pt.set_obs(obs, &format!("mosaic-{}", arity.get()));
        }
    }

    /// Publishes the allocator's point-in-time gauges.
    pub fn publish_obs(&self) {
        use mosaic_mem::MemoryManager as _;
        self.mosaic.publish_obs();
    }

    /// Demand-maps `vpn` in both worlds if needed and records the access.
    /// Returns whether this touch was the VPN's first (a growth event —
    /// the batched pipeline rewinds and replays these per instance).
    ///
    /// # Panics
    ///
    /// Panics if the mosaic pool is so over-committed that an allocation
    /// evicted a page — Figure 6 runs must be sized with headroom (use
    /// [`frames_for_footprint`]).
    pub fn touch(&mut self, vpn: Vpn, kind: AccessKind) -> bool {
        self.touch_cpfn(vpn, kind).is_some()
    }

    /// [`OsModel::touch`] that returns the CPFN mirrored into every
    /// arity's leaf on a first touch (`None` on a repeat touch). Iceberg
    /// placement never relocates a resident page and a Figure 6 pool
    /// never evicts, so this stays the page's CPFN for the whole run:
    /// the batched pipeline records it once per growth event and
    /// remirrors from the record.
    ///
    /// # Panics
    ///
    /// As [`OsModel::touch`].
    pub(crate) fn touch_cpfn(&mut self, vpn: Vpn, kind: AccessKind) -> Option<mosaic_mem::Cpfn> {
        self.now += 1;
        let key = PageKey::new(self.asid, vpn);
        let newly_mapped = self.mosaic.resident_pfn(key).is_none();
        self.mosaic.access(key, kind, self.now);
        assert_eq!(
            self.mosaic.stats().evictions(),
            0,
            "mosaic pool over-committed during a TLB experiment; increase memory headroom"
        );
        if newly_mapped {
            // Mirror the new CPFN into every arity's page table.
            let cpfn = self.mosaic.cpfn_of(key).expect("just mapped");
            for (arity, pt) in &mut self.mosaic_pts {
                let (mvpn, offset) = arity.split(vpn);
                match pt.table_mut().get_mut(mvpn.0) {
                    Some(toc) => toc.set(offset, cpfn),
                    None => {
                        let mut toc = Toc::new(*arity, self.mosaic.codec().unmapped());
                        toc.set(offset, cpfn);
                        pt.table_mut().insert(mvpn.0, toc);
                    }
                }
            }
            // Vanilla mapping.
            if Self::is_kernel(vpn) {
                let huge = mosaic_mmu::arity::huge_index(vpn);
                if !self.vanilla_huge.contains_key(&huge) {
                    // Reserve a 512-frame aligned run for the huge page.
                    let first = (self.vanilla_next_pfn + 511) & !511;
                    self.vanilla_next_pfn = first + 512;
                    self.vanilla_huge.insert(huge, Pfn(first));
                }
            } else if self.vanilla_pt.table().get(vpn.0).is_none() {
                let pfn = Pfn(self.vanilla_next_pfn);
                self.vanilla_next_pfn += 1;
                self.vanilla_pt.table_mut().insert(vpn.0, pfn);
            }
            return Some(cpfn);
        }
        None
    }

    /// Temporarily clears `vpn`'s sub-entry from arity slot
    /// `arity_idx`'s mirrored leaf, rewinding that ToC to its pre-touch
    /// contents. The batched pipeline pre-touches a whole chunk, then
    /// unmirrors the chunk's growth events from a mosaic instance's own
    /// arity table before replaying it, so a mid-batch `mosaic_walk`
    /// sees exactly the point-in-time ToC of its stream position —
    /// [`remirror`](Self::remirror) reapplies the event when the replay
    /// cursor passes it. Leaf *nodes* allocated by the pre-touch stay
    /// allocated, which is invisible: walk depth is fixed per table and
    /// an all-sentinel ToC is never walked (the triggering access
    /// remirrors before it walks).
    ///
    /// Reads the radix table directly (no [`PageWalker`] accounting).
    pub(crate) fn unmirror(&mut self, arity_idx: usize, vpn: Vpn) {
        let (arity, pt) = &mut self.mosaic_pts[arity_idx];
        let (mvpn, offset) = arity.split(vpn);
        if let Some(toc) = pt.table_mut().get_mut(mvpn.0) {
            toc.invalidate(offset);
        }
    }

    /// Reapplies a growth event cleared by [`unmirror`](Self::unmirror):
    /// writes `cpfn` — the page's CPFN as recorded by
    /// [`OsModel::touch_cpfn`] — back into arity slot `arity_idx`'s leaf.
    ///
    /// # Panics
    ///
    /// Panics if `vpn`'s leaf was never allocated (only previously
    /// touched pages are ever unmirrored).
    pub(crate) fn remirror(&mut self, arity_idx: usize, vpn: Vpn, cpfn: mosaic_mem::Cpfn) {
        let (arity, pt) = &mut self.mosaic_pts[arity_idx];
        let (mvpn, offset) = arity.split(vpn);
        pt.table_mut()
            .get_mut(mvpn.0)
            .expect("unmirrored leaf exists")
            .set(offset, cpfn);
    }

    /// A counted vanilla page-table walk (invoked on a vanilla TLB miss).
    ///
    /// # Panics
    ///
    /// Panics if the page was never demand-mapped (callers must `touch`
    /// each access first).
    pub fn vanilla_walk(&mut self, vpn: Vpn) -> VanillaTranslation {
        if Self::is_kernel(vpn) {
            let huge = mosaic_mmu::arity::huge_index(vpn);
            self.huge_walks += 1;
            VanillaTranslation::Huge(
                *self
                    .vanilla_huge
                    .get(&huge)
                    .expect("kernel page touched before walk"),
            )
        } else {
            VanillaTranslation::Base(
                *self
                    .vanilla_pt
                    .walk(vpn.0)
                    .expect("page touched before walk"),
            )
        }
    }

    /// A counted mosaic page-table walk for arity slot `arity_idx`,
    /// returning a copy of the leaf ToC (what the walker hands the TLB).
    ///
    /// # Panics
    ///
    /// Panics if `arity_idx` is out of range or the mosaic page has no
    /// mapped sub-page yet.
    pub fn mosaic_walk(&mut self, arity_idx: usize, vpn: Vpn) -> Toc {
        self.mosaic_walk_ref(arity_idx, vpn).clone()
    }

    /// [`OsModel::mosaic_walk`] without the copy: a counted walk that
    /// hands back the leaf ToC by reference, for fill paths that copy
    /// it into TLB storage ([`mosaic_mmu::MosaicTlb::fill_toc_ref`]).
    ///
    /// # Panics
    ///
    /// Panics if `arity_idx` is out of range or the mosaic page has no
    /// mapped sub-page yet.
    pub fn mosaic_walk_ref(&mut self, arity_idx: usize, vpn: Vpn) -> &Toc {
        let (arity, pt) = &mut self.mosaic_pts[arity_idx];
        let (mvpn, _) = arity.split(vpn);
        pt.walk(mvpn.0).expect("page touched before walk")
    }

    /// [`OsModel::vanilla_walk`] with a per-position memo slot for the
    /// batched pipeline: the translation is resolved once per batch
    /// position, but every consuming instance still counts a full walk
    /// (counters and obs effects identical to walking again — vanilla
    /// translations never change after first touch, so the memoized
    /// result is exact).
    pub(crate) fn vanilla_walk_memo(
        &mut self,
        vpn: Vpn,
        slot: &mut Option<(VanillaTranslation, u32)>,
    ) -> VanillaTranslation {
        if let Some((tr, levels)) = *slot {
            if Self::is_kernel(vpn) {
                self.huge_walks += 1;
            } else {
                self.vanilla_pt.recount_walk(levels);
            }
            return tr;
        }
        if Self::is_kernel(vpn) {
            let tr = self.vanilla_walk(vpn);
            *slot = Some((tr, 0));
            tr
        } else {
            let (value, levels) = self.vanilla_pt.walk_leveled(vpn.0);
            let tr = VanillaTranslation::Base(*value.expect("page touched before walk"));
            *slot = Some((tr, levels));
            tr
        }
    }

    /// [`OsModel::mosaic_walk`] with a per-(position, arity) memo slot:
    /// the leaf ToC is copied out of the radix table once per batch
    /// position, and reuses count a full walk and borrow the memoized
    /// copy (the fill path copies it into the TLB's inline arena, so no
    /// allocation happens per consuming instance). Sound because every
    /// mosaic instance of arity slot `arity_idx` replays the identical
    /// unmirror/remirror sequence on that slot's table, so the ToC state
    /// at a given batch position is the same for all of them.
    ///
    /// `gen` is the current batch generation: a slot stamped with an
    /// older generation is stale, and its retained buffer is
    /// overwritten in place ([`Toc::copy_from`]) instead of
    /// reallocated — slots hold ToCs of one fixed arity, so the buffer
    /// always fits.
    pub(crate) fn mosaic_walk_memo<'a>(
        &mut self,
        arity_idx: usize,
        vpn: Vpn,
        slot: &'a mut TocMemoSlot,
        gen: u64,
    ) -> &'a Toc {
        let (arity, pt) = &mut self.mosaic_pts[arity_idx];
        if slot.gen == gen {
            pt.recount_walk(slot.levels);
            return slot.toc.as_ref().expect("fresh memo slot holds a ToC");
        }
        let (mvpn, _) = arity.split(vpn);
        let (value, levels) = pt.walk_leveled(mvpn.0);
        let leaf = value.expect("page touched before walk");
        match &mut slot.toc {
            Some(buf) => buf.copy_from(leaf),
            None => slot.toc = Some(leaf.clone()),
        }
        slot.gen = gen;
        slot.levels = levels;
        slot.toc.as_ref().expect("memo slot just filled")
    }

    /// Number of per-arity mosaic page tables (the batched pipeline's
    /// ToC-memo stride).
    pub(crate) fn arity_count(&self) -> usize {
        self.mosaic_pts.len()
    }

    /// Publishes every page walker's walks and walk depths tallied
    /// since the last publish ([`PageWalker::publish_obs`]).
    pub(crate) fn publish_walk_obs(&mut self) {
        self.vanilla_pt.publish_obs();
        for (_, pt) in &mut self.mosaic_pts {
            pt.publish_obs();
        }
    }

    /// The CPFN of one sub-page (for sub-entry fills).
    pub fn cpfn_of(&self, vpn: Vpn) -> Option<mosaic_mem::Cpfn> {
        self.mosaic.cpfn_of(PageKey::new(self.asid, vpn))
    }

    /// The arities this model maintains page tables for.
    pub fn arities(&self) -> Vec<Arity> {
        self.mosaic_pts.iter().map(|&(a, _)| a).collect()
    }

    /// Checks dual-world agreement: the mosaic manager's own invariants,
    /// plus — for every resident page and every arity — that the mirrored
    /// page-table ToC sub-entry stores exactly the CPFN the manager would
    /// encode today. A stale or corrupted leaf surfaces as
    /// [`MosaicError::TocMismatch`].
    ///
    /// Reads the radix tables directly (no [`PageWalker`] accounting), so
    /// verification never perturbs the walk counters an experiment reports.
    pub fn verify(&self) -> MosaicResult<()> {
        self.mosaic.verify()?;
        for (key, _) in self.mosaic.resident_pages() {
            let expected = self.mosaic.cpfn_of(key).ok_or(MosaicError::internal(
                "resident page has no CPFN encoding",
            ))?;
            for (arity, pt) in &self.mosaic_pts {
                let (mvpn, offset) = arity.split(key.vpn);
                let found = pt.table().get(mvpn.0).and_then(|toc| toc.get(offset));
                if found != Some(expected) {
                    return Err(MosaicError::TocMismatch {
                        vpn: key.vpn.0,
                        found: found.map_or(0xFF, |c| c.0),
                        expected: Some(expected.0),
                    });
                }
            }
        }
        Ok(())
    }

    /// Total page-table walks performed (vanilla, huge, mosaic).
    pub fn walk_counts(&self) -> (u64, u64, u64) {
        (
            self.vanilla_pt.walks(),
            self.huge_walks,
            self.mosaic_pts.iter().map(|(_, pt)| pt.walks()).sum(),
        )
    }
}

/// Frames to provision so a footprint of `pages` (plus `kernel_pages`)
/// never conflicts: Iceberg sustains ~98 % utilization, so 85 % headroom
/// is comfortably safe.
pub fn frames_for_footprint(pages: u64, kernel_pages: u64) -> usize {
    (((pages + kernel_pages) as f64 / 0.85) as usize).max(1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_iceberg::IcebergConfig;

    fn model() -> OsModel {
        OsModel::new(
            MemoryLayout::new(IcebergConfig::paper_default(64)),
            &[Arity::new(4), Arity::new(8)],
            3,
        )
    }

    #[test]
    fn touch_maps_both_worlds() {
        let mut os = model();
        os.touch(Vpn(100), AccessKind::Load);
        assert_eq!(os.vanilla_walk(Vpn(100)), VanillaTranslation::Base(Pfn(0)));
        let toc = os.mosaic_walk(0, Vpn(100));
        assert!(toc.is_valid(0), "vpn 100 is offset 0 of mvpn 25 at arity 4");
        assert!(os.cpfn_of(Vpn(100)).is_some());
    }

    #[test]
    fn vanilla_frames_are_distinct() {
        let mut os = model();
        for vpn in 0..50u64 {
            os.touch(Vpn(vpn), AccessKind::Load);
        }
        let mut seen = std::collections::HashSet::new();
        for vpn in 0..50u64 {
            match os.vanilla_walk(Vpn(vpn)) {
                VanillaTranslation::Base(pfn) => assert!(seen.insert(pfn)),
                VanillaTranslation::Huge(_) => panic!("user page mapped huge"),
            }
        }
    }

    #[test]
    fn kernel_maps_huge() {
        let mut os = model();
        let kvpn = Vpn(KERNEL_VPN_BASE + 5);
        os.touch(kvpn, AccessKind::Load);
        match os.vanilla_walk(kvpn) {
            VanillaTranslation::Huge(first) => assert_eq!(first.0 % 512, 0),
            other => panic!("kernel page not huge: {other:?}"),
        }
        // Another page in the same 2 MiB region shares the mapping.
        let kvpn2 = Vpn(KERNEL_VPN_BASE + 400);
        os.touch(kvpn2, AccessKind::Load);
        let (a, b) = (os.vanilla_walk(kvpn), os.vanilla_walk(kvpn2));
        assert_eq!(a, b);
    }

    #[test]
    fn toc_accumulates_siblings() {
        let mut os = model();
        os.touch(Vpn(8), AccessKind::Load);
        os.touch(Vpn(9), AccessKind::Load);
        let toc4 = os.mosaic_walk(0, Vpn(8));
        assert_eq!(toc4.valid_count(), 2);
        // At arity 8, both live in the same ToC too.
        let toc8 = os.mosaic_walk(1, Vpn(8));
        assert_eq!(toc8.valid_count(), 2);
    }

    #[test]
    fn toc_cpfns_match_manager() {
        let mut os = model();
        for vpn in 0..200u64 {
            os.touch(Vpn(vpn), AccessKind::Store);
        }
        for vpn in 0..200u64 {
            let toc = os.mosaic_walk(0, Vpn(vpn));
            let arity = Arity::new(4);
            let (_, off) = arity.split(Vpn(vpn));
            assert_eq!(toc.get(off), os.cpfn_of(Vpn(vpn)), "vpn {vpn}");
        }
    }

    #[test]
    fn walk_counters_advance() {
        let mut os = model();
        os.touch(Vpn(1), AccessKind::Load);
        os.touch(Vpn(KERNEL_VPN_BASE), AccessKind::Load);
        os.vanilla_walk(Vpn(1));
        os.vanilla_walk(Vpn(KERNEL_VPN_BASE));
        os.mosaic_walk(0, Vpn(1));
        let (v, h, m) = os.walk_counts();
        assert_eq!((v, h, m), (1, 1, 1));
    }

    #[test]
    fn verify_detects_toc_corruption() {
        let mut os = model();
        for vpn in 0..200u64 {
            os.touch(Vpn(vpn), AccessKind::Load);
        }
        os.verify().expect("fresh dual mapping agrees");
        // Corrupt one arity-4 leaf sub-entry behind the OS model's back.
        let (arity, pt) = &mut os.mosaic_pts[0];
        let (mvpn, offset) = arity.split(Vpn(42));
        let wrong = os.mosaic.codec().encode_index(0);
        let toc = pt.table_mut().get_mut(mvpn.0).expect("mapped");
        if toc.get(offset) == Some(wrong) {
            toc.invalidate(offset);
        } else {
            toc.set(offset, wrong);
        }
        match os.verify() {
            Err(MosaicError::TocMismatch { vpn, .. }) => assert_eq!(vpn, 42),
            other => panic!("expected TocMismatch, got {other:?}"),
        }
    }

    #[test]
    fn headroom_sizing() {
        assert!(frames_for_footprint(10_000, 1_000) >= 12_000);
        assert!(frames_for_footprint(0, 0) >= 1024);
    }
}
