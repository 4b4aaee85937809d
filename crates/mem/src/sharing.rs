//! Shared memory via **location IDs** — the §2.5 extension the paper
//! sketches as future work.
//!
//! Base Mosaic hashes `(ASID, VPN)`, so two address spaces can never map
//! the same frame: their candidate sets are disjoint. The paper's
//! proposed fix: give each ToC a *location ID* and hash
//! `(location ID, i)` for the `i`-th page of the mosaic page. The same
//! location ID can then be bound at several places — duplicate `mmap`s in
//! one address space, or genuine cross-ASID shared memory — and every
//! binding resolves to the same frames and the same CPFNs. The OS draws
//! location IDs randomly (a few colliding ToCs are harmless; "Iceberg
//! hashing is robust enough to handle this"), which is also what lets a
//! hardware implementation use a cheap hash after the TLB lookup.

use crate::addr::{Asid, PageKey, Pfn, Vpn};
use crate::cpfn::Cpfn;
use crate::layout::MemoryLayout;
use crate::manager::{AccessKind, AccessOutcome, MemoryManager};
use crate::mosaic::MosaicMemory;
use crate::stats::PagingStats;
use mosaic_hash::{FastHashMap, FastHashSet, SplitMix64};

/// An identifier naming one ToC's worth of physical placements,
/// independent of any address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocationId(u32);

impl LocationId {
    /// Raw value (30 bits).
    pub fn get(self) -> u32 {
        self.0
    }
}

impl core::fmt::Display for LocationId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "loc:{:#x}", self.0)
    }
}

/// Errors from binding mosaic pages to locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The `(ASID, mosaic page)` slot already has a binding.
    AlreadyMapped,
    /// The location ID was never created by this manager.
    UnknownLocation,
}

impl core::fmt::Display for MapError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MapError::AlreadyMapped => write!(f, "mosaic page already mapped"),
            MapError::UnknownLocation => write!(f, "unknown location id"),
        }
    }
}

impl std::error::Error for MapError {}

/// A Mosaic memory manager with location-ID indirection (§2.5).
///
/// # Example
///
/// ```
/// use mosaic_mem::prelude::*;
/// use mosaic_mem::sharing::SharedMosaicMemory;
///
/// let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
/// let mut mm = SharedMosaicMemory::new(layout, 4, 7);
/// // One location, mapped into two address spaces.
/// let loc = mm.create_location();
/// mm.map(Asid::new(1), 0, loc).unwrap();
/// mm.map(Asid::new(2), 5, loc).unwrap();
/// mm.access(Asid::new(1), Vpn::new(2), AccessKind::Store, 1);
/// // The other process sees the same physical frame.
/// let a = mm.resident_pfn_of(Asid::new(1), Vpn::new(2)).unwrap();
/// let b = mm.resident_pfn_of(Asid::new(2), Vpn::new(22)).unwrap();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct SharedMosaicMemory {
    inner: MosaicMemory,
    /// Base pages per mosaic page.
    arity: usize,
    /// `(asid, mosaic-page index) -> location`.
    bindings: FastHashMap<(Asid, u64), LocationId>,
    /// Issued location IDs.
    locations: FastHashSet<LocationId>,
    rng: SplitMix64,
}

/// Location IDs are 30-bit so the synthetic hash key (`location << 6 |
/// offset`) stays inside the 36-bit VPN field of [`PageKey`].
const LOCATION_BITS: u32 = 30;

impl SharedMosaicMemory {
    /// Creates a manager over `layout` with the given mosaic arity.
    ///
    /// # Panics
    ///
    /// Panics unless `arity` is a power of two in `1..=64`.
    pub fn new(layout: MemoryLayout, arity: usize, seed: u64) -> Self {
        assert!(
            arity.is_power_of_two() && (1..=64).contains(&arity),
            "arity must be a power of two in 1..=64, got {arity}"
        );
        Self {
            inner: MosaicMemory::new(layout, seed),
            arity,
            bindings: FastHashMap::default(),
            locations: FastHashSet::default(),
            rng: SplitMix64::new(seed ^ 0x10CA_7104),
        }
    }

    /// The mosaic arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Draws a fresh random location ID (the OS-side allocation; §2.5
    /// tolerates collisions, but we retry for determinism of tests).
    pub fn create_location(&mut self) -> LocationId {
        loop {
            let loc = LocationId((self.rng.next_u64() & ((1 << LOCATION_BITS) - 1)) as u32);
            if self.locations.insert(loc) {
                return loc;
            }
        }
    }

    /// Binds mosaic page `mpage` of `asid` to `loc` (an `mmap` of the
    /// shared object).
    ///
    /// # Errors
    ///
    /// [`MapError::AlreadyMapped`] if the slot is taken,
    /// [`MapError::UnknownLocation`] if `loc` wasn't issued here.
    pub fn map(&mut self, asid: Asid, mpage: u64, loc: LocationId) -> Result<(), MapError> {
        if !self.locations.contains(&loc) {
            return Err(MapError::UnknownLocation);
        }
        match self.bindings.entry((asid, mpage)) {
            std::collections::hash_map::Entry::Occupied(_) => Err(MapError::AlreadyMapped),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(loc);
                Ok(())
            }
        }
    }

    /// Removes a binding (an `munmap`); frames stay owned by the location
    /// and remain visible through its other bindings.
    pub fn unmap(&mut self, asid: Asid, mpage: u64) -> Option<LocationId> {
        self.bindings.remove(&(asid, mpage))
    }

    /// The location bound at `(asid, mpage)`, if any.
    pub fn binding(&self, asid: Asid, mpage: u64) -> Option<LocationId> {
        self.bindings.get(&(asid, mpage)).copied()
    }

    fn split(&self, vpn: Vpn) -> (u64, usize) {
        let bits = self.arity.trailing_zeros();
        (vpn.0 >> bits, (vpn.0 & (self.arity as u64 - 1)) as usize)
    }

    /// The synthetic allocator key for `(location, i)` — the quantity the
    /// hardware hashes in the §2.5 design.
    fn location_key(loc: LocationId, offset: usize) -> PageKey {
        // The hash input is (location ID, i): injective by construction.
        PageKey::new(Asid(0), Vpn((u64::from(loc.0) << 6) | offset as u64))
    }

    /// Accesses `(asid, vpn)`, demand-creating a *private* location for
    /// the mosaic page if nothing is bound (anonymous memory behaviour).
    pub fn access(&mut self, asid: Asid, vpn: Vpn, kind: AccessKind, now: u64) -> AccessOutcome {
        let (mpage, offset) = self.split(vpn);
        let loc = match self.binding(asid, mpage) {
            Some(loc) => loc,
            None => {
                let loc = self.create_location();
                self.bindings.insert((asid, mpage), loc);
                loc
            }
        };
        self.inner
            .access(Self::location_key(loc, offset), kind, now)
    }

    /// Fallible variant of [`access`](Self::access): propagates typed
    /// errors from the underlying manager (only possible when it carries a
    /// fault injector) instead of panicking.
    pub fn try_access(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        kind: AccessKind,
        now: u64,
    ) -> crate::error::MosaicResult<AccessOutcome> {
        let (mpage, offset) = self.split(vpn);
        let loc = match self.binding(asid, mpage) {
            Some(loc) => loc,
            None => {
                let loc = self.create_location();
                self.bindings.insert((asid, mpage), loc);
                loc
            }
        };
        self.inner
            .try_access(Self::location_key(loc, offset), kind, now)
    }

    /// Tears down a location: frees the frames (and swap copies) of all
    /// `arity` sub-pages — no swap I/O; the contents are dead — and
    /// retires the ID. Returns the number of frames actually freed.
    ///
    /// Callers must have removed every binding of `loc` first (the
    /// refcounting that decides *when* the last binding is gone lives a
    /// layer up, in the COW/tenant code).
    ///
    /// # Errors
    ///
    /// [`MapError::UnknownLocation`] if `loc` wasn't issued here.
    pub fn release_location(&mut self, loc: LocationId) -> Result<usize, MapError> {
        if !self.locations.contains(&loc) {
            return Err(MapError::UnknownLocation);
        }
        debug_assert!(
            self.bindings.values().all(|&l| l != loc),
            "releasing a location that is still bound"
        );
        let mut freed = 0;
        for offset in 0..self.arity {
            if self.inner.release(Self::location_key(loc, offset)) {
                freed += 1;
            }
        }
        self.locations.remove(&loc);
        Ok(freed)
    }

    /// Locations currently issued (diagnostics).
    pub fn location_count(&self) -> usize {
        self.locations.len()
    }

    /// The frame backing `(asid, vpn)`, if its page is resident.
    pub fn resident_pfn_of(&self, asid: Asid, vpn: Vpn) -> Option<Pfn> {
        let (mpage, offset) = self.split(vpn);
        let loc = self.binding(asid, mpage)?;
        self.inner.resident_pfn(Self::location_key(loc, offset))
    }

    /// The CPFN of page `offset` within location `loc`, if resident.
    ///
    /// Identical for every binding of `loc` — the property that lets one
    /// ToC serve several mappings.
    pub fn cpfn_of(&self, loc: LocationId, offset: usize) -> Option<Cpfn> {
        self.inner.cpfn_of(Self::location_key(loc, offset))
    }

    /// The underlying constrained manager (stats, utilization).
    pub fn inner(&self) -> &MosaicMemory {
        &self.inner
    }

    /// Paging counters.
    pub fn stats(&self) -> &PagingStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_iceberg::IcebergConfig;

    fn memory() -> SharedMosaicMemory {
        SharedMosaicMemory::new(MemoryLayout::new(IcebergConfig::paper_default(8)), 4, 3)
    }

    #[test]
    fn cross_asid_sharing_resolves_to_same_frames() {
        let mut mm = memory();
        let loc = mm.create_location();
        mm.map(Asid(1), 0, loc).unwrap();
        mm.map(Asid(2), 9, loc).unwrap();
        // Touch all four sub-pages via process 1.
        for off in 0..4u64 {
            mm.access(Asid(1), Vpn(off), AccessKind::Store, off + 1);
        }
        // Process 2 sees the identical frames at its own addresses.
        for off in 0..4u64 {
            let a = mm.resident_pfn_of(Asid(1), Vpn(off)).unwrap();
            let b = mm.resident_pfn_of(Asid(2), Vpn(9 * 4 + off)).unwrap();
            assert_eq!(a, b, "offset {off}");
        }
        // And the second process's accesses are hits, not faults.
        let out = mm.access(Asid(2), Vpn(9 * 4), AccessKind::Load, 100);
        assert_eq!(out, AccessOutcome::Hit);
    }

    #[test]
    fn release_location_frees_frames_and_forgets_the_id() {
        let mut mm = memory();
        let loc = mm.create_location();
        mm.map(Asid(1), 0, loc).unwrap();
        for off in 0..4u64 {
            mm.access(Asid(1), Vpn(off), AccessKind::Store, off + 1);
        }
        let resident = mm.inner().resident_frames();
        mm.unmap(Asid(1), 0).unwrap();
        assert_eq!(mm.release_location(loc), Ok(4));
        assert_eq!(mm.inner().resident_frames(), resident - 4);
        assert_eq!(mm.location_count(), 0);
        // The id is gone: releasing again or mapping it is an error.
        assert_eq!(mm.release_location(loc), Err(MapError::UnknownLocation));
        assert_eq!(mm.map(Asid(2), 0, loc), Err(MapError::UnknownLocation));
        mm.inner().verify().unwrap();
    }

    #[test]
    fn duplicate_mmap_within_one_address_space() {
        let mut mm = memory();
        let loc = mm.create_location();
        mm.map(Asid(1), 0, loc).unwrap();
        mm.map(Asid(1), 7, loc).unwrap();
        mm.access(Asid(1), Vpn(1), AccessKind::Store, 1);
        assert_eq!(
            mm.resident_pfn_of(Asid(1), Vpn(1)),
            mm.resident_pfn_of(Asid(1), Vpn(7 * 4 + 1)),
        );
    }

    #[test]
    fn private_pages_stay_private() {
        let mut mm = memory();
        // Anonymous first-touch in two ASIDs at the same VPN: different
        // auto-created locations, different frames.
        mm.access(Asid(1), Vpn(0), AccessKind::Store, 1);
        mm.access(Asid(2), Vpn(0), AccessKind::Store, 2);
        let a = mm.resident_pfn_of(Asid(1), Vpn(0)).unwrap();
        let b = mm.resident_pfn_of(Asid(2), Vpn(0)).unwrap();
        assert_ne!(a, b);
        assert_ne!(mm.binding(Asid(1), 0), mm.binding(Asid(2), 0));
    }

    #[test]
    fn shared_toc_has_one_cpfn_per_subpage() {
        let mut mm = memory();
        let loc = mm.create_location();
        mm.map(Asid(1), 0, loc).unwrap();
        mm.map(Asid(2), 3, loc).unwrap();
        mm.access(Asid(1), Vpn(2), AccessKind::Store, 1);
        let c = mm.cpfn_of(loc, 2).expect("resident");
        // The CPFN is a property of the location, not the mapping.
        mm.access(Asid(2), Vpn(3 * 4 + 2), AccessKind::Load, 2);
        assert_eq!(mm.cpfn_of(loc, 2), Some(c));
    }

    #[test]
    fn double_map_rejected() {
        let mut mm = memory();
        let a = mm.create_location();
        let b = mm.create_location();
        mm.map(Asid(1), 0, a).unwrap();
        assert_eq!(mm.map(Asid(1), 0, b), Err(MapError::AlreadyMapped));
    }

    #[test]
    fn unknown_location_rejected() {
        let mut mm = memory();
        assert_eq!(
            mm.map(Asid(1), 0, LocationId(12345)),
            Err(MapError::UnknownLocation)
        );
    }

    #[test]
    fn unmap_keeps_other_bindings_alive() {
        let mut mm = memory();
        let loc = mm.create_location();
        mm.map(Asid(1), 0, loc).unwrap();
        mm.map(Asid(2), 0, loc).unwrap();
        mm.access(Asid(1), Vpn(0), AccessKind::Store, 1);
        assert_eq!(mm.unmap(Asid(1), 0), Some(loc));
        assert_eq!(mm.resident_pfn_of(Asid(1), Vpn(0)), None, "binding gone");
        assert!(
            mm.resident_pfn_of(Asid(2), Vpn(0)).is_some(),
            "other mapping still resolves"
        );
    }

    #[test]
    fn location_ids_are_unique_and_30_bit() {
        let mut mm = memory();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let loc = mm.create_location();
            assert!(loc.get() < (1 << 30));
            assert!(seen.insert(loc));
        }
    }

    #[test]
    fn sharing_layer_still_constrained() {
        // Placement still happens inside candidate sets of the synthetic
        // (location, i) keys — the compression story is intact.
        let mut mm = memory();
        for vpn in 0..200u64 {
            mm.access(Asid(1), Vpn(vpn), AccessKind::Store, vpn + 1);
        }
        let cfg = *mm.inner().layout().config();
        for vpn in 0..200u64 {
            let (mpage, offset) = mm.split(Vpn(vpn));
            let loc = mm.binding(Asid(1), mpage).unwrap();
            let key = SharedMosaicMemory::location_key(loc, offset);
            let pfn = mm.inner().resident_pfn(key).unwrap();
            let slot = mm.inner().layout().slot_of_pfn(pfn);
            assert!(mm
                .inner()
                .candidates(key)
                .index_of_slot(&cfg, slot)
                .is_some());
        }
    }
}
