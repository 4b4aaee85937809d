//! Concurrent-allocator shadow for the Mosaic manager.
//!
//! [`ConcurrentShadow`] mirrors every residency-map mutation of a
//! [`MosaicMemory`](crate::mosaic::MosaicMemory) into a
//! [`ConcurrentIcebergTable`], so the lock-free allocation path is
//! exercised by the real tenant workloads (behind `--concurrent-alloc`
//! on the `tenants` bin) while the serial manager remains the source of
//! truth. `verify()` cross-checks the two: the shadow must hold exactly
//! the resident pages, each mapped to its frame.
//!
//! The shadow's table is sized at **twice** the manager's bucket count:
//! residency never exceeds the frame count, so the shadow runs at ≤50 %
//! load, where an Iceberg associativity conflict is astronomically
//! unlikely — and if one ever fires it surfaces as a `verify()` failure
//! (a missing mirror entry), not silent divergence. Mirroring is
//! strictly observational: with the shadow off (the default `None`, as
//! with quotas), every manager path is byte-identical to before.

use crate::addr::{PageKey, Pfn};
use crate::error::{MosaicError, MosaicResult};
use mosaic_hash::{FastHashMap, XxFamily};
use mosaic_iceberg::{ConcurrentIcebergTable, IcebergConfig};

/// A concurrent mirror of the residency map. See the [module docs](self).
#[derive(Debug)]
pub struct ConcurrentShadow {
    table: ConcurrentIcebergTable<PageKey, Pfn, XxFamily>,
    family: XxFamily,
    cfg: IcebergConfig,
    /// Mirror inserts the table refused (≈impossible at ≤50 % load);
    /// counted so `verify` can name the cause of a divergence.
    conflicts: u64,
}

impl ConcurrentShadow {
    /// Builds an empty shadow for a manager with the given layout
    /// geometry; `family` must be the manager's own hash family so the
    /// shadow sees the same candidate structure (over 2× the buckets).
    pub fn new(layout_cfg: &IcebergConfig, family: XxFamily) -> Self {
        let cfg = layout_cfg.with_num_buckets(layout_cfg.num_buckets() * 2);
        Self {
            table: ConcurrentIcebergTable::new(cfg, family),
            family,
            cfg,
            conflicts: 0,
        }
    }

    /// Mirrors a page being mapped into a frame.
    pub fn note_install(&mut self, key: PageKey, pfn: Pfn) {
        match self.table.insert(key, pfn) {
            Ok(_) => {}
            Err(_) => self.conflicts += 1,
        }
    }

    /// Mirrors a page leaving residency (eviction or release).
    pub fn note_remove(&mut self, key: PageKey) {
        self.table.remove(&key);
    }

    /// Entries currently mirrored.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the mirror is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The underlying concurrent table (read access for harnesses).
    pub fn table(&self) -> &ConcurrentIcebergTable<PageKey, Pfn, XxFamily> {
        &self.table
    }

    /// Mirror inserts refused as associativity conflicts so far.
    pub fn conflict_count(&self) -> u64 {
        self.conflicts
    }

    /// Cross-checks the mirror against the manager's residency map: the
    /// shadow must contain exactly `resident`, with matching frames, and
    /// its own structural invariants must hold.
    pub fn verify_against(&self, resident: &FastHashMap<PageKey, Pfn>) -> MosaicResult<()> {
        if self.conflicts > 0 {
            return Err(MosaicError::invariant(
                "concurrent-shadow",
                format!("{} mirror inserts conflicted at <=50% load", self.conflicts),
            ));
        }
        if self.table.len() != resident.len() {
            return Err(MosaicError::invariant(
                "concurrent-shadow",
                format!(
                    "shadow holds {} entries but {} pages are resident",
                    self.table.len(),
                    resident.len()
                ),
            ));
        }
        for (&key, &pfn) in resident {
            match self.table.get(&key) {
                Some(got) if got == pfn => {}
                Some(got) => {
                    return Err(MosaicError::invariant(
                        "concurrent-shadow",
                        format!("shadow maps {key} to {got:?}, manager to {pfn:?}"),
                    ));
                }
                None => {
                    return Err(MosaicError::invariant(
                        "concurrent-shadow",
                        format!("resident page {key} missing from the shadow"),
                    ));
                }
            }
        }
        self.table
            .verify()
            .map_err(|e| MosaicError::invariant("concurrent-shadow", e.to_string()))
    }
}

impl Clone for ConcurrentShadow {
    /// The atomic table is not `Clone`; a cloned manager gets a fresh
    /// mirror rebuilt from a snapshot (same membership — placement
    /// history is not part of the mirror's contract).
    fn clone(&self) -> Self {
        let table = ConcurrentIcebergTable::new(self.cfg, self.family);
        let mut conflicts = self.conflicts;
        for (key, pfn) in self.table.iter_snapshot() {
            if table.insert(key, pfn).is_err() {
                conflicts += 1;
            }
        }
        Self {
            table,
            family: self.family,
            cfg: self.cfg,
            conflicts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Asid, Vpn};

    fn key(asid: u16, vpn: u64) -> PageKey {
        PageKey::new(Asid(asid), Vpn(vpn))
    }

    fn shadow() -> ConcurrentShadow {
        let cfg = IcebergConfig::paper_default(8);
        ConcurrentShadow::new(&cfg, XxFamily::new(cfg.hash_count(), 5))
    }

    #[test]
    fn mirrors_installs_and_removes() {
        let mut sh = shadow();
        let mut resident = FastHashMap::default();
        for v in 0..200u64 {
            sh.note_install(key(1, v), Pfn(v));
            resident.insert(key(1, v), Pfn(v));
        }
        for v in (0..200u64).step_by(3) {
            sh.note_remove(key(1, v));
            resident.remove(&key(1, v));
        }
        sh.verify_against(&resident).expect("mirror matches");
        assert_eq!(sh.len(), resident.len());
        assert_eq!(sh.conflict_count(), 0);
    }

    #[test]
    fn verify_catches_divergence() {
        let mut sh = shadow();
        let mut resident = FastHashMap::default();
        sh.note_install(key(1, 1), Pfn(1));
        resident.insert(key(1, 1), Pfn(1));
        resident.insert(key(1, 2), Pfn(2)); // not mirrored
        let err = sh.verify_against(&resident).unwrap_err();
        assert!(err.to_string().contains("concurrent-shadow"));
        // Wrong frame is also caught.
        resident.remove(&key(1, 2));
        resident.insert(key(1, 1), Pfn(9));
        let err = sh.verify_against(&resident).unwrap_err();
        assert!(err.to_string().contains("concurrent-shadow"));
    }

    #[test]
    fn clone_rebuilds_same_membership() {
        let mut sh = shadow();
        let mut resident = FastHashMap::default();
        for v in 0..100u64 {
            sh.note_install(key(2, v), Pfn(v));
            resident.insert(key(2, v), Pfn(v));
        }
        let cloned = sh.clone();
        cloned.verify_against(&resident).expect("clone matches");
    }
}
