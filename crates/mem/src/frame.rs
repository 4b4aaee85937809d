//! The frame table: per-frame residency, access times, and dirty state,
//! with the ghost-aware occupancy queries Horizon LRU needs (§2.4).
//!
//! A frame holding a page whose last access predates the global *horizon*
//! is a **ghost**: logically evicted (the allocator treats its frame as
//! free) but physically present so a re-access can resurrect it without
//! swap I/O.

use crate::addr::{PageKey, Pfn};
use crate::layout::MemoryLayout;
use mosaic_iceberg::{CandidateSet, SlotRef, Yard};

/// The page occupying a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameEntry {
    /// Which page lives here.
    pub key: PageKey,
    /// Timestamp of the page's most recent access.
    pub last_access: u64,
    /// Whether the page has been written since it was (re)loaded.
    pub dirty: bool,
    /// Whether a valid copy of this page exists on the swap device.
    pub has_swap_copy: bool,
}

impl FrameEntry {
    /// Whether this page is a ghost under the given horizon.
    pub fn is_ghost(&self, horizon: u64) -> bool {
        self.last_access < horizon
    }

    /// Whether evicting this page requires a swap-out write.
    ///
    /// Clean pages with a valid swap copy can be dropped for free;
    /// never-written pages are all zeros and can also be dropped.
    pub fn eviction_needs_writeback(&self) -> bool {
        self.dirty
    }
}

/// Per-frame state for the whole of physical memory.
#[derive(Debug, Clone)]
pub struct FrameTable {
    layout: MemoryLayout,
    frames: Vec<Option<FrameEntry>>,
    resident: usize,
}

impl FrameTable {
    /// Creates an all-free frame table for a layout.
    pub fn new(layout: MemoryLayout) -> Self {
        Self {
            frames: vec![None; layout.num_frames()],
            resident: 0,
            layout,
        }
    }

    /// The memory layout.
    #[inline]
    pub fn layout(&self) -> &MemoryLayout {
        &self.layout
    }

    /// Total frames.
    #[inline]
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Frames currently holding a page (live *or* ghost).
    #[inline]
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Resident frames / total frames, the utilization Table 3 reports.
    pub fn utilization(&self) -> f64 {
        self.resident as f64 / self.frames.len() as f64
    }

    /// The entry in `pfn`, if occupied.
    #[inline]
    pub fn entry(&self, pfn: Pfn) -> Option<&FrameEntry> {
        self.frames[pfn.0 as usize].as_ref()
    }

    /// The entry in the frame backing `slot`, if occupied.
    #[inline]
    pub fn slot_entry(&self, slot: SlotRef) -> Option<&FrameEntry> {
        self.entry(self.layout.pfn_of_slot(slot))
    }

    /// Installs a page into a free frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is occupied.
    #[inline]
    pub fn install(&mut self, pfn: Pfn, entry: FrameEntry) {
        let cell = &mut self.frames[pfn.0 as usize];
        assert!(cell.is_none(), "install into occupied frame {pfn}");
        *cell = Some(entry);
        self.resident += 1;
    }

    /// Evicts whatever occupies `pfn`, returning it.
    ///
    /// # Panics
    ///
    /// Panics if the frame is free.
    #[inline]
    pub fn evict(&mut self, pfn: Pfn) -> FrameEntry {
        let entry = self.frames[pfn.0 as usize]
            .take()
            .expect("evict from free frame");
        self.resident -= 1;
        entry
    }

    /// Records an access to the page in `pfn`.
    ///
    /// # Panics
    ///
    /// Panics if the frame is free.
    #[inline]
    pub fn touch(&mut self, pfn: Pfn, now: u64, write: bool) {
        let entry = self.frames[pfn.0 as usize]
            .as_mut()
            .expect("touch of free frame");
        entry.last_access = now;
        if write {
            entry.dirty = true;
            // Any prior swap copy is stale once the page is re-written.
            entry.has_swap_copy = false;
        }
    }

    /// Marks the page in `pfn` dirty without refreshing its access time
    /// (used when timestamps come from the scanning daemon, §3.2).
    ///
    /// # Panics
    ///
    /// Panics if the frame is free.
    #[inline]
    pub fn mark_dirty(&mut self, pfn: Pfn) {
        let entry = self.frames[pfn.0 as usize]
            .as_mut()
            .expect("mark_dirty of free frame");
        entry.dirty = true;
        entry.has_swap_copy = false;
    }

    /// First free front-yard slot of `bucket`, if any.
    pub fn front_free_slot(&self, bucket: usize) -> Option<SlotRef> {
        self.yard_free_slot(bucket, Yard::Front)
    }

    /// First free backyard slot of `bucket`, if any.
    pub fn back_free_slot(&self, bucket: usize) -> Option<SlotRef> {
        self.yard_free_slot(bucket, Yard::Back)
    }

    fn yard_slots(&self, bucket: usize, yard: Yard) -> impl Iterator<Item = SlotRef> {
        let n = match yard {
            Yard::Front => self.layout.config().front_slots(),
            Yard::Back => self.layout.config().back_slots(),
        };
        (0..n).map(move |slot| SlotRef { yard, bucket, slot })
    }

    fn yard_free_slot(&self, bucket: usize, yard: Yard) -> Option<SlotRef> {
        self.yard_slots(bucket, yard)
            .find(|&s| self.slot_entry(s).is_none())
    }

    /// The ghost with the oldest access time in `bucket`'s given yard.
    pub fn oldest_ghost_slot(&self, bucket: usize, yard: Yard, horizon: u64) -> Option<SlotRef> {
        self.yard_slots(bucket, yard)
            .filter_map(|s| {
                self.slot_entry(s)
                    .filter(|e| e.is_ghost(horizon))
                    .map(|e| (e.last_access, s))
            })
            .min_by_key(|&(ts, _)| ts)
            .map(|(_, s)| s)
    }

    /// Number of *live* (non-ghost) pages in `bucket`'s backyard.
    ///
    /// Ghosts "do not count towards a bucket's occupancy when choosing the
    /// least-occupied bucket" (§2.4).
    pub fn back_live_count(&self, bucket: usize, horizon: u64) -> usize {
        self.yard_slots(bucket, Yard::Back)
            .filter(|&s| {
                self.slot_entry(s)
                    .is_some_and(|e| !e.is_ghost(horizon))
            })
            .count()
    }

    /// The least-recently-used page over every slot of a candidate set,
    /// ghost or live. Returns its slot and access time.
    ///
    /// This is the Horizon LRU conflict victim: the LRU page "from among
    /// the buckets that can be used for the new allocation" (§2.4).
    pub fn lru_candidate(&self, cands: &CandidateSet) -> Option<(SlotRef, u64)> {
        cands
            .slots(self.layout.config())
            .filter_map(|s| self.slot_entry(s).map(|e| (e.last_access, s)))
            .min_by_key(|&(ts, _)| ts)
            .map(|(ts, s)| (s, ts))
    }

    /// Iterates over occupied frames as `(pfn, entry)` pairs.
    pub fn iter_resident(&self) -> impl Iterator<Item = (Pfn, &FrameEntry)> {
        self.frames
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (Pfn(i as u64), e)))
    }

    /// Counts resident ghosts under a horizon (diagnostics). No page is
    /// a ghost under horizon 0, so that needs no walk.
    pub fn ghost_count(&self, horizon: u64) -> usize {
        if horizon == 0 {
            return 0;
        }
        self.iter_resident()
            .filter(|(_, e)| e.is_ghost(horizon))
            .count()
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

    fn entry(n: u64, at: u64) -> FrameEntry {
        FrameEntry {
            key: key(n),
            last_access: at,
            dirty: false,
            has_swap_copy: false,
        }
    }

    fn table() -> FrameTable {
        FrameTable::new(MemoryLayout::new(IcebergConfig::paper_default(8)))
    }

    #[test]
    fn install_touch_evict_cycle() {
        let mut t = table();
        assert_eq!(t.resident(), 0);
        t.install(Pfn(5), entry(1, 10));
        assert_eq!(t.resident(), 1);
        assert_eq!(t.entry(Pfn(5)).unwrap().last_access, 10);

        t.touch(Pfn(5), 20, true);
        let e = t.entry(Pfn(5)).unwrap();
        assert_eq!(e.last_access, 20);
        assert!(e.dirty);

        let evicted = t.evict(Pfn(5));
        assert_eq!(evicted.key, key(1));
        assert_eq!(t.resident(), 0);
        assert!(t.entry(Pfn(5)).is_none());
    }

    #[test]
    #[should_panic(expected = "occupied frame")]
    fn double_install_panics() {
        let mut t = table();
        t.install(Pfn(0), entry(1, 0));
        t.install(Pfn(0), entry(2, 0));
    }

    #[test]
    #[should_panic(expected = "free frame")]
    fn evict_free_panics() {
        table().evict(Pfn(0));
    }

    #[test]
    fn ghost_definition() {
        let e = entry(1, 5);
        assert!(!e.is_ghost(5), "access at the horizon is live");
        assert!(e.is_ghost(6));
        assert!(!e.is_ghost(0));
    }

    #[test]
    fn write_invalidates_swap_copy() {
        let mut t = table();
        t.install(
            Pfn(0),
            FrameEntry {
                key: key(1),
                last_access: 0,
                dirty: false,
                has_swap_copy: true,
            },
        );
        t.touch(Pfn(0), 1, false);
        assert!(t.entry(Pfn(0)).unwrap().has_swap_copy, "read keeps copy");
        t.touch(Pfn(0), 2, true);
        let e = t.entry(Pfn(0)).unwrap();
        assert!(!e.has_swap_copy, "write staleness");
        assert!(e.dirty);
    }

    #[test]
    fn free_slot_queries() {
        let mut t = table();
        // Fill front slots 0 and 1 of bucket 0.
        t.install(Pfn(0), entry(1, 0));
        t.install(Pfn(1), entry(2, 0));
        let s = t.front_free_slot(0).unwrap();
        assert_eq!(s.slot, 2);
        assert_eq!(s.yard, Yard::Front);
        // Backyard of bucket 0 starts at frame 56.
        t.install(Pfn(56), entry(3, 0));
        assert_eq!(t.back_free_slot(0).unwrap().slot, 1);
    }

    #[test]
    fn oldest_ghost_selection() {
        let mut t = table();
        t.install(Pfn(0), entry(1, 10));
        t.install(Pfn(1), entry(2, 3));
        t.install(Pfn(2), entry(3, 7));
        // Horizon 8: pages with access < 8 (3 and 7) are ghosts.
        let g = t.oldest_ghost_slot(0, Yard::Front, 8).unwrap();
        assert_eq!(g.slot, 1, "oldest ghost is access time 3");
        assert_eq!(t.oldest_ghost_slot(0, Yard::Front, 2), None);
    }

    #[test]
    fn back_live_count_ignores_ghosts() {
        let mut t = table();
        // Bucket 1's backyard frames are 120..128.
        t.install(Pfn(120), entry(1, 2));
        t.install(Pfn(121), entry(2, 9));
        assert_eq!(t.back_live_count(1, 5), 1);
        assert_eq!(t.back_live_count(1, 0), 2);
        assert_eq!(t.back_live_count(1, 100), 0);
    }

    #[test]
    fn lru_candidate_scans_whole_candidate_set() {
        use mosaic_hash::XxFamily;
        let t0 = table();
        let cfg = *t0.layout().config();
        let family = XxFamily::new(cfg.hash_count(), 4);
        let cands = CandidateSet::compute(&family, &cfg, 77);

        let mut t = t0;
        // Occupy two candidate slots with different ages.
        let slots: Vec<SlotRef> = cands.slots(&cfg).collect();
        let a = t.layout().pfn_of_slot(slots[0]);
        let b = t.layout().pfn_of_slot(slots[60]);
        t.install(a, entry(1, 50));
        t.install(b, entry(2, 20));
        let (victim, ts) = t.lru_candidate(&cands).unwrap();
        assert_eq!(ts, 20);
        assert_eq!(t.layout().pfn_of_slot(victim), b);
    }

    #[test]
    fn utilization_and_ghost_count() {
        let mut t = table();
        let total = t.num_frames();
        t.install(Pfn(0), entry(1, 1));
        t.install(Pfn(1), entry(2, 5));
        assert!((t.utilization() - 2.0 / total as f64).abs() < 1e-12);
        assert_eq!(t.ghost_count(3), 1);
    }
}
