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
use std::hint::select_unpredictable;

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

/// An order on pages for [`FrameTable::scan_yard`]. The search for the
/// least page starts from `MAX`, a sentinel rather than a page.
pub trait Rank: Ord + Copy {
    /// The greatest rank.
    const MAX: Self;
}

macro_rules! rank_max {
    ($($t:ty => $max:expr),*) => { $(impl Rank for $t { const MAX: Self = $max; })* };
}
rank_max!(u64 => u64::MAX, (u8, u64) => (u8::MAX, u64::MAX),
    ((u8, u8), u64) => ((u8::MAX, u8::MAX), u64::MAX));

/// What one [`FrameTable::scan_yard`] pass finds in a bucket's yard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct YardScan<K> {
    /// The first free frame.
    pub free: Option<Pfn>,
    /// The oldest ghost's access time and frame.
    pub ghost: Option<(u64, Pfn)>,
    /// Live (non-ghost) pages, the occupancy power-of-d-choices compares:
    /// ghosts do not count (§2.4).
    pub live: usize,
    /// The page of least rank: its rank and frame. When no page ranks
    /// below [`Rank::MAX`], that and the yard's first frame.
    pub least: (K, Pfn),
}

/// Where Figure 3 puts a faulting page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// A free frame (steps 1 and 3).
    Free(Pfn),
    /// A ghost's frame, once the ghost is evicted (steps 2 and 3).
    Ghost(Pfn),
    /// Every candidate slot is live (step 4): the associativity conflict,
    /// with the least-recently-used candidate page and its access time.
    Conflict {
        /// The frame of the candidate-set LRU page.
        lru: Pfn,
        /// That page's access time.
        ts: u64,
    },
}

/// `cands`' backyard buckets in choice order, each once: a repeated
/// choice names the same frames again, later in canonical order, so it
/// can never hold a first minimum or be the first emptiest choice.
fn distinct_backyards(cands: &CandidateSet) -> impl Iterator<Item = usize> + '_ {
    let back = &cands.back_buckets;
    back.iter()
        .enumerate()
        .filter(|&(i, b)| !back[..i].contains(b))
        .map(|(_, &b)| b)
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

    /// One pass over `bucket`'s `yard`, read as the contiguous frames
    /// that back it (frames are bucket-major): the first free frame, the
    /// oldest ghost, the live count and the page of least `rank`. A page
    /// accessed at the horizon is live, and each minimum is the first in
    /// slot order. With `to_free` the pass ends at the first free frame,
    /// and the other fields cover only the frames before it.
    #[inline]
    pub fn scan_yard<K: Rank>(
        &self,
        bucket: usize,
        yard: Yard,
        to_free: bool,
        horizon: u64,
        rank: impl Fn(&FrameEntry) -> K,
    ) -> YardScan<K> {
        let cfg = self.layout.config();
        let base = bucket * cfg.slots_per_bucket();
        let (start, len) = match yard {
            Yard::Front => (base, cfg.front_slots()),
            Yard::Back => (base + cfg.front_slots(), cfg.back_slots()),
        };
        // The minima start from sentinels rather than `Option`s, so each
        // update compiles to conditional moves: which page is older, or a
        // ghost, is a coin flip to the branch predictor. A ghost's access
        // time is below the horizon, so below u64::MAX.
        let (mut free, mut live) = (usize::MAX, 0);
        let (mut ghost, mut ghost_at) = (u64::MAX, 0);
        let (mut least, mut least_at) = (K::MAX, 0);
        for (i, cell) in self.frames[start..start + len].iter().enumerate() {
            let Some(e) = cell else {
                free = free.min(i);
                if to_free {
                    break;
                }
                continue;
            };
            let is_ghost = e.is_ghost(horizon);
            live += usize::from(!is_ghost);
            let ts = select_unpredictable(is_ghost, e.last_access, u64::MAX);
            if ts < ghost {
                (ghost, ghost_at) = (ts, i);
            }
            let k = rank(e);
            if k < least {
                (least, least_at) = (k, i);
            }
        }
        let pfn = |i: usize| Pfn((start + i) as u64);
        YardScan {
            free: (free != usize::MAX).then(|| pfn(free)),
            ghost: (ghost != u64::MAX).then(|| (ghost, pfn(ghost_at))),
            live,
            least: (least, pfn(least_at)),
        }
    }

    /// The candidate page of least `rank` below [`Rank::MAX`], the first
    /// in canonical (CPFN-encoding) order on a tie.
    pub fn candidate_min<K: Rank>(
        &self,
        cands: &CandidateSet,
        rank: impl Fn(&FrameEntry) -> K + Copy,
    ) -> Option<(K, Pfn)> {
        // `min_by_key` keeps the first of equal minima.
        let least = std::iter::once((cands.front_bucket, Yard::Front))
            .chain(distinct_backyards(cands).map(|b| (b, Yard::Back)))
            .map(|(bucket, yard)| self.scan_yard(bucket, yard, false, 0, rank).least)
            .min_by_key(|&(k, _)| k)?;
        (least.0 < K::MAX).then_some(least)
    }

    /// Figure 3 for a page with candidate set `cands`, as a query: (1) a
    /// free front-yard slot, else (2) the oldest front-yard ghost, else
    /// (3) a free slot, or else the oldest ghost, of the emptiest backyard
    /// — the first choice with the fewest live pages — else (4) a
    /// conflict, naming the least-recently-used candidate page, the
    /// Horizon LRU victim "from among the buckets that can be used for
    /// the new allocation" (§2.4). Each distinct bucket is read once.
    pub fn figure3(&self, cands: &CandidateSet, horizon: u64) -> Placement {
        let by_age = |e: &FrameEntry| e.last_access;
        // Step 1 takes a free front slot and reads no further.
        let front = self.scan_yard(cands.front_bucket, Yard::Front, true, horizon, by_age);
        if let Some(pfn) = front.free {
            return Placement::Free(pfn);
        }
        if let Some((_, pfn)) = front.ghost {
            return Placement::Ghost(pfn);
        }
        let mut emptiest: Option<YardScan<u64>> = None;
        let mut lru = front.least;
        for bucket in distinct_backyards(cands) {
            let scan = self.scan_yard(bucket, Yard::Back, false, horizon, by_age);
            if scan.least.0 < lru.0 {
                lru = scan.least;
            }
            if emptiest.is_none_or(|e| scan.live < e.live) {
                emptiest = Some(scan);
            }
        }
        // The emptiest backyard has a free or ghost slot unless it, and
        // so every candidate slot, is live. Every slot is then occupied,
        // so `lru` is exact even if every page was accessed at u64::MAX.
        let (ts, lru) = lru;
        match emptiest.map_or((None, None), |e| (e.free, e.ghost)) {
            (Some(pfn), _) => Placement::Free(pfn),
            (None, Some((_, pfn))) => Placement::Ghost(pfn),
            (None, None) => Placement::Conflict { lru, ts },
        }
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

    fn by_age(e: &FrameEntry) -> u64 {
        e.last_access
    }

    #[test]
    fn free_slot_queries() {
        let mut t = table();
        // Fill front slots 0 and 1 of bucket 0.
        t.install(Pfn(0), entry(1, 0));
        t.install(Pfn(1), entry(2, 0));
        assert_eq!(
            t.scan_yard(0, Yard::Front, false, 0, by_age).free,
            Some(Pfn(2))
        );
        // Backyard of bucket 0 starts at frame 56.
        t.install(Pfn(56), entry(3, 0));
        assert_eq!(
            t.scan_yard(0, Yard::Back, false, 0, by_age).free,
            Some(Pfn(57))
        );
    }

    #[test]
    fn oldest_ghost_selection() {
        let mut t = table();
        t.install(Pfn(0), entry(1, 10));
        t.install(Pfn(1), entry(2, 3));
        t.install(Pfn(2), entry(3, 7));
        t.install(Pfn(3), entry(4, 3));
        // Horizon 8: pages with access < 8 are ghosts; the first of the
        // two oldest wins.
        let scan = t.scan_yard(0, Yard::Front, false, 8, by_age);
        assert_eq!(scan.ghost, Some((3, Pfn(1))), "oldest ghost: time 3");
        assert_eq!(scan.least, (3, Pfn(1)));
        assert_eq!(t.scan_yard(0, Yard::Front, false, 2, by_age).ghost, None);
    }

    #[test]
    fn back_live_count_ignores_ghosts() {
        let mut t = table();
        // Bucket 1's backyard frames are 120..128.
        t.install(Pfn(120), entry(1, 2));
        t.install(Pfn(121), entry(2, 9));
        let live = |horizon| t.scan_yard(1, Yard::Back, false, horizon, by_age).live;
        assert_eq!(live(5), 1);
        assert_eq!(live(0), 2);
        assert_eq!(live(9), 1, "access at the horizon is live");
        assert_eq!(live(100), 0);
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
        assert_eq!(t.candidate_min(&cands, by_age), Some((20, b)));
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
