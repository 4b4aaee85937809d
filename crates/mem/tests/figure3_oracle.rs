//! An executable spec of Figure 3 and Horizon LRU: a naive model of the
//! Mosaic allocator written from the paper's description (§2.2–2.4;
//! DESIGN.md §1, §4), driven in lock step with [`MosaicMemory`].
//!
//! The model keeps physical memory as a flat vector of frames holding
//! (page, last access, dirty), derives each page's 104 candidate slots
//! from the same hash family, and runs Figure 3 as linear scans:
//!
//! 1. the first free front-yard slot;
//! 2. else the oldest front-yard ghost, evicted;
//! 3. else, in the emptiest backyard (fewest live pages; the first such
//!    choice), the first free slot, else its oldest ghost, evicted;
//! 4. else an associativity conflict: evict the least-recently-used
//!    candidate (the first such in canonical order) and raise the
//!    Horizon to its access time.
//!
//! A page whose last access predates the Horizon is a ghost. The swap
//! device is the set of pages with a valid copy on it: a dirty eviction
//! writes one, a write makes it stale. Quotas, `ReservedCapacity` and
//! the scanning daemon are out of scope.

use mosaic_hash::{HashFamily, XxFamily};
use mosaic_mem::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Clone, Copy)]
struct Frame {
    key: PageKey,
    last: u64,
    dirty: bool,
}

struct Spec {
    cfg: IcebergConfig,
    family: XxFamily,
    frames: Vec<Option<Frame>>,
    horizon: u64,
    /// Pages with a valid copy on the swap device (resident or not).
    swap: HashSet<PageKey>,
    stats: PagingStats,
    /// Resident pages when the first conflict happened.
    first_conflict: Option<usize>,
}

impl Spec {
    fn new(cfg: IcebergConfig, seed: u64) -> Self {
        Self {
            cfg,
            family: XxFamily::new(cfg.hash_count(), seed),
            frames: vec![None; cfg.total_slots()],
            horizon: 0,
            swap: HashSet::new(),
            stats: PagingStats::new(),
            first_conflict: None,
        }
    }

    /// `key`'s candidate frames in canonical order: the front yard's
    /// slots, then each backyard choice's slots.
    fn slots(&self, key: PageKey) -> Vec<usize> {
        let (n, per) = (self.cfg.num_buckets(), self.cfg.slots_per_bucket());
        let front = self.family.hash_to(key.hash_key(), 0, n) * per;
        let mut slots: Vec<usize> = (front..front + self.cfg.front_slots()).collect();
        for choice in 1..=self.cfg.d_choices() {
            let bucket = self.family.hash_to(key.hash_key(), choice, n);
            let base = bucket * per + self.cfg.front_slots();
            slots.extend(base..base + self.cfg.back_slots());
        }
        slots
    }

    fn live(&self, f: usize) -> bool {
        self.frames[f].is_some_and(|e| e.last >= self.horizon)
    }

    fn last(&self, f: usize) -> u64 {
        self.frames[f].map_or(u64::MAX, |e| e.last)
    }

    fn resident(&self) -> usize {
        self.frames.iter().flatten().count()
    }

    fn ghosts(&self) -> usize {
        self.frames
            .iter()
            .flatten()
            .filter(|e| e.last < self.horizon)
            .count()
    }

    fn frame_of(&self, key: PageKey) -> Option<usize> {
        self.slots(key)
            .into_iter()
            .find(|&f| self.frames[f].is_some_and(|e| e.key == key))
    }

    fn oldest_ghost(&self, yard: &[usize]) -> Option<usize> {
        yard.iter()
            .copied()
            .filter(|&f| self.frames[f].is_some() && !self.live(f))
            .min_by_key(|&f| self.last(f))
    }

    fn evict(&mut self, f: usize) -> PageKey {
        let e = self.frames[f].take().expect("evicting a free frame");
        if e.last < self.horizon {
            self.stats.ghost_evictions += 1;
        } else {
            self.stats.live_evictions += 1;
        }
        if e.dirty {
            self.stats.swapped_out += 1;
            self.swap.insert(e.key);
        } else {
            self.stats.clean_drops += 1;
        }
        e.key
    }

    /// Figure 3: the frame for a faulting page, and the page evicted to
    /// free it.
    fn place(&mut self, slots: &[usize]) -> (usize, Option<PageKey>) {
        let (front, back) = slots.split_at(self.cfg.front_slots());
        let free = |s: &Self, yard: &[usize]| yard.iter().copied().find(|&f| s.frames[f].is_none());
        if let Some(f) = free(self, front) {
            return (f, None);
        }
        if let Some(f) = self.oldest_ghost(front) {
            return (f, Some(self.evict(f)));
        }
        let yard = back
            .chunks(self.cfg.back_slots())
            .min_by_key(|yard| yard.iter().filter(|&&f| self.live(f)).count())
            .expect("d >= 1");
        if let Some(f) = free(self, yard) {
            return (f, None);
        }
        if let Some(f) = self.oldest_ghost(yard) {
            return (f, Some(self.evict(f)));
        }
        self.stats.conflicts += 1;
        if self.first_conflict.is_none() {
            self.first_conflict = Some(self.resident());
        }
        let f = slots
            .iter()
            .copied()
            .min_by_key(|&f| self.last(f))
            .expect("h >= 1");
        let ts = self.last(f);
        let victim = self.evict(f);
        self.horizon = self.horizon.max(ts);
        (f, Some(victim))
    }

    /// One access: its outcome and the page it evicted.
    fn access(&mut self, key: PageKey, write: bool, now: u64) -> (AccessOutcome, Option<PageKey>) {
        self.stats.accesses += 1;
        // A write makes any swap copy stale.
        let on_swap = if write {
            self.swap.remove(&key)
        } else {
            self.swap.contains(&key)
        };
        if let Some(f) = self.frame_of(key) {
            let ghost = !self.live(f);
            let e = self.frames[f].as_mut().expect("resident");
            e.last = now;
            e.dirty |= write;
            return (
                if ghost {
                    AccessOutcome::GhostHit
                } else {
                    AccessOutcome::Hit
                },
                None,
            );
        }
        let (f, victim) = self.place(&self.slots(key));
        self.frames[f] = Some(Frame {
            key,
            last: now,
            dirty: write,
        });
        if on_swap {
            self.stats.major_faults += 1;
            self.stats.swapped_in += 1;
            (AccessOutcome::MajorFault, victim)
        } else {
            self.stats.minor_faults += 1;
            (AccessOutcome::MinorFault, victim)
        }
    }
}

/// A reference stream over `footprint` pages of two address spaces: a
/// cyclic scan interleaved with uniform picks, about a third stores, and
/// a clock that stands still on a quarter of the steps so that equal
/// timestamps, and with them the tie-breaks, are exercised.
fn stream(footprint: u64, len: usize, seed: u64) -> Vec<(PageKey, bool, u64)> {
    let mut rng = mosaic_hash::SplitMix64::new(seed);
    let (mut cursor, mut now) = (0, 0);
    (0..len)
        .map(|_| {
            let page = if rng.next_below(2) == 0 {
                cursor = (cursor + 1) % footprint;
                cursor
            } else {
                rng.next_below(footprint)
            };
            now += u64::from(rng.next_below(4) != 0);
            let key = PageKey::new(Asid::new(1 + (page & 1) as u16), Vpn::new(page >> 1));
            (key, rng.next_below(3) == 0, now)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The manager and the spec agree after every access on the outcome,
    /// the frame, the victim, the Horizon, the ghost count, the paging
    /// counters and where the first conflict happened.
    #[test]
    fn mosaic_memory_follows_figure3_spec(
        buckets in 6usize..=10,
        load_pct in 95u64..=130,
        seed in any::<u64>(),
        passes in 2usize..=4,
    ) {
        let cfg = IcebergConfig::paper_default(buckets);
        let frames = cfg.total_slots() as u64;
        let footprint = frames * load_pct / 100;
        let mut mm = MosaicMemory::new(MemoryLayout::new(cfg), seed);
        let mut spec = Spec::new(cfg, seed);
        for (i, (key, write, now)) in stream(footprint, footprint as usize * passes, seed)
            .into_iter()
            .enumerate()
        {
            let kind = if write { AccessKind::Store } else { AccessKind::Load };
            let outcome = mm.access(key, kind, now);
            let (want, victim) = spec.access(key, write, now);
            prop_assert_eq!(outcome, want, "access {}: outcome", i);
            prop_assert_eq!(
                mm.resident_pfn(key).map(|p| p.0 as usize),
                spec.frame_of(key),
                "access {}: frame", i
            );
            // Same resident count and the spec's victim gone: the two
            // resident sets differ from before by the same page.
            prop_assert_eq!(mm.resident_frames(), spec.resident(), "access {}: resident", i);
            if let Some(v) = victim {
                prop_assert_eq!(mm.resident_pfn(v), None, "access {}: victim", i);
            }
            prop_assert_eq!(mm.horizon(), spec.horizon, "access {}: horizon", i);
            prop_assert_eq!(mm.ghost_count(), spec.ghosts(), "access {}: ghosts", i);
            prop_assert_eq!(*mm.stats(), spec.stats, "access {}: counters", i);
            prop_assert_eq!(
                mm.utilization_tracker().first_conflict(),
                spec.first_conflict.map(|r| r as f64 / frames as f64),
                "access {}: first conflict", i
            );
        }
        for (f, e) in spec.frames.iter().enumerate() {
            if let Some(e) = e {
                prop_assert_eq!(mm.resident_pfn(e.key), Some(Pfn::new(f as u64)));
                prop_assert_eq!(mm.is_swapped(e.key), false);
            }
        }
        prop_assert!(mm.verify().is_ok());
    }
}
