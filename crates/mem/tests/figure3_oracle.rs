//! An executable spec of Figure 3 and Horizon LRU: a naive model of the
//! Mosaic allocator written from the paper's description (§2.2–2.4;
//! DESIGN.md §1, §4, §12), driven in lock step with [`MosaicMemory`].
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
//! writes one, a write makes it stale.
//!
//! Tenants may carry quotas (a frame cap and a reclaim priority). Once
//! the first quota is set, every installed page is counted for its
//! tenant; a quota set later first counts the tenant's older pages,
//! oldest first, ties by key hash. A tenant's own LRU is a linear scan
//! of its counted pages by last touch, then touch order. With quotas:
//!
//! * a tenant at its cap evicts its own least-recently-used candidate
//!   page, else takes a free or ghost slot of steps 1–3 if it has a page
//!   to give back, else defers the access (`QuotaExceeded`, with
//!   backoff exponential in its consecutive deferrals); on a conflict it
//!   defers too. These self-evictions leave the Horizon alone;
//! * the conflict victim is the candidate whose owner sorts first by
//!   (over quota first, then ascending priority), then by age, the first
//!   such in canonical order; the Horizon still rises to the plain LRU
//!   candidate's access time;
//! * after an install, a tenant over its cap evicts its own least
//!   recently used pages until it is back at the cap.
//!
//! `ReservedCapacity` and the scanning daemon are out of scope.

use mosaic_hash::{HashFamily, XxFamily};
use mosaic_mem::prelude::*;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};

#[derive(Clone, Copy)]
struct Frame {
    key: PageKey,
    last: u64,
    dirty: bool,
    /// Touch order: the value of the spec's tick at the page's latest
    /// install, hit or counting.
    seq: u64,
    /// Whether the page counts toward its tenant's quota (the first
    /// quota was set before its install, or its tenant's quota since).
    counted: bool,
}

/// The quota state, present once the first quota is set.
#[derive(Default)]
struct Quotas {
    caps: BTreeMap<Asid, TenantQuota>,
    /// Consecutive deferrals per tenant.
    streak: BTreeMap<Asid, u32>,
    stats: QuotaStats,
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
    quotas: Option<Quotas>,
    tick: u64,
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
            quotas: None,
            tick: 0,
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.tick += 1;
        self.tick
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

    fn owner(&self, f: usize) -> Option<Asid> {
        self.frames[f].map(|e| e.key.asid)
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

    /// `asid`'s counted pages.
    fn counted(&self, asid: Asid) -> usize {
        self.frames
            .iter()
            .flatten()
            .filter(|e| e.counted && e.key.asid == asid)
            .count()
    }

    /// `asid`'s quota and counted pages, if it has a quota.
    fn quota(&self, asid: Asid) -> Option<(TenantQuota, usize)> {
        let cap = *self.quotas.as_ref()?.caps.get(&asid)?;
        Some((cap, self.counted(asid)))
    }

    fn at_quota(&self, asid: Asid) -> bool {
        self.quota(asid).is_some_and(|(q, n)| n >= q.frames)
    }

    fn over_quota(&self, asid: Asid) -> bool {
        self.quota(asid).is_some_and(|(q, n)| n > q.frames)
    }

    /// Reclaim order of a page's owner: over quota first, then ascending
    /// priority (tenants without a quota rank as priority 0).
    fn victim_class(&self, asid: Asid) -> (bool, u8) {
        let priority = self.quota(asid).map_or(0, |(q, _)| q.priority);
        (!self.over_quota(asid), priority)
    }

    /// The least recently used of `asid`'s counted pages: a linear scan
    /// by last touch, then touch order.
    fn own_oldest(&self, asid: Asid) -> Option<usize> {
        (0..self.frames.len())
            .filter(|&f| self.frames[f].is_some_and(|e| e.counted && e.key.asid == asid))
            .min_by_key(|&f| self.frames[f].map(|e| (e.last, e.seq)))
    }

    fn set_quota(&mut self, asid: Asid, quota: TenantQuota) {
        self.quotas
            .get_or_insert_with(Quotas::default)
            .caps
            .insert(asid, quota);
        let mut older: Vec<(u64, u64, usize)> = (0..self.frames.len())
            .filter_map(|f| self.frames[f].map(|e| (e, f)))
            .filter(|(e, _)| e.key.asid == asid && !e.counted)
            .map(|(e, f)| (e.last, e.key.hash_key(), f))
            .collect();
        older.sort_unstable();
        for (_, _, f) in older {
            let seq = self.next_seq();
            let e = self.frames[f].as_mut().expect("resident");
            e.counted = true;
            e.seq = seq;
            self.quota_stats().streak.remove(&asid);
        }
    }

    fn quota_stats(&mut self) -> &mut Quotas {
        self.quotas.as_mut().expect("a quota is set")
    }

    /// The deferral of `asid`'s access: backoff charged, typed error.
    fn defer(&mut self, asid: Asid) -> MosaicError {
        let (quota, resident) = self.quota(asid).expect("a capped tenant");
        let q = self.quota_stats();
        let streak = q.streak.entry(asid).or_insert(0);
        let ticks = 1u64 << (*streak).min(16);
        *streak += 1;
        q.stats.admissions_deferred += 1;
        q.stats.backoff_ticks += ticks;
        MosaicError::QuotaExceeded {
            asid: asid.0,
            resident: resident as u64,
            quota: quota.frames as u64,
        }
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

    /// A capped tenant's eviction of its own page in `f`.
    fn evict_own(&mut self, f: usize) -> PageKey {
        self.quota_stats().stats.self_evictions += 1;
        self.evict(f)
    }

    /// Figure 3 with quotas: the frame for `key`'s fault, and the page
    /// evicted to free it; or the deferral.
    fn place(
        &mut self,
        key: PageKey,
        slots: &[usize],
    ) -> Result<(usize, Option<PageKey>), MosaicError> {
        let asid = key.asid;
        let at_quota = self.at_quota(asid);
        if at_quota {
            // Another tenant's page ranks after all of this tenant's.
            let own = slots
                .iter()
                .copied()
                .filter(|&f| self.frames[f].is_some())
                .min_by_key(|&f| (self.owner(f) != Some(asid), self.last(f)));
            if let Some(f) = own.filter(|&f| self.owner(f) == Some(asid)) {
                return Ok((f, Some(self.evict_own(f))));
            }
            if self.counted(asid) == 0 {
                return Err(self.defer(asid));
            }
        }
        let (front, back) = slots.split_at(self.cfg.front_slots());
        let free = |s: &Self, yard: &[usize]| yard.iter().copied().find(|&f| s.frames[f].is_none());
        if let Some(f) = free(self, front) {
            return Ok((f, None));
        }
        if let Some(f) = self.oldest_ghost(front) {
            return Ok((f, Some(self.evict(f))));
        }
        let yard = back
            .chunks(self.cfg.back_slots())
            .min_by_key(|yard| yard.iter().filter(|&&f| self.live(f)).count())
            .expect("d >= 1");
        if let Some(f) = free(self, yard) {
            return Ok((f, None));
        }
        if let Some(f) = self.oldest_ghost(yard) {
            return Ok((f, Some(self.evict(f))));
        }
        if at_quota {
            return Err(self.defer(asid));
        }
        self.stats.conflicts += 1;
        if self.first_conflict.is_none() {
            self.first_conflict = Some(self.resident());
        }
        let lru = slots
            .iter()
            .copied()
            .min_by_key(|&f| self.last(f))
            .expect("h >= 1");
        let victim = match self.quotas {
            None => lru,
            Some(_) => slots
                .iter()
                .copied()
                .min_by_key(|&f| {
                    let owner = self.owner(f).expect("live");
                    (self.victim_class(owner), self.last(f))
                })
                .expect("h >= 1"),
        };
        if victim != lru {
            self.quota_stats().stats.quota_evictions += 1;
        }
        let ts = self.last(lru);
        let evicted = self.evict(victim);
        self.horizon = self.horizon.max(ts);
        Ok((victim, Some(evicted)))
    }

    /// One access: its outcome and the pages it evicted.
    fn access(
        &mut self,
        key: PageKey,
        write: bool,
        now: u64,
    ) -> (Result<AccessOutcome, MosaicError>, Vec<PageKey>) {
        self.stats.accesses += 1;
        let seq = self.next_seq();
        if let Some(f) = self.frame_of(key) {
            // A write makes any swap copy stale.
            if write {
                self.swap.remove(&key);
            }
            let ghost = !self.live(f);
            let e = self.frames[f].as_mut().expect("resident");
            e.last = now;
            e.dirty |= write;
            e.seq = seq;
            let outcome = if ghost {
                AccessOutcome::GhostHit
            } else {
                AccessOutcome::Hit
            };
            return (Ok(outcome), Vec::new());
        }
        let on_swap = self.swap.contains(&key);
        let (f, victim) = match self.place(key, &self.slots(key)) {
            Ok(placed) => placed,
            Err(e) => return (Err(e), Vec::new()),
        };
        if write {
            self.swap.remove(&key);
        }
        let counted = self.quotas.is_some();
        if counted {
            self.quota_stats().streak.remove(&key.asid);
        }
        self.frames[f] = Some(Frame {
            key,
            last: now,
            dirty: write,
            seq,
            counted,
        });
        let mut evicted: Vec<PageKey> = victim.into_iter().collect();
        // Back down to the cap after taking a non-displacing slot.
        while self.over_quota(key.asid) {
            let own = self.own_oldest(key.asid).expect("over quota holds pages");
            evicted.push(self.evict_own(own));
        }
        let outcome = if on_swap {
            self.stats.major_faults += 1;
            self.stats.swapped_in += 1;
            AccessOutcome::MajorFault
        } else {
            self.stats.minor_faults += 1;
            AccessOutcome::MinorFault
        };
        (Ok(outcome), evicted)
    }
}

/// A reference stream over `footprint` pages of `tenants` address
/// spaces: a cyclic scan interleaved with uniform picks, about a third
/// stores, and a clock that stands still on a quarter of the steps so
/// that equal timestamps, and with them the tie-breaks, are exercised.
fn stream(footprint: u64, tenants: u64, len: usize, seed: u64) -> Vec<(PageKey, bool, u64)> {
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
            let asid = Asid::new(1 + (page % tenants) as u16);
            let key = PageKey::new(asid, Vpn::new(page / tenants));
            (key, rng.next_below(3) == 0, now)
        })
        .collect()
}

/// Drives `mm` and `spec` in lock step over `refs`, setting `quotas` (a
/// tenant's ASID and quota) on both just before reference `quota_at`,
/// and compares them after every access: the outcome (a deferral
/// included), the frame, the evicted pages, the Horizon, the ghost
/// count, the paging and quota counters and where the first conflict
/// happened.
fn lock_step(
    mm: &mut MosaicMemory,
    spec: &mut Spec,
    refs: &[(PageKey, bool, u64)],
    quotas: &[(Asid, TenantQuota)],
    quota_at: usize,
) -> Result<(), TestCaseError> {
    let frames = mm.num_frames() as f64;
    for (i, &(key, write, now)) in refs.iter().enumerate() {
        if i == quota_at {
            for &(asid, quota) in quotas {
                mm.set_quota(asid, quota);
                spec.set_quota(asid, quota);
            }
        }
        let kind = if write { AccessKind::Store } else { AccessKind::Load };
        let outcome = mm.try_access(key, kind, now);
        let (want, evicted) = spec.access(key, write, now);
        prop_assert_eq!(outcome, want, "access {}: outcome", i);
        prop_assert_eq!(
            mm.resident_pfn(key).map(|p| p.0 as usize),
            spec.frame_of(key),
            "access {}: frame", i
        );
        // Same resident count and the spec's victims gone: the two
        // resident sets differ from before by the same pages.
        prop_assert_eq!(mm.resident_frames(), spec.resident(), "access {}: resident", i);
        for v in evicted {
            prop_assert_eq!(mm.resident_pfn(v), None, "access {}: victim", i);
        }
        prop_assert_eq!(mm.horizon(), spec.horizon, "access {}: horizon", i);
        prop_assert_eq!(mm.ghost_count(), spec.ghosts(), "access {}: ghosts", i);
        prop_assert_eq!(*mm.stats(), spec.stats, "access {}: counters", i);
        let quota_stats = spec.quotas.as_ref().map_or(QuotaStats::ZERO, |q| q.stats);
        prop_assert_eq!(mm.quota_stats(), quota_stats, "access {}: quota counters", i);
        prop_assert_eq!(
            mm.utilization_tracker().first_conflict(),
            spec.first_conflict.map(|r| r as f64 / frames),
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
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The manager and the spec agree after every access of two tenants
    /// without quotas.
    #[test]
    fn mosaic_memory_follows_figure3_spec(
        buckets in 6usize..=10,
        load_pct in 95u64..=130,
        seed in any::<u64>(),
        passes in 2usize..=4,
    ) {
        let cfg = IcebergConfig::paper_default(buckets);
        let footprint = cfg.total_slots() as u64 * load_pct / 100;
        let refs = stream(footprint, 2, footprint as usize * passes, seed);
        let mut mm = MosaicMemory::new(MemoryLayout::new(cfg), seed);
        let mut spec = Spec::new(cfg, seed);
        lock_step(&mut mm, &mut spec, &refs, &[], 0)?;
    }

    /// The manager and the spec agree after every access of three
    /// tenants, each without a quota, with a tight one of 0–9 frames (so
    /// that capped faults defer) or with one of 0–150 % of a fair third
    /// of memory, and a priority of 0–2, set before the first access or
    /// halfway through (when the table's first quota must count the
    /// tenants' older pages, and may find a tenant already over its cap).
    /// Footprints reach 190 % of memory so that the uncapped tenants'
    /// share alone can overcommit it and capped faults meet conflicts.
    #[test]
    fn mosaic_memory_follows_figure3_spec_with_quotas(
        buckets in 6usize..=10,
        load_pct in 95u64..=190,
        seed in any::<u64>(),
        passes in 2usize..=3,
        caps in prop::collection::vec((0u8..4, 0usize..=150, 0u8..3), 3..4),
        late in any::<bool>(),
    ) {
        let cfg = IcebergConfig::paper_default(buckets);
        let frames = cfg.total_slots();
        let footprint = frames as u64 * load_pct / 100;
        let refs = stream(footprint, 3, footprint as usize * passes, seed);
        let quotas: Vec<(Asid, TenantQuota)> = caps
            .iter()
            .enumerate()
            .filter(|(_, &(kind, ..))| kind != 0)
            .map(|(t, &(kind, pct, priority))| {
                let cap = if kind == 1 { pct / 16 } else { frames * pct / 300 };
                let quota = TenantQuota { frames: cap, priority };
                (Asid::new(t as u16 + 1), quota)
            })
            .collect();
        let quota_at = if late { refs.len() / 2 } else { 0 };
        let mut mm = MosaicMemory::new(MemoryLayout::new(cfg), seed);
        let mut spec = Spec::new(cfg, seed);
        lock_step(&mut mm, &mut spec, &refs, &quotas, quota_at)?;
    }
}
