//! Per-tenant working-set quotas for isolation under adversarial load.
//!
//! A [`TenantQuota`] is a hard cap on the frames one ASID may hold
//! resident, plus a priority weight that orders reclaim victims
//! (high-priority tenants reclaim last). The [`QuotaTable`] keeps one
//! record per tenant — its quota, its deferral streak and its own LRU
//! list of resident frames, for *self*-eviction (a tenant at its cap
//! makes room out of its own pages before touching anyone else's) — and
//! the backpressure counters ([`QuotaStats`]). Every resident frame has
//! one owner, so the tenants' lists share one [`FrameLru`] link array.
//!
//! The [`PagingCore`](crate::paging::PagingCore) of all three managers
//! holds an `Option<QuotaTable>`; Linux and Mosaic enforce it,
//! [`ClockMemory`](crate::clock::ClockMemory) tracks it but its reclaim
//! ignores it. With `None` every code path is byte-identical to the
//! quota-less manager. Backoff after a deferred admission is *counted,
//! not slept*: exponential in the tenant's consecutive deferrals, capped.

use crate::addr::{Asid, PageKey, Pfn};
use crate::lru::{FrameLru, ListId};
use mosaic_hash::FastHashMap;

/// A tenant's reclaim contract: a hard frame cap plus a priority.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum frames this ASID may hold resident. `0` blocks admission
    /// entirely (every allocation defers).
    pub frames: usize,
    /// Reclaim priority: lower values are evicted *first* when the
    /// allocator must displace an under-quota tenant. Tenants without a
    /// quota entry behave as priority 0.
    pub priority: u8,
}

/// Backpressure and isolation counters one manager accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuotaStats {
    /// Evictions where a tenant at its cap displaced one of its *own*
    /// pages (in-place among its candidate slots, or via the post-install
    /// trim loop) instead of someone else's.
    pub self_evictions: u64,
    /// Conflict evictions where quota/priority ordering picked a victim
    /// *different* from the plain LRU candidate.
    pub quota_evictions: u64,
    /// Allocations deferred with
    /// [`QuotaExceeded`](crate::error::MosaicError::QuotaExceeded).
    pub admissions_deferred: u64,
    /// Abstract backoff ticks charged for deferrals (exponential per
    /// consecutive deferral, counted not slept).
    pub backoff_ticks: u64,
}

impl QuotaStats {
    /// The all-zero value (managers without a quota table report this).
    pub const ZERO: QuotaStats = QuotaStats {
        self_evictions: 0,
        quota_evictions: 0,
        admissions_deferred: 0,
        backoff_ticks: 0,
    };
}

/// Exponent cap for deferral backoff (mirrors the swap-I/O retry
/// backoff cap in the managers).
const MAX_BACKOFF_SHIFT: u32 = 16;

/// One tenant's record in a [`QuotaTable`].
#[derive(Debug, Clone, Copy)]
struct Tenant {
    quota: Option<TenantQuota>,
    /// The tenant's resident frames in the table's lists, least recently
    /// used first.
    list: ListId,
    /// Consecutive deferrals (reset by a successful install).
    deferral_streak: u32,
}

/// Per-ASID quota bookkeeping, kept by the paging core for every manager.
#[derive(Debug, Clone)]
pub struct QuotaTable {
    tenants: FastHashMap<Asid, Tenant>,
    /// Every tracked frame, linked in its owner's list. Pages are tracked
    /// for every ASID once the table exists, so a quota set later starts
    /// from correct counts.
    lists: FrameLru,
    stats: QuotaStats,
}

impl QuotaTable {
    /// An empty table over `num_frames` frames: no quotas, no tracked
    /// pages.
    pub fn new(num_frames: usize) -> Self {
        Self {
            tenants: FastHashMap::default(),
            lists: FrameLru::new(num_frames, 0),
            stats: QuotaStats::ZERO,
        }
    }

    /// `asid`'s record, created (with an empty list) on first use.
    fn tenant(&mut self, asid: Asid) -> &mut Tenant {
        let lists = &mut self.lists;
        self.tenants.entry(asid).or_insert_with(|| Tenant {
            quota: None,
            list: lists.add_list(),
            deferral_streak: 0,
        })
    }

    /// Sets (or replaces) `asid`'s quota.
    pub fn set(&mut self, asid: Asid, quota: TenantQuota) {
        self.tenant(asid).quota = Some(quota);
    }

    /// The quota of `asid`, if one is set.
    pub fn quota(&self, asid: Asid) -> Option<TenantQuota> {
        self.tenants.get(&asid)?.quota
    }

    /// Tracked resident frames of `asid`.
    pub fn resident(&self, asid: Asid) -> usize {
        self.tenants
            .get(&asid)
            .map_or(0, |t| self.lists.len(t.list))
    }

    /// `asid`'s quota and tracked resident frames, if it has a quota.
    fn quota_and_resident(&self, asid: Asid) -> Option<(TenantQuota, usize)> {
        let t = self.tenants.get(&asid)?;
        Some((t.quota?, self.lists.len(t.list)))
    }

    /// Whether `asid` has reached its cap (quota-less tenants never do).
    pub fn at_capacity(&self, asid: Asid) -> bool {
        self.quota_and_resident(asid)
            .is_some_and(|(q, resident)| resident >= q.frames)
    }

    /// Whether `asid` holds *more* than its quota (transiently possible
    /// mid-access, or after a quota is lowered).
    pub fn over_quota(&self, asid: Asid) -> bool {
        self.quota_and_resident(asid)
            .is_some_and(|(q, resident)| resident > q.frames)
    }

    /// Victim-ordering class of `asid`: over-quota tenants first, then
    /// ascending priority. Smaller sorts earlier (evicted sooner).
    pub fn victim_class(&self, asid: Asid) -> (u8, u8) {
        self.quota_and_resident(asid)
            .map_or((1, 0), |(q, resident)| {
                (u8::from(resident <= q.frames), q.priority)
            })
    }

    /// Records the install of `key` in `pfn` at time `now` (also clears
    /// the owner's deferral streak — the admission succeeded).
    pub fn note_install(&mut self, key: PageKey, pfn: Pfn, now: u64) {
        let tenant = self.tenant(key.asid);
        tenant.deferral_streak = 0;
        let list = tenant.list;
        self.lists.touch(list, pfn, now);
    }

    /// Links those of `pages` — `(page, frame, last access)` of resident
    /// pages — that no list holds yet: pages installed before the table
    /// existed. They go in oldest first, ties broken by key hash, so the
    /// order does not depend on the order of `pages`.
    pub fn seed(&mut self, pages: impl IntoIterator<Item = (PageKey, Pfn, u64)>) {
        let mut untracked: Vec<(PageKey, Pfn, u64)> = pages
            .into_iter()
            .filter(|&(_, pfn, _)| !self.lists.contains(pfn))
            .collect();
        untracked.sort_unstable_by_key(|&(key, _, ts)| (ts, key.hash_key()));
        for (key, pfn, ts) in untracked {
            self.note_install(key, pfn, ts);
        }
    }

    /// Records a hit on `key` in `pfn`, if the page is tracked.
    #[inline]
    pub fn note_touch(&mut self, key: PageKey, pfn: Pfn, now: u64) {
        if self.lists.contains(pfn) {
            let list = self.tenants[&key.asid].list;
            self.lists.touch(list, pfn, now);
        }
    }

    /// Records the eviction or release of `key` from `pfn`. Untracked
    /// pages (installed before the table existed and never seeded) are
    /// ignored, keeping the counts exact.
    #[inline]
    pub fn note_evict(&mut self, key: PageKey, pfn: Pfn) {
        if self.lists.contains(pfn) {
            let list = self.tenants[&key.asid].list;
            self.lists.remove(list, pfn);
        }
    }

    /// Forgets `asid`'s quota, tracked pages and deferral streak (process
    /// exit). The record keeps its emptied list for the ASID's next life.
    pub fn remove_tenant(&mut self, asid: Asid) {
        let Some(tenant) = self.tenants.get_mut(&asid) else {
            return;
        };
        tenant.quota = None;
        tenant.deferral_streak = 0;
        while let Some(pfn) = self.lists.oldest(tenant.list) {
            self.lists.remove(tenant.list, pfn);
        }
    }

    /// The frame of the least-recently-used of `asid`'s tracked pages.
    pub fn own_lru_oldest(&self, asid: Asid) -> Option<Pfn> {
        self.lists.oldest(self.tenants.get(&asid)?.list)
    }

    /// `asid`'s tracked frames and their last touches, oldest first.
    pub fn own_lru(&self, asid: Asid) -> impl Iterator<Item = (Pfn, u64)> + '_ {
        self.tenants
            .get(&asid)
            .into_iter()
            .flat_map(|t| self.lists.iter_oldest(t.list))
    }

    /// Whether the page in `pfn` is tracked in its owner's list.
    pub fn tracks(&self, pfn: Pfn) -> bool {
        self.lists.contains(pfn)
    }

    /// Charges one deferred admission for `asid` and returns the backoff
    /// ticks charged (exponential in the consecutive-deferral streak).
    pub fn note_deferred(&mut self, asid: Asid) -> u64 {
        let streak = &mut self.tenant(asid).deferral_streak;
        let ticks = 1u64 << (*streak).min(MAX_BACKOFF_SHIFT);
        *streak = streak.saturating_add(1);
        self.stats.admissions_deferred += 1;
        self.stats.backoff_ticks += ticks;
        ticks
    }

    /// Counts one self-eviction (a capped tenant displaced its own page).
    pub fn note_self_eviction(&mut self) {
        self.stats.self_evictions += 1;
    }

    /// Counts one quota-steered conflict eviction (victim differed from
    /// the plain LRU candidate).
    pub fn note_quota_eviction(&mut self) {
        self.stats.quota_evictions += 1;
    }

    /// The accumulated backpressure counters.
    pub fn stats(&self) -> QuotaStats {
        self.stats
    }

    /// ASIDs that currently have a quota set (for invariant checks).
    pub fn quota_asids(&self) -> impl Iterator<Item = Asid> + '_ {
        self.tenants
            .iter()
            .filter(|(_, t)| t.quota.is_some())
            .map(|(&asid, _)| asid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Vpn;

    fn k(asid: u16, vpn: u64) -> PageKey {
        PageKey::new(Asid(asid), Vpn(vpn))
    }

    /// The frame page `k(asid, vpn)` sits in.
    fn f(asid: u16, vpn: u64) -> Pfn {
        Pfn(u64::from(asid) * 128 + vpn)
    }

    #[test]
    fn counts_follow_install_and_evict() {
        let mut t = QuotaTable::new(2048);
        t.set(Asid(1), TenantQuota { frames: 2, priority: 0 });
        assert!(!t.at_capacity(Asid(1)));
        t.note_install(k(1, 0), f(1, 0), 1);
        t.note_install(k(1, 1), f(1, 1), 2);
        assert_eq!(t.resident(Asid(1)), 2);
        assert!(t.at_capacity(Asid(1)));
        assert!(!t.over_quota(Asid(1)));
        t.note_install(k(1, 2), f(1, 2), 3);
        assert!(t.over_quota(Asid(1)));
        t.note_evict(k(1, 0), f(1, 0));
        assert_eq!(t.resident(Asid(1)), 2);
        // Evicting an untracked key is a no-op.
        t.note_evict(k(9, 0), f(9, 0));
        assert_eq!(t.resident(Asid(1)), 2);
    }

    #[test]
    fn own_lru_orders_by_touch_time() {
        let mut t = QuotaTable::new(2048);
        t.note_install(k(1, 0), f(1, 0), 10);
        t.note_install(k(1, 1), f(1, 1), 20);
        t.note_touch(k(1, 0), f(1, 0), 30);
        assert_eq!(t.own_lru_oldest(Asid(1)), Some(f(1, 1)));
        // Touching an untracked page does not insert it.
        t.note_touch(k(1, 99), f(1, 99), 40);
        assert!(!t.tracks(f(1, 99)));
    }

    #[test]
    fn deferral_backoff_is_exponential_and_resets() {
        let mut t = QuotaTable::new(2048);
        t.set(Asid(2), TenantQuota { frames: 0, priority: 0 });
        assert_eq!(t.note_deferred(Asid(2)), 1);
        assert_eq!(t.note_deferred(Asid(2)), 2);
        assert_eq!(t.note_deferred(Asid(2)), 4);
        assert_eq!(t.stats().admissions_deferred, 3);
        assert_eq!(t.stats().backoff_ticks, 7);
        // A successful install ends the streak.
        t.note_install(k(2, 0), f(2, 0), 1);
        assert_eq!(t.note_deferred(Asid(2)), 1);
    }

    #[test]
    fn backoff_exponent_is_capped() {
        let mut t = QuotaTable::new(2048);
        for _ in 0..40 {
            t.note_deferred(Asid(3));
        }
        assert_eq!(t.note_deferred(Asid(3)), 1 << MAX_BACKOFF_SHIFT);
    }

    #[test]
    fn victim_class_prefers_over_quota_then_low_priority() {
        let mut t = QuotaTable::new(2048);
        t.set(Asid(1), TenantQuota { frames: 1, priority: 3 });
        t.set(Asid(2), TenantQuota { frames: 8, priority: 1 });
        t.note_install(k(1, 0), f(1, 0), 1);
        t.note_install(k(1, 1), f(1, 1), 2); // asid 1 now over quota
        t.note_install(k(2, 0), f(2, 0), 3);
        assert!(t.victim_class(Asid(1)) < t.victim_class(Asid(2)));
        // Among under-quota tenants, lower priority sorts first.
        t.set(Asid(3), TenantQuota { frames: 8, priority: 5 });
        assert!(t.victim_class(Asid(2)) < t.victim_class(Asid(3)));
    }

    #[test]
    fn remove_tenant_clears_all_state() {
        let mut t = QuotaTable::new(2048);
        t.set(Asid(4), TenantQuota { frames: 1, priority: 0 });
        t.note_install(k(4, 0), f(4, 0), 1);
        t.note_deferred(Asid(4));
        t.remove_tenant(Asid(4));
        assert_eq!(t.resident(Asid(4)), 0);
        assert_eq!(t.quota(Asid(4)), None);
        assert_eq!(t.own_lru_oldest(Asid(4)), None);
    }
}
