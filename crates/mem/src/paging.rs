//! The paging core the three memory managers share.
//!
//! [`PagingCore`] owns everything a demand-paged manager keeps whatever
//! its placement: the frame table, the residency map, the swap set, the
//! paging and resilience counters, quotas, the fault injector and the
//! obs bundle. It implements [`MemoryManager`] once — the hit / fault /
//! swap-in path, one eviction routine (write-back first, then teardown),
//! exit-time release, quota deferral and the invariants every manager
//! shares — so Tables 3–4 run the identical reference stream through the
//! identical paging code, and the managers differ only in what a
//! [`Policy`] supplies: where a faulting page goes and which page makes
//! room for it.
//!
//! * [`WatermarkLru`](crate::linux::WatermarkLru) — a free list,
//!   exact global LRU and watermark batch reclaim ([`LinuxMemory`]);
//! * [`TwoListClock`](crate::clock::TwoListClock) — a free list and the
//!   active/inactive lists ([`ClockMemory`]);
//! * [`IcebergHorizon`](crate::mosaic::IcebergHorizon) — Figure 3's
//!   candidate slots and Horizon LRU ([`MosaicMemory`]).
//!
//! The policy is a type parameter, so each manager's hit path is
//! statically dispatched. Being generic, the core compiles into each
//! crate that drives a manager; the policy hooks and the frame-table,
//! LRU and scanner calls of the hit path are `#[inline]` so they compile
//! into it there rather than staying calls into this crate. The
//! baselines keep no ghosts: their horizon is 0, under which no page is
//! a ghost, so the core's ghost/live split needs no case for them.
//!
//! [`LinuxMemory`]: crate::linux::LinuxMemory
//! [`ClockMemory`]: crate::clock::ClockMemory
//! [`MosaicMemory`]: crate::mosaic::MosaicMemory

use crate::addr::{Asid, PageKey, Pfn};
use crate::error::{MosaicError, MosaicResult};
use crate::fault::{FaultInjector, FaultPlan};
use crate::frame::{FrameEntry, FrameTable};
use crate::invariants;
use crate::layout::MemoryLayout;
use crate::manager::{AccessKind, AccessOutcome, MemoryManager};
use crate::obs::MemObs;
use crate::quota::{QuotaStats, QuotaTable, TenantQuota};
use crate::stats::{PagingStats, ResilienceStats, UtilizationTracker};
use mosaic_hash::{FastHashBuilder, FastHashMap, FastHashSet};
use mosaic_obs::ObsHandle;

/// Placement and victim choice: what distinguishes one memory manager
/// from another. Hooks that need more than the policy's own state
/// receive the whole manager, so a policy reads the frame table and
/// quotas, and evicts through the core's one eviction routine.
pub trait Policy: Sized {
    /// Pages last accessed before the horizon are ghosts: logically
    /// evicted, physically present. Managers without ghosts keep 0.
    fn horizon(&self) -> u64 {
        0
    }

    /// Records a hit on the page `key` in `pfn`: the frame's timestamp
    /// and dirty bit, and whatever recency state the policy keeps.
    fn hit(mm: &mut PagingCore<Self>, key: PageKey, pfn: Pfn, write: bool, now: u64);

    /// An empty frame for the faulting page `key`, evicting to make one
    /// if need be. An error leaves the manager consistent and the access
    /// retryable.
    fn place(mm: &mut PagingCore<Self>, key: PageKey) -> MosaicResult<Pfn>;

    /// `pfn`, handed out by [`Policy::place`], stays empty: the swap-in
    /// read failed.
    fn unplace(&mut self, _pfn: Pfn) {}

    /// `key` was installed in `pfn` at `now`.
    fn installed(mm: &mut PagingCore<Self>, key: PageKey, pfn: Pfn, now: u64);

    /// The fault that installed `key` is fully accounted.
    fn faulted(_mm: &mut PagingCore<Self>, _key: PageKey) {}

    /// The page `key` left `pfn`, evicted or released.
    fn vacated(&mut self, pfn: Pfn, key: PageKey);

    /// The policy's own structural invariants; the core checks the shared
    /// ones first.
    fn verify(mm: &PagingCore<Self>) -> MosaicResult<()>;
}

/// A policy whose manager takes a [`FaultInjector`]: Linux and Mosaic.
/// [`ClockMemory`](crate::clock::ClockMemory) takes none.
pub trait Injectable: Policy {}

/// A demand-paged memory manager: the shared paging state and path, with
/// placement and victim choice from the policy `P`.
#[derive(Debug, Clone)]
pub struct PagingCore<P> {
    pub(crate) frames: FrameTable,
    /// Residency map: page -> backing frame, sized for every frame when
    /// the manager is built so it never rehashes mid-run.
    pub(crate) resident: FastHashMap<PageKey, Pfn>,
    /// Pages whose only valid copy is on the swap device.
    pub(crate) swapped: FastHashSet<PageKey>,
    /// Per-tenant working-set quotas; `None` keeps every path
    /// byte-identical to the quota-less manager.
    pub(crate) quotas: Option<QuotaTable>,
    /// When present, injects deterministic faults into swap I/O (and,
    /// for Mosaic, allocation and cached translations).
    pub(crate) fault: Option<FaultInjector>,
    pub(crate) resilience: ResilienceStats,
    pub(crate) stats: PagingStats,
    /// Live and ghost resident hits, which [`PagingStats`] does not
    /// count: published as `<prefix>.hits` / `<prefix>.ghost_hits`.
    pub(crate) hits: u64,
    pub(crate) ghost_hits: u64,
    pub(crate) util: UtilizationTracker,
    /// Exported metric handles (no-ops unless `set_obs` binds them).
    pub(crate) obs: MemObs,
    /// Timestamp of the in-flight access, for event records emitted from
    /// helpers that do not receive `now` (swap I/O, the alloc gate).
    pub(crate) obs_now: u64,
    /// ASID of the in-flight access, so evictions deep in placement can
    /// be blamed on the tenant whose fault forced them.
    pub(crate) obs_requester: u16,
    pub(crate) policy: P,
}

impl<P: Policy> PagingCore<P> {
    /// An empty manager over `layout` placing pages by `policy`.
    pub(crate) fn from_parts(layout: MemoryLayout, policy: P) -> Self {
        let num_frames = layout.num_frames();
        Self {
            frames: FrameTable::new(layout),
            resident: FastHashMap::with_capacity_and_hasher(num_frames, FastHashBuilder),
            swapped: FastHashSet::default(),
            quotas: None,
            fault: None,
            resilience: ResilienceStats::new(),
            stats: PagingStats::new(),
            hits: 0,
            ghost_hits: 0,
            util: UtilizationTracker::new(),
            obs: MemObs::noop(),
            obs_now: 0,
            obs_requester: 0,
            policy,
        }
    }

    /// The memory layout.
    pub fn layout(&self) -> &MemoryLayout {
        self.frames.layout()
    }

    /// Iterates over all resident pages and their frames (inspection; the
    /// order is unspecified).
    pub fn resident_pages(&self) -> impl Iterator<Item = (PageKey, Pfn)> + '_ {
        self.resident.iter().map(|(&k, &p)| (k, p))
    }

    /// Whether `key`'s only valid copy is on the swap device.
    pub fn is_swapped(&self, key: PageKey) -> bool {
        self.swapped.contains(&key)
    }

    /// Forgets page `key` entirely: frees its frame (if resident) and
    /// drops any swap copy, with **no** swap I/O and no eviction
    /// accounting — the page's contents are dead, not displaced. Returns
    /// whether a frame was actually freed. Process-exit reclaim and
    /// shared-location teardown go through here.
    pub fn release(&mut self, key: PageKey) -> bool {
        self.swapped.remove(&key);
        let Some(&pfn) = self.resident.get(&key) else {
            return false;
        };
        let entry = self.frames.evict(pfn);
        debug_assert_eq!(entry.key, key);
        self.vacate(pfn, key);
        true
    }

    /// Unmaps `key` from the emptied `pfn` everywhere but the frame table.
    fn vacate(&mut self, pfn: Pfn, key: PageKey) {
        self.resident.remove(&key);
        if let Some(q) = self.quotas.as_mut() {
            q.note_evict(key);
        }
        self.policy.vacated(pfn, key);
    }

    /// Performs one (simulated) swap-device transfer, absorbing injected
    /// errors with bounded retries and exponential backoff. The backoff is
    /// counted in abstract ticks rather than slept.
    fn swap_io(&mut self, write: bool) -> MosaicResult<()> {
        let Some(max) = self.fault.as_ref().map(|i| i.plan().max_io_retries) else {
            return Ok(());
        };
        let mut retries = 0u32;
        loop {
            let failed = self.fault.as_mut().is_some_and(|i| i.io_should_fail());
            if !failed {
                return Ok(());
            }
            self.resilience.io_faults_injected += 1;
            self.obs.record_fault_injected(self.obs_now, "io");
            if retries >= max {
                self.resilience.io_failures += 1;
                self.obs
                    .record_fault_unrecovered(self.obs_now, "io", "budget-exhausted");
                return Err(MosaicError::SwapIoFailed { retries, write });
            }
            retries += 1;
            self.resilience.io_retries += 1;
            self.resilience.io_backoff_ticks += 1u64 << retries.min(16);
            self.obs.record_fault_recovered(self.obs_now, "io", "retry");
        }
    }

    /// Evicts the page in `pfn` with full displacement accounting. The
    /// swap write happens (and may fail) before the frame is torn down,
    /// so an I/O error aborts the eviction with the page intact.
    /// `quota_self` marks quota-forced evictions for the
    /// fault-attribution table; other evictions are charged as capacity
    /// or cross-tenant displacement by comparing victim and requester.
    pub(crate) fn evict(&mut self, pfn: Pfn, quota_self: bool) -> MosaicResult<()> {
        let needs_writeback = self
            .frames
            .entry(pfn)
            .ok_or(MosaicError::internal("evicting an unoccupied frame"))?
            .eviction_needs_writeback();
        if needs_writeback {
            self.swap_io(true)?;
        }
        let entry = self.frames.evict(pfn);
        self.vacate(pfn, entry.key);
        self.obs
            .attrib_evicted(self.obs_requester, entry.key.asid.0, quota_self);
        if entry.is_ghost(self.policy.horizon()) {
            self.stats.ghost_evictions += 1;
        } else {
            self.stats.live_evictions += 1;
        }
        if needs_writeback {
            self.stats.swapped_out += 1;
            self.swapped.insert(entry.key);
        } else {
            self.stats.clean_drops += 1;
            if entry.has_swap_copy {
                // The swap copy is still the page's contents.
                self.swapped.insert(entry.key);
            }
            // Otherwise the page was never written: it is all zeros and
            // simply reverts to untouched (next access is a minor fault).
        }
        Ok(())
    }

    /// Evicts `pfn`, a page of the requesting tenant, to keep that tenant
    /// within its quota, and counts the self-eviction.
    pub(crate) fn evict_own(&mut self, pfn: Pfn) -> MosaicResult<()> {
        self.evict(pfn, true)?;
        if let Some(q) = self.quotas.as_mut() {
            q.note_self_eviction();
        }
        self.obs.quota_self_evictions.inc();
        Ok(())
    }

    /// Counts a victim that quota ordering steered away from the one the
    /// policy would have picked without quotas.
    pub(crate) fn note_quota_steered(&mut self) {
        if let Some(q) = self.quotas.as_mut() {
            q.note_quota_eviction();
        }
        self.obs.quota_evictions.inc();
    }

    /// Whether `asid` has reached its working-set quota.
    pub(crate) fn at_quota(&self, asid: Asid) -> bool {
        self.quotas.as_ref().is_some_and(|q| q.at_capacity(asid))
    }

    /// Charges a deferred admission for `asid` (backoff counted, not
    /// slept) and returns the typed backpressure error. No state past the
    /// quota table's streak counter is mutated, so the access can be
    /// retried.
    pub(crate) fn defer_quota(&mut self, asid: Asid) -> MosaicError {
        let (resident, quota) = self
            .quotas
            .as_ref()
            .map(|q| {
                (
                    q.resident(asid) as u64,
                    q.quota(asid).map_or(0, |t| t.frames as u64),
                )
            })
            .unwrap_or((0, 0));
        let ticks = self.quotas.as_mut().map_or(0, |q| q.note_deferred(asid));
        self.obs.record_quota_deferred(self.obs_now, asid.0, ticks);
        MosaicError::QuotaExceeded {
            asid: asid.0,
            resident,
            quota,
        }
    }
}

impl<P: Injectable> PagingCore<P> {
    /// Attaches a deterministic fault injector executing `plan`, seeded by
    /// `seed`. With [`FaultPlan::NONE`] this is behaviorally identical to
    /// not attaching one.
    pub fn with_fault_injector(mut self, plan: FaultPlan, seed: u64) -> Self {
        self.fault = Some(FaultInjector::new(plan, seed));
        self
    }

    /// The fault injector, if one is attached.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }
}

impl<P: Policy> MemoryManager for PagingCore<P> {
    fn try_access(
        &mut self,
        key: PageKey,
        kind: AccessKind,
        now: u64,
    ) -> MosaicResult<AccessOutcome> {
        self.stats.accesses += 1;
        self.obs_now = now;
        self.obs_requester = key.asid.0;

        if let Some(&pfn) = self.resident.get(&key) {
            let was_ghost = self
                .frames
                .entry(pfn)
                .ok_or(MosaicError::internal(
                    "resident map points at unoccupied frame",
                ))?
                .is_ghost(self.policy.horizon());
            P::hit(self, key, pfn, kind.is_write(), now);
            if let Some(q) = self.quotas.as_mut() {
                q.note_touch(key, now);
            }
            return Ok(if was_ghost {
                self.ghost_hits += 1;
                AccessOutcome::GhostHit
            } else {
                self.hits += 1;
                AccessOutcome::Hit
            });
        }

        let from_swap = self.swapped.contains(&key);
        let pfn = P::place(self, key)?;
        if from_swap {
            // The swap-in read; if it fails for good the page stays on the
            // swap device and the frame stays empty — consistent, and the
            // access can be retried.
            if let Err(e) = self.swap_io(false) {
                self.policy.unplace(pfn);
                return Err(e);
            }
            self.swapped.remove(&key);
        }
        self.frames.install(
            pfn,
            FrameEntry {
                key,
                last_access: now,
                dirty: kind.is_write(),
                has_swap_copy: from_swap && !kind.is_write(),
            },
        );
        self.resident.insert(key, pfn);
        if let Some(q) = self.quotas.as_mut() {
            q.note_install(key, now);
        }
        P::installed(self, key, pfn, now);
        let outcome = if from_swap {
            self.stats.major_faults += 1;
            self.stats.swapped_in += 1;
            AccessOutcome::MajorFault
        } else {
            self.stats.minor_faults += 1;
            self.obs.attrib_cold(key.asid.0);
            AccessOutcome::MinorFault
        };
        P::faulted(self, key);
        Ok(outcome)
    }

    fn resident_pfn(&self, key: PageKey) -> Option<Pfn> {
        self.resident.get(&key).copied()
    }

    fn release_asid(&mut self, asid: Asid) -> u64 {
        let mut keys: Vec<PageKey> = self
            .resident
            .keys()
            .chain(self.swapped.iter())
            .filter(|k| k.asid == asid)
            .copied()
            .collect();
        // Freed frames return in key order, so later placements do not
        // depend on hash-map iteration order (byte-identical replays need
        // this). The hash key is injective today (asserted in
        // PageKey::new); the (asid, vpn) tiebreak keeps the order total
        // even if the packing ever stops being so.
        keys.sort_unstable_by_key(|k| (k.hash_key(), k.asid.0, k.vpn.0));
        let mut freed = 0;
        for key in keys {
            if self.release(key) {
                freed += 1;
            }
        }
        if let Some(q) = self.quotas.as_mut() {
            q.remove_tenant(asid);
        }
        self.obs.attrib_shootdown(asid.0, freed);
        freed
    }

    fn set_quota(&mut self, asid: Asid, quota: TenantQuota) {
        let table = self.quotas.get_or_insert_with(QuotaTable::new);
        table.set(asid, quota);
        if table.resident(asid) == 0 {
            // Seed the table from pages resident before the quota existed,
            // in a deterministic (timestamp, key) order so replays agree.
            let mut seed: Vec<(u64, PageKey)> = self
                .resident
                .iter()
                .filter(|(k, _)| k.asid == asid)
                .filter_map(|(&k, &pfn)| self.frames.entry(pfn).map(|e| (e.last_access, k)))
                .collect();
            seed.sort_unstable_by_key(|&(ts, k)| (ts, k.hash_key()));
            if let Some(table) = self.quotas.as_mut() {
                for (ts, k) in seed {
                    table.note_install(k, ts);
                }
            }
        }
    }

    fn quota_stats(&self) -> QuotaStats {
        self.quotas.as_ref().map_or(QuotaStats::ZERO, |q| q.stats())
    }

    fn num_frames(&self) -> usize {
        self.frames.num_frames()
    }

    fn resident_frames(&self) -> usize {
        self.frames.resident()
    }

    fn stats(&self) -> &PagingStats {
        &self.stats
    }

    fn resilience(&self) -> &ResilienceStats {
        &self.resilience
    }

    fn verify(&self) -> MosaicResult<()> {
        invariants::check_frame_bijection(&self.frames, &self.resident)?;
        invariants::check_swap_disjoint(&self.resident, &self.swapped)?;
        if let Some(q) = self.quotas.as_ref() {
            invariants::check_quota_accounting(q, &self.resident)?;
        }
        P::verify(self)
    }

    fn set_obs(&mut self, obs: &ObsHandle, prefix: &str) {
        self.obs = MemObs::register(obs, prefix);
        self.obs
            .mark_published(&self.stats, self.hits, self.ghost_hits);
    }

    fn publish_obs(&self) {
        self.obs
            .publish_counts(&self.stats, self.hits, self.ghost_hits);
        self.obs.util.set(self.utilization());
        let horizon = self.policy.horizon();
        self.obs.horizon.set(horizon as f64);
        self.obs.ghosts.set(self.frames.ghost_count(horizon) as f64);
        if let Some(inj) = self.fault.as_ref() {
            self.obs
                .io_burst_remaining
                .set(f64::from(inj.burst_remaining()));
            self.obs
                .retry_budget_spent
                .set(self.resilience.retries() as f64);
            self.obs
                .io_backoff_ticks
                .set(self.resilience.io_backoff_ticks as f64);
        }
    }

    fn utilization_tracker(&self) -> &UtilizationTracker {
        &self.util
    }

    fn sample_utilization(&mut self) {
        let u = self.utilization();
        self.util.sample(u);
    }
}
