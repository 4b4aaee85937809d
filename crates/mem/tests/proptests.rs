//! Property tests for the memory managers: conservation laws that must
//! hold for every manager under every access pattern, and model-based
//! checks of the LRU indexes.

use mosaic_mem::clock::ClockMemory;
use mosaic_mem::lru::{FrameLru, LruIndex};
use mosaic_mem::paging::Policy;
use mosaic_mem::prelude::*;
use mosaic_mem::PagingCore;
use mosaic_obs::ObsHandle;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

fn drive(manager: &mut dyn MemoryManager, pattern: &[u64]) {
    let mut now = 0;
    for &p in pattern {
        now += 1;
        let kind = if p % 3 == 0 {
            AccessKind::Load
        } else {
            AccessKind::Store
        };
        manager.access(PageKey::new(Asid::new(1), Vpn::new(p)), kind, now);
    }
}

fn check_conservation(manager: &dyn MemoryManager, pattern: &[u64]) -> Result<(), TestCaseError> {
    let s = manager.stats();
    // Residency bounded by physical frames.
    prop_assert!(manager.resident_frames() <= manager.num_frames());
    // Accesses all accounted for.
    prop_assert_eq!(s.accesses, pattern.len() as u64);
    // Swap-ins never exceed swap-outs plus clean re-reads of swap copies:
    // a page must reach the swap device before it can be read back.
    prop_assert!(s.swapped_in <= s.swapped_out + s.clean_drops);
    // Faults + hits = accesses.
    prop_assert!(s.faults() <= s.accesses);
    // Every touched page is resident or reclaimable, never lost: spot
    // check that re-access works for the most recent pages.
    Ok(())
}

/// A manager's own counts: its paging stats plus the live and ghost
/// hits its access outcomes reported.
type Counts = (PagingStats, u64, u64);

/// Every `<prefix>.*` paging counter on `obs` equals the movement of
/// the manager's counts from `base` (taken when it was bound) to `now`.
fn check_published(
    obs: &ObsHandle,
    prefix: &str,
    now: &Counts,
    base: &Counts,
) -> Result<(), TestCaseError> {
    type Field = (&'static str, fn(&Counts) -> u64);
    const FIELDS: [Field; 11] = [
        ("accesses", |c| c.0.accesses),
        ("hits", |c| c.1),
        ("ghost_hits", |c| c.2),
        ("minor_faults", |c| c.0.minor_faults),
        ("major_faults", |c| c.0.major_faults),
        ("swapped_in", |c| c.0.swapped_in),
        ("swapped_out", |c| c.0.swapped_out),
        ("clean_drops", |c| c.0.clean_drops),
        ("ghost_evictions", |c| c.0.ghost_evictions),
        ("live_evictions", |c| c.0.live_evictions),
        ("conflicts", |c| c.0.conflicts),
    ];
    for (name, get) in FIELDS {
        prop_assert_eq!(
            obs.counter_value(&format!("{prefix}.{name}")),
            get(now) - get(base),
            "{}.{}",
            prefix,
            name
        );
    }
    Ok(())
}

/// A two-tenant access: the second ASID or the first, a page, a store
/// or a load.
type TenantOp = (bool, u64, bool);

fn tenant_access(&(second, vpn, write): &TenantOp) -> (PageKey, AccessKind) {
    let key = PageKey::new(Asid::new(1 + u16::from(second)), Vpn::new(vpn));
    let kind = if write {
        AccessKind::Store
    } else {
        AccessKind::Load
    };
    (key, kind)
}

/// The resident pages of `asid` among `keys`, with their frames.
fn resident_of(
    m: &dyn MemoryManager,
    keys: &BTreeSet<PageKey>,
    asid: Asid,
) -> BTreeMap<PageKey, Pfn> {
    keys.iter()
        .filter(|k| k.asid == asid)
        .filter_map(|&k| m.resident_pfn(k).map(|pfn| (k, pfn)))
        .collect()
}

/// Drives `ops` through a fault-injected manager. After every failed
/// access the manager must verify, the page must not be resident, and
/// whether it is on swap must not have changed.
fn drive_through_faults<P: Policy>(
    m: &mut PagingCore<P>,
    ops: &[TenantOp],
) -> Result<(), TestCaseError> {
    for (i, op) in ops.iter().enumerate() {
        let (key, kind) = tenant_access(op);
        let was_swapped = m.is_swapped(key);
        if let Err(e) = m.try_access(key, kind, i as u64 + 1) {
            prop_assert!(e.is_transient(), "not a retryable error: {}", e);
            if let Err(v) = m.verify() {
                prop_assert!(false, "after `{}` at op {}: {}", e, i, v);
            }
            prop_assert!(
                m.resident_pfn(key).is_none(),
                "failed access mapped {} in",
                key
            );
            prop_assert_eq!(
                m.is_swapped(key),
                was_swapped,
                "failed access moved {} on or off swap",
                key
            );
        }
    }
    if let Err(v) = m.verify() {
        prop_assert!(false, "at the end: {}", v);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exit reclaim, for all three managers, after two tenants have
    /// interleaved past the size of memory: releasing one frees exactly
    /// its resident frames, leaves every page of the other where it was,
    /// does no swap I/O, drops the released tenant's swap copies (each
    /// of its pages comes back zero-filled) and keeps every invariant.
    #[test]
    fn release_asid_frees_exactly_that_tenants_frames(
        ops in prop::collection::vec((any::<bool>(), 0u64..400, any::<bool>()), 1..1500),
        second in any::<bool>(),
    ) {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8)); // 512 frames
        let mut mosaic = MosaicMemory::new(layout, 5);
        let mut linux = LinuxMemory::new(layout);
        let mut clock = ClockMemory::new(layout);
        let (gone, kept) = if second { (Asid::new(2), Asid::new(1)) } else { (Asid::new(1), Asid::new(2)) };
        for m in [&mut mosaic as &mut dyn MemoryManager, &mut linux, &mut clock] {
            let mut touched = BTreeSet::new();
            let mut now = 0;
            for op in &ops {
                let (key, kind) = tenant_access(op);
                now += 1;
                m.access(key, kind, now);
                touched.insert(key);
            }
            let freed = resident_of(m, &touched, gone).len() as u64;
            let kept_before = resident_of(m, &touched, kept);
            let stats = *m.stats();
            prop_assert_eq!(m.release_asid(gone), freed);
            prop_assert!(resident_of(m, &touched, gone).is_empty());
            prop_assert_eq!(resident_of(m, &touched, kept), kept_before);
            prop_assert_eq!(*m.stats(), stats, "exit reclaim does no I/O and no eviction accounting");
            if let Err(e) = m.verify() {
                prop_assert!(false, "after release_asid: {}", e);
            }
            for &key in touched.iter().filter(|k| k.asid == gone) {
                now += 1;
                prop_assert_eq!(m.access(key, AccessKind::Load, now), AccessOutcome::MinorFault);
            }
        }
    }
    /// Conservation laws hold for all three managers on arbitrary streams.
    #[test]
    fn managers_conserve(pattern in prop::collection::vec(0u64..1500, 1..3000)) {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8)); // 512 frames
        let mut mosaic = MosaicMemory::new(layout, 1);
        let mut linux = LinuxMemory::new(layout);
        let mut clock = ClockMemory::new(layout);
        for m in [&mut mosaic as &mut dyn MemoryManager, &mut linux, &mut clock] {
            drive(m, &pattern);
            check_conservation(m, &pattern)?;
        }
    }

    /// Managers count accesses into their own fields and publish per
    /// interval. On one registry with a prefix per manager, every
    /// `publish_obs` leaves each `<prefix>.*` paging counter equal to the
    /// manager's own count since it was bound (traffic before a late
    /// bind never reaches the registry), and a second publish adds
    /// nothing.
    #[test]
    fn published_counters_equal_manager_counts(
        // A page to access, or (about one op in eleven) `None`: publish.
        ops in prop::collection::vec((0u64..1650).prop_map(|p| (p < 1500).then_some(p)), 1..2000),
        bind_at in 0usize..64,
    ) {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8)); // 512 frames
        let obs = ObsHandle::enabled();
        let mut mosaic = MosaicMemory::new(layout, 3);
        let mut linux = LinuxMemory::new(layout);
        let mut clock = ClockMemory::new(layout);
        let managers: [(&str, &mut dyn MemoryManager); 3] =
            [("mosaic", &mut mosaic), ("linux", &mut linux), ("clock", &mut clock)];
        for (prefix, m) in managers {
            let (mut hits, mut ghost_hits, mut now) = (0, 0, 0);
            let mut base = None;
            for (i, op) in ops.iter().enumerate() {
                if i == bind_at {
                    m.set_obs(&obs, prefix);
                    base = Some((*m.stats(), hits, ghost_hits));
                }
                match *op {
                    Some(p) => {
                        now += 1;
                        let kind = if p % 3 == 0 { AccessKind::Load } else { AccessKind::Store };
                        match m.access(PageKey::new(Asid::new(1), Vpn::new(p)), kind, now) {
                            AccessOutcome::Hit => hits += 1,
                            AccessOutcome::GhostHit => ghost_hits += 1,
                            AccessOutcome::MinorFault | AccessOutcome::MajorFault => {}
                        }
                    }
                    None => {
                        m.publish_obs();
                        if let Some(base) = &base {
                            let counts = (*m.stats(), hits, ghost_hits);
                            check_published(&obs, prefix, &counts, base)?;
                            m.publish_obs();
                            check_published(&obs, prefix, &counts, base)?;
                        }
                    }
                }
            }
            if let Some(base) = &base {
                m.publish_obs();
                check_published(&obs, prefix, &(*m.stats(), hits, ghost_hits), base)?;
            }
        }
    }

    /// Re-accessing a page right after touching it is always a hit (or
    /// ghost hit), for every manager and pattern.
    #[test]
    fn immediate_reaccess_hits(pattern in prop::collection::vec(0u64..1000, 1..500)) {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
        let mut mosaic = MosaicMemory::new(layout, 2);
        let mut now = 0;
        for &p in &pattern {
            let key = PageKey::new(Asid::new(1), Vpn::new(p));
            now += 1;
            mosaic.access(key, AccessKind::Store, now);
            now += 1;
            let out = mosaic.access(key, AccessKind::Load, now);
            prop_assert!(matches!(out, AccessOutcome::Hit | AccessOutcome::GhostHit));
        }
    }

    /// Data integrity across swap cycles: a page evicted dirty and
    /// re-faulted must be a major fault (its contents came from swap),
    /// never a silent zero-fill.
    #[test]
    fn dirty_pages_round_trip_through_swap(extra in 1u64..300, seed in any::<u64>()) {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
        let frames = layout.num_frames() as u64;
        let mut mosaic = MosaicMemory::new(layout, seed);
        let mut now = 0;
        // Write all pages, then stream far past capacity.
        for p in 0..frames + extra {
            now += 1;
            mosaic.access(PageKey::new(Asid::new(1), Vpn::new(p)), AccessKind::Store, now);
        }
        // Page 0 was written; it is either still resident or on swap. Its
        // re-access must be Hit/GhostHit/MajorFault — never MinorFault.
        now += 1;
        let out = mosaic.access(PageKey::new(Asid::new(1), Vpn::new(0)), AccessKind::Load, now);
        prop_assert!(
            !matches!(out, AccessOutcome::MinorFault),
            "dirty page lost: {:?}", out
        );
    }

    /// LruIndex agrees with an ordered reference model.
    #[test]
    fn lru_index_matches_model(ops in prop::collection::vec((0u32..50, 1u64..1000, any::<bool>()), 1..300)) {
        let mut lru: LruIndex<u32> = LruIndex::new();
        let mut model: BTreeMap<(u64, u64), u32> = BTreeMap::new();
        let mut pos: std::collections::HashMap<u32, (u64, u64)> = std::collections::HashMap::new();
        let mut tick = 0u64;
        for (key, ts, remove) in ops {
            if remove {
                let expect = pos.remove(&key).map(|p| {
                    model.remove(&p);
                    p.0
                });
                prop_assert_eq!(lru.remove(&key), expect);
            } else {
                tick += 1;
                if let Some(p) = pos.remove(&key) {
                    model.remove(&p);
                }
                model.insert((ts, tick), key);
                pos.insert(key, (ts, tick));
                lru.touch(key, ts);
            }
            prop_assert_eq!(lru.len(), model.len());
            prop_assert_eq!(
                lru.peek_oldest(),
                model.iter().next().map(|(&(t, _), &k)| (k, t))
            );
        }
    }

    /// FrameLru keeps exactly LruIndex's order — (timestamp, touch
    /// order) — under a clock that repeats, advances and rewinds: the
    /// oldest entry and the whole oldest-first order agree after every
    /// touch and remove, over at most 64 frames.
    #[test]
    fn frame_lru_matches_lru_index(
        frames in 1usize..=64,
        ops in prop::collection::vec((0usize..64, -3i64..=3, 0u8..4), 1..400)
    ) {
        let mut lru = FrameLru::new(frames);
        let mut reference: LruIndex<u64> = LruIndex::new();
        let mut now = 100i64;
        for (frame, step, action) in ops {
            let pfn = Pfn::new((frame % frames) as u64);
            now = (now + step).max(0);
            if action == 0 {
                prop_assert_eq!(lru.remove(pfn), reference.remove(&pfn.0));
            } else {
                lru.touch(pfn, now as u64);
                reference.touch(pfn.0, now as u64);
            }
            prop_assert_eq!(lru.len(), reference.len());
            prop_assert_eq!(
                lru.oldest().map(|p| p.0),
                reference.peek_oldest().map(|(k, _)| k)
            );
            let order: Vec<(u64, u64)> = lru.iter_oldest().map(|(p, t)| (p.0, t)).collect();
            let expect: Vec<(u64, u64)> = reference.iter_oldest().collect();
            prop_assert_eq!(order, expect);
        }
    }

    /// LruIndex drains via pop_oldest in exactly the reference model's
    /// order, including timestamp ties (the tiny ts range forces many),
    /// interleaved with touches and removes.
    #[test]
    fn lru_index_pop_oldest_matches_model(
        ops in prop::collection::vec((0u32..20, 1u64..8, 0u8..4), 1..300)
    ) {
        let mut lru: LruIndex<u32> = LruIndex::new();
        let mut model: BTreeMap<(u64, u64), u32> = BTreeMap::new();
        let mut pos: std::collections::HashMap<u32, (u64, u64)> = std::collections::HashMap::new();
        let mut tick = 0u64;
        for (key, ts, action) in ops {
            match action {
                // pop_oldest: both sides must surrender the same entry.
                0 => {
                    let expect = model.iter().next().map(|(&(t, _), &k)| (k, t));
                    if let Some((k, _)) = expect {
                        let p = pos.remove(&k).expect("model desync");
                        model.remove(&p);
                    }
                    prop_assert_eq!(lru.pop_oldest(), expect);
                }
                1 => {
                    let expect = pos.remove(&key).map(|p| {
                        model.remove(&p);
                        p.0
                    });
                    prop_assert_eq!(lru.remove(&key), expect);
                }
                _ => {
                    tick += 1;
                    if let Some(p) = pos.remove(&key) {
                        model.remove(&p);
                    }
                    model.insert((ts, tick), key);
                    pos.insert(key, (ts, tick));
                    lru.touch(key, ts);
                }
            }
            prop_assert_eq!(lru.len(), model.len());
        }
        // Drain the remainder: full eviction order must agree.
        while let Some(popped) = lru.pop_oldest() {
            let expect = model.iter().next().map(|(&(t, _), &k)| (k, t));
            if let Some((k, _)) = expect {
                let p = pos.remove(&k).expect("model desync");
                model.remove(&p);
            }
            prop_assert_eq!(Some(popped), expect);
        }
        prop_assert!(model.is_empty());
    }

    /// Per-tenant quota caps hold after every operation, for both
    /// managers, across arbitrary interleavings of accesses (loads and
    /// stores), tenant exits, and respawns. The census is independent:
    /// we probe residency per touched key rather than trusting the
    /// manager's own accounting (which `verify()` cross-checks anyway).
    #[test]
    fn quota_caps_hold_under_arbitrary_interleavings(
        ops in prop::collection::vec((0usize..3, 0u64..64, 0u8..16), 1..400),
        seed in any::<u64>(),
    ) {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8)); // 512 frames
        let quotas = [5usize, 8, 12];
        let mut mosaic = MosaicMemory::new(layout, seed);
        let mut linux = LinuxMemory::new(layout);
        for m in [&mut mosaic as &mut dyn MemoryManager, &mut linux] {
            let mut touched: Vec<std::collections::HashSet<u64>> =
                vec![std::collections::HashSet::new(); 3];
            for (t, q) in quotas.iter().enumerate() {
                m.set_quota(Asid::new(t as u16 + 1), TenantQuota { frames: *q, priority: t as u8 });
            }
            let mut now = 0u64;
            for &(tenant, vpn, action) in &ops {
                let asid = Asid::new(tenant as u16 + 1);
                if action == 0 {
                    // Exit: every frame comes back, then the slot
                    // respawns under the same quota.
                    m.release_asid(asid);
                    touched[tenant].clear();
                    m.set_quota(asid, TenantQuota {
                        frames: quotas[tenant],
                        priority: tenant as u8,
                    });
                } else {
                    now += 1;
                    let kind = if action % 2 == 0 { AccessKind::Load } else { AccessKind::Store };
                    // Deferred admissions (QuotaExceeded) are fine; any
                    // other error would be a bug in a fault-free run.
                    match m.try_access(PageKey::new(asid, Vpn::new(vpn)), kind, now) {
                        Ok(_) => { touched[tenant].insert(vpn); }
                        Err(MosaicError::QuotaExceeded { .. }) => {}
                        Err(e) => prop_assert!(false, "unexpected error: {e}"),
                    }
                }
                // The cap is a hard invariant at every step: recount
                // residency from outside.
                for (t, pages) in touched.iter().enumerate() {
                    let asid = Asid::new(t as u16 + 1);
                    let resident = pages
                        .iter()
                        .filter(|&&v| m.resident_pfn(PageKey::new(asid, Vpn::new(v))).is_some())
                        .count();
                    prop_assert!(
                        resident <= quotas[t],
                        "tenant {t} holds {resident} frames against a quota of {}",
                        quotas[t]
                    );
                }
            }
            m.verify().expect("structural invariants hold");
            let qs = m.quota_stats();
            prop_assert_eq!(
                qs.admissions_deferred > 0,
                qs.backoff_ticks > 0,
                "deferral and backoff counters move together: {:?}", qs
            );
        }
    }

    /// Ghost accounting: ghost count plus live count equals residency.
    #[test]
    fn ghosts_partition_residency(pattern in prop::collection::vec(0u64..800, 500..2000)) {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8)); // 512 frames
        let mut mosaic = MosaicMemory::new(layout, 7);
        drive(&mut mosaic, &pattern);
        let ghosts = mosaic.ghost_count();
        prop_assert!(ghosts <= mosaic.resident_frames());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The fault path leaves Mosaic and Linux consistent under injected
    /// swap-I/O bursts and allocation failures, with and without a quota
    /// on one tenant (so quota deferrals and quota-forced write-backs
    /// fail too), and every injected fault is accounted as recovered or
    /// unrecovered under each manager's prefix.
    #[test]
    fn failed_accesses_leave_managers_consistent(
        ops in prop::collection::vec((any::<bool>(), 0u64..400, any::<bool>()), 1..1000),
        io_ppm in 0u32..200_000,
        burst in 0u32..6,
        alloc_ppm in 0u32..400_000,
        quota in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8)); // 512 frames
        let plan = FaultPlan::NONE
            .with_io_failures(io_ppm, burst)
            .with_alloc_failures(alloc_ppm);
        let obs = ObsHandle::enabled();
        let mut mosaic = MosaicMemory::new(layout, seed).with_fault_injector(plan, seed);
        let mut linux = LinuxMemory::new(layout).with_fault_injector(plan, seed);
        mosaic.set_obs(&obs, "mosaic");
        linux.set_obs(&obs, "linux");
        if quota {
            let cap = TenantQuota { frames: 64, priority: 0 };
            mosaic.set_quota(Asid::new(1), cap);
            linux.set_quota(Asid::new(1), cap);
        }
        drive_through_faults(&mut mosaic, &ops)?;
        drive_through_faults(&mut linux, &ops)?;
        for prefix in ["mosaic", "linux"] {
            let count = |name: &str| obs.counter_value(&format!("{prefix}.fault.{name}"));
            prop_assert_eq!(
                count("injected"),
                count("recovered") + count("unrecovered"),
                "{}: every injected fault is recovered or not", prefix
            );
        }
    }
}
