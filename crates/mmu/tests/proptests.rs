//! Model-based property tests for the MMU structures: the TLB cache and
//! the page-walk cache against reference LRUs, the radix table against a
//! `HashMap`, and the shared 3C classification pass against naive
//! per-instance classifiers.

use mosaic_hash::SplitMix64;
use mosaic_mem::{Asid, Cpfn, Pfn, Vpn};
use mosaic_mmu::tlb::{Associativity, ClassPass, MissClassifier, SetAssocCache, TlbConfig};
use mosaic_mmu::{Arity, MosaicLookup, MosaicTlb, RadixTable, Toc, VanillaTlb, WalkCache};
use mosaic_obs::AttribCategory;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Reference model for a fully-associative LRU cache.
struct RefLru {
    cap: usize,
    /// Most-recent-last.
    order: Vec<u64>,
}

impl RefLru {
    fn access(&mut self, tag: u64) -> bool {
        if let Some(pos) = self.order.iter().position(|&t| t == tag) {
            self.order.remove(pos);
            self.order.push(tag);
            true
        } else {
            if self.order.len() == self.cap {
                self.order.remove(0);
            }
            self.order.push(tag);
            false
        }
    }
}

proptest! {
    /// The fully-associative cache matches a textbook LRU model hit for
    /// hit across arbitrary access streams.
    #[test]
    fn full_assoc_cache_is_exact_lru(tags in prop::collection::vec(0u64..64, 1..500)) {
        let mut cache: SetAssocCache<u64, ()> =
            SetAssocCache::new(TlbConfig::new(16, Associativity::Full));
        let mut reference = RefLru { cap: 16, order: Vec::new() };
        for tag in tags {
            let model_hit = reference.access(tag);
            let hit = cache.lookup(0, tag).is_some();
            prop_assert_eq!(hit, model_hit, "divergence at tag {}", tag);
            if !hit {
                cache.insert(0, tag, ());
            }
            prop_assert!(cache.len() <= 16);
        }
    }

    /// Set-associative caches are exact LRU within every set: the SoA
    /// layout (flat tag/tick/entry stripes, min-tick victim) matches a
    /// per-set textbook model across arbitrary interleavings.
    #[test]
    fn set_assoc_cache_is_per_set_lru(
        accesses in prop::collection::vec((0usize..8, 0u64..32), 1..500),
    ) {
        let mut cache: SetAssocCache<u64, ()> =
            SetAssocCache::new(TlbConfig::new(32, Associativity::Ways(4)));
        let mut models: Vec<RefLru> =
            (0..8).map(|_| RefLru { cap: 4, order: Vec::new() }).collect();
        for (set, tag) in accesses {
            let model_hit = models[set].access(tag);
            let hit = cache.lookup(set, tag).is_some();
            prop_assert_eq!(hit, model_hit, "divergence at set {} tag {}", set, tag);
            if !hit {
                cache.insert(set, tag, ());
            }
        }
    }

    /// Stripes wider than the linear-scan cutoff take the hash-indexed
    /// slot path; it must still be exact LRU against the same model.
    #[test]
    fn wide_full_assoc_cache_is_exact_lru(
        tags in prop::collection::vec(0u64..256, 1..600),
    ) {
        let mut cache: SetAssocCache<u64, ()> =
            SetAssocCache::new(TlbConfig::new(64, Associativity::Full));
        let mut reference = RefLru { cap: 64, order: Vec::new() };
        for tag in tags {
            let model_hit = reference.access(tag);
            let hit = cache.lookup(0, tag).is_some();
            prop_assert_eq!(hit, model_hit, "divergence at tag {}", tag);
            if !hit {
                cache.insert(0, tag, ());
            }
            prop_assert!(cache.len() <= 64);
        }
    }

    /// Set-associative lookups never mix sets: a tag inserted in one set
    /// is invisible to lookups hashed to another.
    #[test]
    fn sets_are_isolated(pairs in prop::collection::vec((0usize..8, any::<u64>()), 1..100)) {
        let mut cache: SetAssocCache<u64, usize> =
            SetAssocCache::new(TlbConfig::new(64, Associativity::Ways(8)));
        let mut written: HashMap<(usize, u64), usize> = HashMap::new();
        for (i, (set, tag)) in pairs.into_iter().enumerate() {
            if cache.peek(set, tag).is_none() {
                cache.insert(set, tag, i);
                written.insert((set, tag), i);
            }
            // A different set never sees this tag (unless separately inserted).
            let other = (set + 1) % 8;
            if !written.contains_key(&(other, tag)) {
                prop_assert!(cache.peek(other, tag).is_none());
            }
        }
    }

    /// RadixTable behaves like a HashMap over its index space.
    #[test]
    fn radix_matches_hashmap(ops in prop::collection::vec((0u64..(1 << 20), any::<u32>(), any::<bool>()), 1..400)) {
        let mut table: RadixTable<u32> = RadixTable::new(20, 7);
        let mut model: HashMap<u64, u32> = HashMap::new();
        for (idx, val, remove) in ops {
            if remove {
                prop_assert_eq!(table.remove(idx), model.remove(&idx));
            } else {
                prop_assert_eq!(table.insert(idx, val), model.insert(idx, val));
            }
            prop_assert_eq!(table.get(idx), model.get(&idx));
            prop_assert_eq!(table.len(), model.len());
        }
    }

    /// The mosaic TLB's ToC bookkeeping: after any fill/invalidate
    /// sequence on one mosaic page, lookup agrees with a per-offset model.
    #[test]
    fn mosaic_subentry_model(ops in prop::collection::vec((0usize..8, any::<bool>()), 1..100)) {
        let arity = Arity::new(8);
        let mut tlb = MosaicTlb::new(TlbConfig::new(16, Associativity::Full), arity);
        let asid = Asid::new(1);
        let mut model = [false; 8];
        // Seed the entry.
        let mut toc = tlb.blank_toc();
        toc.set(0, Cpfn(1));
        tlb.fill_toc(asid, Vpn::new(0), toc);
        model[0] = true;
        for (off, set) in ops {
            let vpn = Vpn::new(off as u64);
            if set {
                if !model[off] {
                    // Must currently be a sub-miss.
                    prop_assert_eq!(tlb.lookup(asid, vpn), MosaicLookup::SubMiss);
                    tlb.fill_sub(asid, vpn, Cpfn(off as u8 + 1));
                    model[off] = true;
                }
            } else {
                tlb.invalidate_sub(asid, vpn);
                model[off] = false;
            }
            for (o, &valid) in model.iter().enumerate() {
                let got = tlb.lookup(asid, Vpn::new(o as u64));
                prop_assert_eq!(got.is_hit(), valid, "offset {}", o);
            }
        }
    }

    /// Vanilla TLB + huge entries: a huge fill covers exactly its 512
    /// pages, and base/huge entries never alias.
    #[test]
    fn huge_entries_cover_exact_span(huge_page in 0u64..16, probe in 0u64..(16 * 512)) {
        let mut tlb = VanillaTlb::new(TlbConfig::new(64, Associativity::Full));
        let asid = Asid::new(1);
        tlb.fill_huge(asid, Vpn::new(huge_page * 512), Pfn::new(huge_page * 512));
        let hit = tlb.lookup(asid, Vpn::new(probe)).is_hit();
        prop_assert_eq!(hit, probe / 512 == huge_page);
    }

    /// Arity split/join is a bijection for all arities and VPNs.
    #[test]
    fn arity_split_bijection(vpn in any::<u64>(), pow in 0u32..9) {
        let arity = Arity::new(1 << pow);
        let vpn = vpn & ((1 << 48) - 1);
        let (mvpn, off) = arity.split(Vpn::new(vpn));
        prop_assert_eq!(arity.vpn_at(mvpn, off), Vpn::new(vpn));
        prop_assert!(off < arity.get());
    }

    /// A ToC's valid count always equals the number of set sub-entries.
    #[test]
    fn toc_valid_count(ops in prop::collection::vec((0usize..16, any::<bool>()), 0..80)) {
        let mut toc = Toc::new(Arity::new(16), Cpfn::UNMAPPED_7BIT);
        let mut model = [false; 16];
        for (off, set) in ops {
            if set {
                toc.set(off, Cpfn(off as u8));
                model[off] = true;
            } else {
                toc.invalidate(off);
                model[off] = false;
            }
        }
        prop_assert_eq!(toc.valid_count(), model.iter().filter(|&&b| b).count());
    }
}

/// Tests-only 3C reference for one TLB instance, classifying the way
/// every instance did before the pass was shared: its own first-touch
/// set and its own `Vec`-LRU shadow at its tag granularity.
struct NaiveClassifier {
    arity: Arity,
    cap: usize,
    seen: HashSet<(Asid, u64)>,
    /// Shadow tags, most-recent last.
    lru: Vec<(Asid, u64)>,
}

impl NaiveClassifier {
    fn new(arity: Arity, cap: usize) -> Self {
        Self {
            arity,
            cap,
            seen: HashSet::new(),
            lru: Vec::new(),
        }
    }

    /// The class this instance would charge if it missed here.
    fn class(&mut self, asid: Asid, vpn: Vpn) -> AttribCategory {
        let first = self.seen.insert((asid, vpn.0));
        let tag = (asid, self.arity.mvpn_of(vpn).0);
        let hit = match self.lru.iter().position(|&t| t == tag) {
            Some(pos) => {
                self.lru.remove(pos);
                true
            }
            None => {
                if self.lru.len() == self.cap {
                    self.lru.remove(0);
                }
                false
            }
        };
        self.lru.push(tag);
        if first {
            AttribCategory::Compulsory
        } else if hit {
            AttribCategory::Conflict
        } else {
            AttribCategory::Capacity
        }
    }

    fn invalidate(&mut self, asid: Asid, vpn: Vpn) {
        let tag = (asid, self.arity.mvpn_of(vpn).0);
        self.lru.retain(|&t| t != tag);
    }

    fn flush_asid(&mut self, asid: Asid) {
        self.lru.retain(|&(a, _)| a != asid);
    }
}

/// One step of a multi-ASID stream with shootdowns mixed in.
#[derive(Debug, Clone, Copy)]
enum StreamOp {
    Access(Asid, Vpn),
    Invalidate(Asid, Vpn),
    FlushAsid(Asid),
    Flush,
}

/// Mostly accesses over three ASIDs: of every 28 ops, 2 are entry
/// invalidations, 1 an ASID shootdown and 1 a full flush. Pages lie at
/// either end of the tag space: 96 from 0 up, 96 from `u64::MAX` down.
fn any_stream_op() -> impl Strategy<Value = StreamOp> {
    (0u8..28, 1u16..4, 0u64..96, any::<bool>()).prop_map(|(kind, a, v, top)| {
        let (asid, vpn) = (Asid::new(a), Vpn::new(if top { u64::MAX - v } else { v }));
        match kind {
            0..=23 => StreamOp::Access(asid, vpn),
            24 | 25 => StreamOp::Invalidate(asid, vpn),
            26 => StreamOp::FlushAsid(asid),
            _ => StreamOp::Flush,
        }
    })
}

/// The oracle's granularities: the VPN, then MVPN-4, MVPN-8 and MVPN-64.
const ORACLE_ARITIES: [usize; 3] = [4, 8, 64];

/// Shadow capacities: degenerate, tiny, odd (not a power of two, below
/// and above 16) and a power of two above 16.
const ORACLE_CAPACITIES: [usize; 5] = [1, 2, 7, 33, 64];

proptest! {
    /// The shared pass classifies every position exactly as a separate
    /// per-instance classifier at each granularity would, across ASIDs,
    /// invalidations, ASID shootdowns and full flushes.
    #[test]
    fn class_pass_matches_per_instance_oracle(
        ops in prop::collection::vec(any_stream_op(), 1..400),
        cap_idx in 0usize..ORACLE_CAPACITIES.len(),
    ) {
        let cap = ORACLE_CAPACITIES[cap_idx];
        let arities = ORACLE_ARITIES.map(Arity::new);
        let mut pass = ClassPass::new(cap, &arities);
        let mut naive: Vec<NaiveClassifier> = std::iter::once(Arity::new(1))
            .chain(arities)
            .map(|a| NaiveClassifier::new(a, cap))
            .collect();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                StreamOp::Access(asid, vpn) => {
                    let class = pass.classify(asid, vpn);
                    for (g, n) in naive.iter_mut().enumerate() {
                        prop_assert_eq!(
                            class.category(g),
                            n.class(asid, vpn),
                            "position {} granularity {}",
                            i,
                            g
                        );
                    }
                }
                StreamOp::Invalidate(asid, vpn) => {
                    pass.invalidate(asid, vpn);
                    naive.iter_mut().for_each(|n| n.invalidate(asid, vpn));
                }
                StreamOp::FlushAsid(asid) => {
                    pass.flush_asid(asid);
                    naive.iter_mut().for_each(|n| n.flush_asid(asid));
                }
                StreamOp::Flush => {
                    pass.flush();
                    naive.iter_mut().for_each(|n| n.lru.clear());
                }
            }
        }
    }

    /// A real fully-associative TLB of the shadow's size never takes a
    /// conflict miss: with whole-ToC fills (no sub-entry misses) each
    /// one holds exactly its shadow's tags.
    #[test]
    fn full_assoc_tlbs_never_take_conflict_misses(
        ops in prop::collection::vec(any_stream_op(), 1..400),
        cap_idx in 0usize..ORACLE_CAPACITIES.len(),
    ) {
        let cap = ORACLE_CAPACITIES[cap_idx];
        let cfg = TlbConfig::new(cap, Associativity::Full);
        let arities = ORACLE_ARITIES.map(Arity::new);
        let mut pass = ClassPass::new(cap, &arities);
        let mut vanilla = VanillaTlb::new(cfg);
        let mut mosaics: Vec<MosaicTlb> = arities.iter().map(|&a| MosaicTlb::new(cfg, a)).collect();
        for op in ops {
            match op {
                StreamOp::Access(asid, vpn) => {
                    let class = pass.classify(asid, vpn);
                    if !vanilla.lookup(asid, vpn).is_hit() {
                        prop_assert_ne!(class.category(0), AttribCategory::Conflict);
                        vanilla.fill_base(asid, vpn, Pfn::new(vpn.0));
                    }
                    for (i, tlb) in mosaics.iter_mut().enumerate() {
                        match tlb.lookup(asid, vpn) {
                            MosaicLookup::Hit(_) => {}
                            MosaicLookup::SubMiss => prop_assert!(false, "whole-ToC fills never sub-miss"),
                            MosaicLookup::Miss => {
                                let g = ClassPass::granularity(Some(i));
                                prop_assert_ne!(class.category(g), AttribCategory::Conflict);
                                let mut toc = tlb.blank_toc();
                                for off in 0..toc.len() {
                                    toc.set(off, Cpfn(1));
                                }
                                tlb.fill_toc(asid, vpn, toc);
                            }
                        }
                    }
                }
                StreamOp::Invalidate(asid, vpn) => {
                    pass.invalidate(asid, vpn);
                    vanilla.invalidate(asid, vpn);
                    mosaics.iter_mut().for_each(|m| m.invalidate_entry(asid, vpn));
                }
                StreamOp::FlushAsid(asid) => {
                    pass.flush_asid(asid);
                    vanilla.flush_asid(asid);
                    mosaics.iter_mut().for_each(|m| {
                        m.flush_asid(asid);
                    });
                }
                StreamOp::Flush => {
                    pass.flush();
                    vanilla.flush();
                    mosaics.iter_mut().for_each(MosaicTlb::flush);
                }
            }
        }
    }
}

/// An index of a `levels`-level table with `bits` index bits per level,
/// one digit per level from the root down (digits past `levels` unused).
fn index_from_digits((a, b, c, d): (u64, u64, u64, u64), levels: u32, bits: u32) -> u64 {
    [a, b, c, d][..levels as usize]
        .iter()
        .fold(0, |index, &digit| index << bits | digit)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `WalkCache::walk` issues exactly the fetches, and counts exactly
    /// the hits and misses, of a naive most-recent-last `Vec` LRU over
    /// the same `(level, index prefix)` keys, at every capacity from 1 to
    /// 32 (both the scanned and the hash-indexed fully associative set),
    /// on the 4-level vanilla and 3-level mosaic table shapes, for mapped
    /// and unmapped indices alike.
    #[test]
    fn walk_cache_matches_naive_lru(
        capacity in 1usize..=32,
        mosaic_shape in any::<bool>(),
        mapped in prop::collection::vec((0u64..4, 0u64..4, 0u64..4, 0u64..8), 1..24),
        walks in prop::collection::vec((0u64..4, 0u64..4, 0u64..4, 0u64..8), 1..200),
    ) {
        let (index_bits, bits) = if mosaic_shape { (30, 10) } else { (36, 9) };
        let mut table: RadixTable<u64> = RadixTable::new(index_bits, bits);
        let levels = table.levels();
        for digits in mapped {
            let index = index_from_digits(digits, levels, bits);
            table.insert(index, index);
        }
        let mut wc = WalkCache::new(capacity);
        let mut model: Vec<(u32, u64)> = Vec::new();
        let touch = |model: &mut Vec<(u32, u64)>, key: (u32, u64)| {
            if let Some(at) = model.iter().position(|&k| k == key) {
                model.remove(at);
            } else if model.len() == capacity {
                model.remove(0);
            }
            model.push(key);
        };
        let (mut hits, mut misses) = (0u64, 0u64);
        for digits in walks {
            let index = index_from_digits(digits, levels, bits);
            let key = |level: u32| (level, index >> ((levels - 1 - level) * bits));
            let mut start = 0;
            for level in (0..levels - 1).rev() {
                if model.contains(&key(level)) {
                    touch(&mut model, key(level));
                    hits += 1;
                    start = level + 1;
                    break;
                }
                misses += 1;
            }
            let raw = table.walk(index);
            for level in 0..raw.levels_touched.min(levels - 1) {
                touch(&mut model, key(level));
            }
            let (value, fetches) = wc.walk(&table, index);
            prop_assert_eq!(value, raw.value);
            prop_assert_eq!(fetches, raw.levels_touched - start, "index {:#x}", index);
            prop_assert_eq!((wc.hits(), wc.misses()), (hits, misses));
            prop_assert_eq!(wc.len(), model.len());
        }
    }
}

/// The attribution experiment's shape: a footprint about 2 % above the
/// shadow capacity (1075 pages over 1056 entries), so almost every
/// reference is a near-capacity hit or an eviction. Both classifiers
/// must agree with the naive one at every position over 200 k
/// references from two ASIDs, one of them at the top of the tag space.
#[test]
fn near_capacity_stream_matches_naive_oracle() {
    const CAP: usize = 1056;
    const FOOTPRINT: u64 = 1075;
    let arities = ORACLE_ARITIES.map(Arity::new);
    let mut pass = ClassPass::new(CAP, &arities);
    let mut naive: Vec<NaiveClassifier> = std::iter::once(Arity::new(1))
        .chain(arities)
        .map(|a| NaiveClassifier::new(a, CAP))
        .collect();
    let obs = mosaic_obs::ObsHandle::enabled();
    obs.set_attrib(true);
    let mut single = MissClassifier::new(CAP, obs.attrib("tlb.single"));
    let mut rng = SplitMix64::new(1056);
    for i in 0..200_000 {
        let page = rng.next_below(FOOTPRINT);
        let (asid, vpn) = if page & 1 == 0 {
            (Asid::new(1), Vpn::new(page))
        } else {
            (Asid::new(2), Vpn::new(u64::MAX - page))
        };
        let class = pass.classify(asid, vpn);
        for (g, n) in naive.iter_mut().enumerate() {
            let want = n.class(asid, vpn);
            assert_eq!(class.category(g), want, "position {i} granularity {g}");
            if g == 0 {
                // The standalone classifier charges misses only: observe
                // every position as one.
                assert_eq!(
                    single.observe(asid, vpn.0, vpn.0, false),
                    Some(want),
                    "position {i} (standalone)"
                );
            }
        }
    }
    assert_eq!(obs.attrib_table("tlb.single").total(), 200_000);
}
