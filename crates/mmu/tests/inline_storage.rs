//! Model-based property tests for the TLB storage the batched replay
//! leans on: `SetAssocCache` (plain tag arrays with a live flag per
//! slot, scanned without early exit, slots handed back by index) against
//! a naive per-set LRU list, and `MosaicTlb` (ToCs inline in one flat
//! CPFN arena) against a `HashMap` of sub-entry vectors with the same
//! per-set LRU order.

use mosaic_mem::{Asid, Cpfn, Vpn};
use mosaic_mmu::arity::Mvpn;
use mosaic_mmu::tlb::{Associativity, SetAssocCache, TlbConfig};
use mosaic_mmu::{Arity, MosaicLookup, MosaicTlb, Toc};
use proptest::prelude::*;
use std::collections::HashMap;

/// `(entries, associativity)`: every power-of-two way count from
/// direct-mapped to 32 (16 is the widest linear stripe, 32 takes the
/// hash index), three ways (the scan without a fixed-width kernel), fully
/// associative on both paths, and three twelve-set geometries (the
/// reciprocal set index).
const GEOMETRIES: [(usize, Associativity); 11] = [
    (16, Associativity::Ways(1)),
    (32, Associativity::Ways(2)),
    (32, Associativity::Ways(4)),
    (64, Associativity::Ways(8)),
    (64, Associativity::Ways(16)),
    (64, Associativity::Ways(32)),
    (8, Associativity::Full),
    (64, Associativity::Full),
    (96, Associativity::Ways(8)),
    (24, Associativity::Ways(2)),
    (36, Associativity::Ways(3)),
];

/// One naive set-associative LRU cache: `sets[s]` lists `(tag, payload)`
/// most recently used first.
struct NaiveCache {
    ways: usize,
    sets: Vec<Vec<(u64, u32)>>,
}

impl NaiveCache {
    fn new(cfg: TlbConfig) -> Self {
        Self {
            ways: cfg.ways(),
            sets: (0..cfg.num_sets()).map(|_| Vec::new()).collect(),
        }
    }

    fn set(&mut self, set: usize) -> &mut Vec<(u64, u32)> {
        let n = self.sets.len();
        &mut self.sets[set % n]
    }

    fn lookup(&mut self, set: usize, tag: u64) -> Option<u32> {
        let lines = self.set(set);
        let pos = lines.iter().position(|&(t, _)| t == tag)?;
        let line = lines.remove(pos);
        lines.insert(0, line);
        Some(line.1)
    }

    fn peek(&mut self, set: usize, tag: u64) -> Option<u32> {
        self.set(set)
            .iter()
            .find(|&&(t, _)| t == tag)
            .map(|&(_, p)| p)
    }

    fn insert(&mut self, set: usize, tag: u64, payload: u32) -> Option<(u64, u32)> {
        let ways = self.ways;
        let lines = self.set(set);
        lines.insert(0, (tag, payload));
        (lines.len() > ways).then(|| lines.pop().expect("over-full set"))
    }

    fn invalidate(&mut self, set: usize, tag: u64) -> Option<u32> {
        let lines = self.set(set);
        let pos = lines.iter().position(|&(t, _)| t == tag)?;
        Some(lines.remove(pos).1)
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// Tags from the whole `u64` range, with both extremes drawn often.
fn any_tag() -> impl Strategy<Value = u64> {
    (0u8..5, any::<u64>()).prop_map(|(kind, r)| match kind {
        0 => 0,
        1 => u64::MAX,
        2 => u64::MAX - 1,
        3 => r,
        _ => r % 8,
    })
}

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    /// Look up; on a miss, insert (fill-only-on-miss).
    Access,
    Peek,
    Invalidate,
    /// `lookup_slot_hinted` with an arbitrary hint.
    Hinted(usize),
}

fn any_cache_op() -> impl Strategy<Value = CacheOp> {
    (0u8..10, any::<usize>()).prop_map(|(kind, hint)| match kind {
        0..=5 => CacheOp::Access,
        6 => CacheOp::Peek,
        7 => CacheOp::Invalidate,
        _ => CacheOp::Hinted(hint),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The cache agrees with the naive per-set LRU on every hit, payload,
    /// eviction victim and length, for any tag (including `0` and
    /// `u64::MAX`, so no tag value is reserved) and every geometry; the
    /// slot API hands back in-stripe slots that stay put while resident.
    #[test]
    fn set_assoc_cache_matches_naive_lru(
        geometry in 0..GEOMETRIES.len(),
        pool in prop::collection::vec(any_tag(), 1..24),
        ops in prop::collection::vec(
            (any::<bool>(), any::<usize>(), any::<usize>(), any_cache_op()),
            1..400,
        ),
    ) {
        let (entries, assoc) = GEOMETRIES[geometry];
        let cfg = TlbConfig::new(entries, assoc);
        let mut cache: SetAssocCache<u64, u32> = SetAssocCache::new(cfg);
        let mut model = NaiveCache::new(cfg);
        let mut slots: HashMap<(usize, u64), usize> = HashMap::new();
        let ways = cfg.ways();
        for (i, (small, set, pick, op)) in ops.into_iter().enumerate() {
            // Mostly small set numbers, sometimes the whole range.
            let set = if small { set % 16 } else { set };
            let tag = pool[pick % pool.len()];
            let s = set % cfg.num_sets();
            match op {
                CacheOp::Access => {
                    let want = model.lookup(set, tag);
                    prop_assert_eq!(cache.lookup(set, tag).copied(), want);
                    if want.is_none() {
                        let (slot, evicted) = cache.insert_slot(set, tag, i as u32);
                        prop_assert_eq!(evicted, model.insert(set, tag, i as u32));
                        prop_assert!(slot / ways == s, "slot {} outside set {}", slot, s);
                        if let Some((old, _)) = evicted {
                            prop_assert_eq!(slots.remove(&(s, old)), Some(slot));
                        }
                        slots.insert((s, tag), slot);
                    }
                }
                CacheOp::Peek => {
                    prop_assert_eq!(cache.peek(set, tag).copied(), model.peek(set, tag));
                }
                CacheOp::Invalidate => {
                    prop_assert_eq!(cache.invalidate(set, tag), model.invalidate(set, tag));
                    slots.remove(&(s, tag));
                }
                CacheOp::Hinted(hint) => {
                    let hint = hint % (2 * cfg.entries());
                    let want = model.lookup(set, tag).map(|_| slots[&(s, tag)]);
                    prop_assert_eq!(cache.lookup_slot_hinted(set, tag, hint), want);
                    if let Some(slot) = want {
                        // A right hint takes the fast path to the same slot.
                        prop_assert_eq!(cache.lookup_slot_hinted(set, tag, slot), Some(slot));
                        prop_assert_eq!(cache.lookup_slot(set, tag), Some(slot));
                    }
                }
            }
            prop_assert_eq!(cache.len(), model.len());
        }
        prop_assert_eq!(cache.iter().count(), model.len());
    }
}

/// The model of one mosaic TLB: sub-entries per `(asid, mvpn)` plus the
/// per-set LRU order (most recent first), set = MVPN mod sets.
struct ModelTlb {
    arity: Arity,
    ways: usize,
    order: Vec<Vec<(Asid, Mvpn)>>,
    entries: HashMap<(Asid, Mvpn), Vec<Option<Cpfn>>>,
    evictions: u64,
}

impl ModelTlb {
    fn new(cfg: TlbConfig, arity: Arity) -> Self {
        Self {
            arity,
            ways: cfg.ways(),
            order: (0..cfg.num_sets()).map(|_| Vec::new()).collect(),
            entries: HashMap::new(),
            evictions: 0,
        }
    }

    fn key(&self, asid: Asid, vpn: Vpn) -> ((Asid, Mvpn), usize) {
        let (mvpn, offset) = self.arity.split(vpn);
        ((asid, mvpn), offset)
    }

    fn set(&mut self, mvpn: Mvpn) -> &mut Vec<(Asid, Mvpn)> {
        let n = self.order.len() as u64;
        &mut self.order[(mvpn.0 % n) as usize]
    }

    /// Promotes a resident entry; whether it was resident.
    fn touch(&mut self, key: (Asid, Mvpn)) -> bool {
        let lines = self.set(key.1);
        match lines.iter().position(|&k| k == key) {
            Some(pos) => {
                lines.remove(pos);
                lines.insert(0, key);
                true
            }
            None => false,
        }
    }

    fn lookup(&mut self, asid: Asid, vpn: Vpn) -> MosaicLookup {
        let (key, offset) = self.key(asid, vpn);
        if !self.touch(key) {
            return MosaicLookup::Miss;
        }
        match self.entries[&key][offset] {
            Some(c) => MosaicLookup::Hit(c),
            None => MosaicLookup::SubMiss,
        }
    }

    fn fill(&mut self, asid: Asid, vpn: Vpn, subs: Vec<Option<Cpfn>>) {
        let (key, _) = self.key(asid, vpn);
        let ways = self.ways;
        let lines = self.set(key.1);
        lines.insert(0, key);
        if lines.len() > ways {
            let victim = lines.pop().expect("over-full set");
            self.entries.remove(&victim);
            self.evictions += 1;
        }
        self.entries.insert(key, subs);
    }

    fn resident(&self, asid: Asid, vpn: Vpn) -> bool {
        self.entries.contains_key(&self.key(asid, vpn).0)
    }
}

#[derive(Debug, Clone)]
enum TlbOp {
    Lookup,
    /// Whole-ToC fill (by value or by reference) of the given sub-entries.
    FillToc(Vec<Option<u8>>, bool),
    /// Sub-entry fill, right after its sub-entry miss or (`false`) with
    /// whatever lookup came last, so the TLB's slot hint may be stale.
    FillSub(u8, bool),
    InvalidateSub,
    InvalidateEntry,
    FlushAsid,
}

fn any_tlb_op() -> impl Strategy<Value = TlbOp> {
    // Sparse ToCs: each sub-entry mapped with probability 2/5.
    let sub = (0u8..5, 0u8..0x7F).prop_map(|(k, c)| (k < 2).then_some(c));
    (
        0u8..15,
        prop::collection::vec(sub, 64..65),
        0u8..0x7F,
        any::<bool>(),
    )
        .prop_map(|(kind, subs, c, flag)| match kind {
            0..=4 => TlbOp::Lookup,
            5..=8 => TlbOp::FillToc(subs, flag),
            9..=11 => TlbOp::FillSub(c, flag),
            12 => TlbOp::InvalidateSub,
            13 => TlbOp::InvalidateEntry,
            _ => TlbOp::FlushAsid,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The mosaic TLB agrees with the model on every lookup result,
    /// eviction count, length and `flush_asid` tally across fills (by
    /// value and by reference), sub-entry fills, sub-entry and whole-entry
    /// invalidations and ASID flushes. A fill into an evicted or
    /// invalidated slot carries sparse ToCs, so a leaked sub-entry of the
    /// slot's previous owner would surface as a hit the model lacks.
    #[test]
    fn mosaic_tlb_matches_hashmap_model(
        geometry in 0..GEOMETRIES.len(),
        arity_log in 0u32..7,
        ops in prop::collection::vec((1u16..4, 0u64..96, any_tlb_op()), 1..300),
    ) {
        let (entries, assoc) = GEOMETRIES[geometry];
        let cfg = TlbConfig::new(entries, assoc);
        let arity = Arity::new(1 << arity_log);
        let mut tlb = MosaicTlb::new(cfg, arity);
        let mut model = ModelTlb::new(cfg, arity);
        for (asid, page, op) in ops {
            let asid = Asid::new(asid);
            // Spread pages over MVPNs so sets fill and evict.
            let vpn = Vpn::new(page * u64::from(1u32 << arity_log) / 4);
            match op {
                TlbOp::Lookup => {
                    prop_assert_eq!(tlb.lookup(asid, vpn), model.lookup(asid, vpn));
                }
                TlbOp::FillToc(subs, by_ref) => {
                    if model.resident(asid, vpn) {
                        continue;
                    }
                    let subs: Vec<Option<Cpfn>> =
                        subs[..arity.get()].iter().map(|s| s.map(Cpfn)).collect();
                    let mut toc = tlb.blank_toc();
                    for (o, c) in subs.iter().enumerate() {
                        if let Some(c) = *c {
                            toc.set(o, c);
                        }
                    }
                    if by_ref {
                        tlb.fill_toc_ref(asid, vpn, &toc);
                    } else {
                        tlb.fill_toc(asid, vpn, toc);
                    }
                    model.fill(asid, vpn, subs);
                }
                TlbOp::FillSub(c, fresh) => {
                    if fresh {
                        let got = tlb.lookup(asid, vpn);
                        prop_assert_eq!(got, model.lookup(asid, vpn));
                    }
                    // Fill a resident entry's missing sub-entry; the fill
                    // refreshes the entry's LRU position like a lookup.
                    let (key, offset) = model.key(asid, vpn);
                    if model.entries.get(&key).is_some_and(|subs| subs[offset].is_none()) {
                        tlb.fill_sub(asid, vpn, Cpfn(c));
                        model.touch(key);
                        model.entries.get_mut(&key).expect("resident")[offset] = Some(Cpfn(c));
                    }
                }
                TlbOp::InvalidateSub => {
                    tlb.invalidate_sub(asid, vpn);
                    let (key, offset) = model.key(asid, vpn);
                    if model.touch(key) {
                        model.entries.get_mut(&key).expect("resident")[offset] = None;
                    }
                }
                TlbOp::InvalidateEntry => {
                    tlb.invalidate_entry(asid, vpn);
                    let (key, _) = model.key(asid, vpn);
                    model.set(key.1).retain(|&k| k != key);
                    model.entries.remove(&key);
                }
                TlbOp::FlushAsid => {
                    let want = model.entries.keys().filter(|k| k.0 == asid).count();
                    prop_assert_eq!(tlb.flush_asid(asid), want);
                    for lines in &mut model.order {
                        lines.retain(|k| k.0 != asid);
                    }
                    model.entries.retain(|k, _| k.0 != asid);
                }
            }
            prop_assert_eq!(tlb.len(), model.entries.len());
            prop_assert_eq!(tlb.stats().evictions, model.evictions);
        }
        // Every resident sub-entry reads back exactly (lookups promote
        // in both, so the LRU orders stay in step).
        let resident: Vec<(Asid, Mvpn)> = model.entries.keys().copied().collect();
        for (asid, mvpn) in resident {
            for o in 0..arity.get() {
                let vpn = arity.vpn_at(mvpn, o);
                prop_assert_eq!(tlb.lookup(asid, vpn), model.lookup(asid, vpn));
            }
        }
    }
}

/// A ToC with a sentinel other than the TLB's is refused, not
/// reinterpreted.
#[test]
#[should_panic(expected = "sentinel mismatch")]
fn foreign_sentinel_toc_is_refused() {
    let mut tlb = MosaicTlb::new(TlbConfig::new(16, Associativity::Ways(4)), Arity::new(4));
    let toc = Toc::new(Arity::new(4), Cpfn(0x3F));
    tlb.fill_toc_ref(Asid::new(1), Vpn::new(0), &toc);
}
