//! The fragmentation experiment: the paper's *motivation* made measurable.
//!
//! §1 argues that contiguity-based reach techniques — transparent huge
//! pages, TLB coalescing — lose their gains when physical memory is
//! fragmented (citing Zhu et al.'s Redis result: 2 MiB pages drop from
//! +29 % to −11 % at 50 % fragmentation), while mosaic pages need no
//! contiguity at all. This module pre-fragments physical memory with
//! immovable filler pages and runs one workload through four designs:
//!
//! * **Vanilla-4K** — conventional TLB, base pages only;
//! * **THP** — conventional TLB; each 2 MiB virtual region is promoted to
//!   a huge mapping iff an aligned 512-frame free run still exists;
//! * **CoLT** — coalescing TLB packing whatever physical contiguity the
//!   first-fit allocator happens to produce;
//! * **Mosaic-4** — hash-constrained allocation; contiguity-free.

use mosaic_hash::SplitMix64;
use mosaic_mem::{
    AccessKind, Asid, IcebergConfig, MemoryLayout, MemoryManager, MosaicMemory, PageKey, Pfn,
    Vpn, PAGE_SIZE,
};
use mosaic_mmu::{
    Arity, Associativity, CoalescedTlb, MosaicLookup, MosaicTlb, TlbConfig, Toc, VanillaTlb,
};
use mosaic_workloads::Workload;
use std::collections::{BTreeSet, HashMap, HashSet};

const ASID: Asid = Asid(1);

/// Frames per 2 MiB huge page.
const HUGE_SPAN: u64 = 512;

/// Fragmentation-sweep parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FragConfig {
    /// TLB entries for every design.
    pub tlb_entries: usize,
    /// TLB associativity for every design.
    pub associativity: Associativity,
    /// CoLT window and mosaic arity (kept equal for a fair fight).
    pub span: usize,
    /// Fraction of physical frames pre-occupied by immovable filler.
    pub fragmentation: f64,
    /// Run seed.
    pub seed: u64,
}

impl FragConfig {
    /// A moderate default: 256-entry 8-way TLBs, span 4.
    pub fn new(fragmentation: f64, seed: u64) -> Self {
        assert!(
            (0.0..0.95).contains(&fragmentation),
            "fragmentation must be in [0, 0.95)"
        );
        Self {
            tlb_entries: 256,
            associativity: Associativity::Ways(8),
            span: 4,
            fragmentation,
            seed,
        }
    }
}

/// Miss counts (and contiguity diagnostics) for one fragmentation level.
#[derive(Debug, Clone, PartialEq)]
pub struct FragResult {
    /// The configured fragmentation level.
    pub fragmentation: f64,
    /// Conventional TLB, 4 KiB pages only.
    pub vanilla_misses: u64,
    /// Conventional TLB with opportunistic 2 MiB promotion.
    pub thp_misses: u64,
    /// Coalescing TLB over the 4 KiB allocations.
    pub colt_misses: u64,
    /// Mosaic TLB (hash-constrained allocation).
    pub mosaic_misses: u64,
    /// 2 MiB regions the THP world managed to promote / total regions.
    pub huge_formed: u64,
    /// Total 2 MiB virtual regions the workload touched.
    pub huge_regions: u64,
    /// Mean translations packed per resident CoLT entry at the end.
    pub colt_mean_pack: f64,
    /// Workload accesses driven.
    pub accesses: u64,
}

/// An address-ordered first-fit 4 KiB frame allocator over a fragmented
/// pool (the buddy-world substrate vanilla/THP/CoLT allocate from).
#[derive(Debug, Clone)]
struct FirstFitPool {
    free: BTreeSet<u64>,
    /// 2 MiB blocks with every frame still free (for THP promotion).
    free_blocks: HashSet<u64>,
}

/// Granularity of filler allocations: real fragmentation is clustered
/// (the buddy allocator hands out runs), so filler occupies contiguous
/// 64-frame chunks rather than single random pages. Page-granular random
/// filler would annihilate every 2 MiB block at ~5 % fragmentation,
/// which is the *worst* case, not the common one.
const FILLER_CHUNK: u64 = 64;

impl FirstFitPool {
    /// Builds a pool of `frames` frames with `filler` of them pre-occupied
    /// by immovable chunk-granular filler.
    fn new(frames: u64, filler: u64, rng: &mut SplitMix64) -> Self {
        let mut free: BTreeSet<u64> = (0..frames).collect();
        let mut occupied = 0;
        let chunks = frames / FILLER_CHUNK;
        // ~70 % of filler in 64-frame chunks (buddy-style long-lived
        // allocations), ~30 % as scattered small allocations that break
        // up the remaining runs — the mixed size distribution real
        // fragmentation studies report.
        let chunked_target = filler * 7 / 10;
        while occupied + FILLER_CHUNK <= chunked_target {
            let base = rng.next_below(chunks) * FILLER_CHUNK;
            let taken: Vec<u64> = (base..base + FILLER_CHUNK)
                .filter(|f| free.contains(f))
                .collect();
            if taken.is_empty() {
                continue;
            }
            for f in taken {
                free.remove(&f);
                occupied += 1;
            }
        }
        // Top up the remainder page-granularly.
        while occupied < filler {
            let f = rng.next_below(frames);
            if free.remove(&f) {
                occupied += 1;
            }
        }
        let mut free_blocks = HashSet::new();
        for block in 0..frames / HUGE_SPAN {
            let base = block * HUGE_SPAN;
            if (base..base + HUGE_SPAN).all(|f| free.contains(&f)) {
                free_blocks.insert(block);
            }
        }
        Self { free, free_blocks }
    }

    /// Allocates the lowest free frame.
    fn alloc_base(&mut self) -> Pfn {
        let f = *self.free.iter().next().expect("pool exhausted");
        self.free.remove(&f);
        self.free_blocks.remove(&(f / HUGE_SPAN));
        Pfn(f)
    }

    /// Tries to allocate an aligned 512-frame run (a huge page).
    fn alloc_huge(&mut self) -> Option<Pfn> {
        let &block = self.free_blocks.iter().next()?;
        self.free_blocks.remove(&block);
        let base = block * HUGE_SPAN;
        for f in base..base + HUGE_SPAN {
            self.free.remove(&f);
        }
        Some(Pfn(base))
    }
}

/// Runs one workload at one fragmentation level through all four designs.
///
/// # Panics
///
/// Panics if the workload over-commits the (auto-sized) pools.
pub fn run_frag(cfg: &FragConfig, workload: &mut dyn Workload) -> FragResult {
    let meta = workload.meta();
    let footprint = meta.footprint_bytes.div_ceil(PAGE_SIZE) + 8;
    // Pool sized so the free portion holds the footprint with headroom,
    // rounded up to whole 2 MiB blocks (plus one) so an unfragmented pool
    // can promote every region the footprint spans.
    let raw = ((footprint as f64) * 1.10 / (1.0 - cfg.fragmentation)) as u64;
    let frames = (raw.div_ceil(HUGE_SPAN) + 1) * HUGE_SPAN;
    let filler = (frames as f64 * cfg.fragmentation) as u64;
    let mut rng = SplitMix64::new(cfg.seed);

    // Buddy worlds: one 4 KiB-only pool (vanilla + CoLT), one THP pool.
    let mut pool4k = FirstFitPool::new(frames, filler, &mut rng);
    let mut rng_thp = SplitMix64::new(cfg.seed); // identical filler pattern
    let mut pool_thp = FirstFitPool::new(frames, filler, &mut rng_thp);

    // Mosaic world: a hashed pool with the same filler *load*.
    let mosaic_frames = (((footprint + filler) as f64) * 1.12) as usize;
    let layout = MemoryLayout::new(IcebergConfig::default())
        .with_at_least_frames(mosaic_frames.max(1024));
    let mut mosaic_mem = MosaicMemory::new(layout, cfg.seed ^ 0xF11);
    {
        // Filler pages under other ASIDs, hashed like any other page.
        let mut placed = 0u64;
        let mut k = 0u64;
        while placed < filler {
            mosaic_mem.access(
                PageKey::new(Asid(999), Vpn(k)),
                AccessKind::Store,
                placed + 1,
            );
            k += 1;
            placed += 1;
        }
    }

    let tlb_cfg = TlbConfig::new(cfg.tlb_entries, cfg.associativity);
    let arity = Arity::new(cfg.span);
    let mut vanilla = VanillaTlb::new(tlb_cfg);
    let mut thp = VanillaTlb::new(tlb_cfg);
    let mut colt = CoalescedTlb::new(tlb_cfg, cfg.span);
    let mut mosaic_tlb = MosaicTlb::new(tlb_cfg, arity);

    // Page tables (mappings) per world.
    let mut map4k: HashMap<u64, Pfn> = HashMap::new();
    let mut thp_huge: HashMap<u64, Option<Pfn>> = HashMap::new(); // region -> promoted base
    let mut map_thp_base: HashMap<u64, Pfn> = HashMap::new();
    let mut accesses = 0u64;
    let mut now = filler;
    // CoLT neighbor-window scratch, reused across misses instead of
    // allocating a fresh Vec per miss on the hot path.
    let mut neighbors: Vec<Option<Pfn>> = Vec::with_capacity(cfg.span);

    workload.run(&mut |a| {
        accesses += 1;
        now += 1;
        let vpn = a.addr.vpn();

        // -- demand mapping, all worlds --
        let pfn4k = *map4k
            .entry(vpn.0)
            .or_insert_with(|| pool4k.alloc_base());
        let region = vpn.0 / HUGE_SPAN;
        let huge_base = *thp_huge
            .entry(region)
            .or_insert_with(|| pool_thp.alloc_huge());
        let thp_translation: (bool, Pfn) = match huge_base {
            Some(base) => (true, base),
            None => (
                false,
                *map_thp_base
                    .entry(vpn.0)
                    .or_insert_with(|| pool_thp.alloc_base()),
            ),
        };
        let key = PageKey::new(ASID, vpn);
        mosaic_mem.access(key, a.kind, now);
        assert_eq!(
            mosaic_mem.stats().evictions(),
            0,
            "mosaic pool over-committed; widen headroom"
        );

        // -- vanilla 4K --
        if !vanilla.lookup(ASID, vpn).is_hit() {
            vanilla.fill_base(ASID, vpn, pfn4k);
        }
        // -- THP --
        if !thp.lookup(ASID, vpn).is_hit() {
            match thp_translation {
                (true, base) => thp.fill_huge(ASID, vpn, base),
                (false, pfn) => thp.fill_base(ASID, vpn, pfn),
            }
        }
        // -- CoLT --
        if !colt.lookup(ASID, vpn).is_hit() {
            let window_base = vpn.0 / cfg.span as u64 * cfg.span as u64;
            neighbors.clear();
            neighbors
                .extend((0..cfg.span as u64).map(|j| map4k.get(&(window_base + j)).copied()));
            colt.fill(ASID, vpn, pfn4k, &neighbors);
        }
        // -- Mosaic --
        match mosaic_tlb.lookup(ASID, vpn) {
            MosaicLookup::Hit(_) => {}
            MosaicLookup::SubMiss => {
                let cpfn = mosaic_mem.cpfn_of(key).expect("just mapped");
                mosaic_tlb.fill_sub(ASID, vpn, cpfn);
            }
            MosaicLookup::Miss => {
                let (mvpn, _) = arity.split(vpn);
                let mut toc = Toc::new(arity, mosaic_mem.codec().unmapped());
                for off in 0..arity.get() {
                    let k = PageKey::new(ASID, arity.vpn_at(mvpn, off));
                    if let Some(c) = mosaic_mem.cpfn_of(k) {
                        toc.set(off, c);
                    }
                }
                mosaic_tlb.fill_toc(ASID, vpn, toc);
            }
        }
    });

    let huge_formed = thp_huge.values().filter(|v| v.is_some()).count() as u64;
    FragResult {
        fragmentation: cfg.fragmentation,
        vanilla_misses: vanilla.stats().misses,
        thp_misses: thp.stats().misses,
        colt_misses: colt.stats().misses,
        mosaic_misses: mosaic_tlb.stats().misses,
        huge_formed,
        huge_regions: thp_huge.len() as u64,
        colt_mean_pack: colt.mean_pack(),
        accesses,
    }
}

/// Runs a whole fragmentation sweep — one [`run_frag`] per config — on
/// `jobs` threads. The workload's trace is recorded once and every
/// level replays the same stream, so results are identical to serial
/// per-level runs (workload generation is deterministic) while the
/// generation cost is paid once instead of per level.
///
/// # Panics
///
/// Panics if a workload over-commits the (auto-sized) pools, or if the
/// recorded trace cannot be spilled/replayed.
pub fn run_frag_jobs(
    cfgs: &[FragConfig],
    workload: &mut dyn Workload,
    jobs: usize,
) -> Vec<FragResult> {
    let trace = crate::trace_buffer::TraceBuffer::record(workload)
        .expect("failed to record fragmentation trace");
    let noop = mosaic_obs::ObsHandle::noop();
    crate::parallel::run_cells(jobs, &noop, cfgs.to_vec(), |_, cfg, _| {
        let mut replay = trace.replayer();
        let result = run_frag(&cfg, &mut replay);
        assert!(
            replay.error().is_none(),
            "fragmentation trace replay failed: {:?}",
            replay.into_error()
        );
        result
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_workloads::{BTreeConfig, BTreeWorkload};

    fn workload() -> BTreeWorkload {
        // ~1800 node pages: beyond even the coalesced/mosaic 4x reach of
        // the 256-entry test TLB, so capacity misses dominate.
        BTreeWorkload::new(
            BTreeConfig {
                num_keys: 300_000,
                num_lookups: 20_000,
            },
            5,
        )
    }

    fn run_at(frag: f64) -> FragResult {
        run_frag(&FragConfig::new(frag, 11), &mut workload())
    }

    #[test]
    fn unfragmented_contiguity_techniques_shine() {
        let r = run_at(0.0);
        // All regions promote; THP nearly eliminates misses.
        assert_eq!(r.huge_formed, r.huge_regions);
        assert!(r.thp_misses * 10 < r.vanilla_misses, "thp {:?}", r);
        // CoLT packs nearly the full window.
        assert!(r.colt_mean_pack > 3.0, "pack {}", r.colt_mean_pack);
        assert!(r.colt_misses < r.vanilla_misses);
    }

    #[test]
    fn fragmentation_destroys_thp_but_not_mosaic() {
        let clean = run_at(0.0);
        let dirty = run_at(0.6);
        // THP promotion collapses.
        assert!(dirty.huge_formed * 4 < dirty.huge_regions.max(1));
        assert!(
            dirty.thp_misses > clean.thp_misses * 3,
            "thp {} -> {}",
            clean.thp_misses,
            dirty.thp_misses
        );
        // CoLT's packing degrades.
        assert!(dirty.colt_mean_pack < clean.colt_mean_pack - 0.5);
        // Mosaic's misses stay flat (within noise).
        let ratio = dirty.mosaic_misses as f64 / clean.mosaic_misses.max(1) as f64;
        assert!(
            (0.8..1.2).contains(&ratio),
            "mosaic {} -> {}",
            clean.mosaic_misses,
            dirty.mosaic_misses
        );
    }

    #[test]
    fn all_designs_see_every_access() {
        let r = run_at(0.3);
        assert!(r.accesses > 0);
        // Vanilla is the weakest on this tree workload.
        assert!(r.mosaic_misses < r.vanilla_misses);
    }

    #[test]
    #[should_panic(expected = "fragmentation must be in")]
    fn bad_fragmentation_panics() {
        FragConfig::new(0.99, 1);
    }
}
