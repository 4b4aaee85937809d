//! Property tests for the one step engine, [`DualSim::access_batch`]:
//!
//! * for ANY access stream, chunking and kernel model, every instance's
//!   counters and the OS walk counts equal those of a naive model of the
//!   grid that lives only in this file — this is the contract every
//!   golden-output gate rests on (`--batch` may change wall-clock time,
//!   never results);
//! * exported obs is current at every batch end and independent of the
//!   chunking.
//!
//! Both run on two stream shapes: references drawn independently (a
//! page rarely repeats) and runs of one to eight references to one page
//! (the engine looks up only a run's head and counts the rest as hits),
//! some on the kernel model's hot pages so that a kernel injection can
//! repeat a user reference.
//!
//! The model shares no code with the engine's cache, ToC, radix table or
//! OS model: each TLB is a per-set `Vec` LRU list (set = tag mod sets),
//! the page table is a `HashSet` of touched pages, a mosaic entry holds
//! the offsets that were mapped when it was filled, and vanilla maps the
//! kernel region with 2 MiB entries.

use mosaic_hash::SplitMix64;
use mosaic_mem::VirtAddr;
use mosaic_mmu::{Arity, Associativity, TlbStats};
use mosaic_sim::dual::{DualSim, KernelConfig};
use mosaic_workloads::Access;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashSet;

const ARITIES: [usize; 3] = [4, 16, 64];
const FOOTPRINT_PAGES: u64 = 1024;
const SEED: u64 = 0xBA7C;
/// First VPN of the simulated kernel region.
const KERNEL_BASE: u64 = 1 << 35;
/// Base pages per 2 MiB page.
const HUGE_SPAN: u64 = 512;

fn associativities(entries: usize) -> Vec<Associativity> {
    let ways = if entries >= 64 { 8 } else { 4 };
    vec![Associativity::Ways(1), Associativity::Ways(ways), Associativity::Full]
}

fn sim(entries: usize, kernel: Option<KernelConfig>) -> DualSim {
    DualSim::new(
        entries,
        &associativities(entries),
        &ARITIES.map(Arity::new),
        FOOTPRINT_PAGES,
        kernel,
        SEED,
    )
}

/// A TLB tag: (page number at the entry's granularity, 2 MiB entry).
type Tag = (u64, bool);

/// One naive TLB: `sets[s]` lists `(tag, valid offsets)` lines, most
/// recently used first.
struct NaiveTlb {
    /// `None` for vanilla, the arity for mosaic.
    arity: Option<u64>,
    ways: usize,
    sets: Vec<Vec<(Tag, Vec<bool>)>>,
    stats: TlbStats,
}

impl NaiveTlb {
    fn new(entries: usize, assoc: Associativity, arity: Option<u64>) -> Self {
        let ways = match assoc {
            Associativity::Ways(w) => w,
            Associativity::Full => entries,
        };
        Self {
            arity,
            ways,
            sets: (0..entries / ways).map(|_| Vec::new()).collect(),
            stats: TlbStats::default(),
        }
    }

    /// The line tagged `tag`, promoted to most recently used.
    fn probe(&mut self, tag: Tag) -> Option<&mut Vec<bool>> {
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(tag.0 % n) as usize];
        let pos = set.iter().position(|(t, _)| *t == tag)?;
        let line = set.remove(pos);
        set.insert(0, line);
        Some(&mut set[0].1)
    }

    /// Inserts a line as most recently used, evicting the least recently
    /// used one from a full set.
    fn fill(&mut self, tag: Tag, valid: Vec<bool>) {
        let n = self.sets.len() as u64;
        let set = &mut self.sets[(tag.0 % n) as usize];
        set.insert(0, (tag, valid));
        if set.len() > self.ways {
            set.pop();
            self.stats.evictions += 1;
        }
    }

    /// One reference; `walks` is (vanilla, huge, mosaic).
    fn step(&mut self, vpn: u64, touched: &HashSet<u64>, walks: &mut (u64, u64, u64)) {
        self.stats.accesses += 1;
        let hit = match self.arity {
            None => {
                let kernel = vpn >= KERNEL_BASE;
                let tag = if kernel { (vpn / HUGE_SPAN, true) } else { (vpn, false) };
                let hit = self.probe(tag).is_some();
                if !hit {
                    if kernel {
                        walks.1 += 1;
                    } else {
                        walks.0 += 1;
                    }
                    self.fill(tag, Vec::new());
                }
                hit
            }
            Some(a) => {
                let (mvpn, off) = (vpn / a, (vpn % a) as usize);
                match self.probe((mvpn, false)) {
                    Some(valid) if valid[off] => true,
                    Some(valid) => {
                        valid[off] = true;
                        self.stats.sub_entry_misses += 1;
                        false
                    }
                    None => {
                        walks.2 += 1;
                        let valid = (0..a).map(|o| touched.contains(&(mvpn * a + o))).collect();
                        self.fill((mvpn, false), valid);
                        false
                    }
                }
            }
        };
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
    }
}

/// The naive grid: one vanilla and one mosaic TLB per arity, for every
/// associativity, over one shared touched-page set and kernel stream.
struct NaiveGrid {
    tlbs: Vec<(Associativity, NaiveTlb)>,
    touched: HashSet<u64>,
    walks: (u64, u64, u64),
    /// Kernel injection: config, RNG, user accesses since the last one.
    kernel: Option<(KernelConfig, SplitMix64, u64)>,
}

impl NaiveGrid {
    fn new(entries: usize, kernel: Option<KernelConfig>) -> Self {
        let mut tlbs = Vec::new();
        for assoc in associativities(entries) {
            tlbs.push((assoc, NaiveTlb::new(entries, assoc, None)));
            for a in ARITIES {
                tlbs.push((assoc, NaiveTlb::new(entries, assoc, Some(a as u64))));
            }
        }
        Self {
            tlbs,
            touched: HashSet::new(),
            walks: (0, 0, 0),
            kernel: kernel.map(|k| (k, SplitMix64::new(SEED ^ 0x4B45_524E), 0)),
        }
    }

    /// Maps `vpn` on first touch, then steps every TLB with it.
    fn step_all(&mut self, vpn: u64) {
        self.touched.insert(vpn);
        for (_, tlb) in &mut self.tlbs {
            tlb.step(vpn, &self.touched, &mut self.walks);
        }
    }

    /// One user access, then the kernel injection if one is due.
    fn push(&mut self, a: Access) {
        self.step_all(a.addr.vpn().0);
        let Some((cfg, rng, due)) = &mut self.kernel else {
            return;
        };
        *due += 1;
        if *due < cfg.period {
            return;
        }
        *due = 0;
        // Seven of eight kernel references go to the hot 1/16 core.
        let hot = (cfg.pages / 16).max(1);
        let page = if rng.next_below(8) < 7 {
            rng.next_below(hot)
        } else {
            rng.next_below(cfg.pages)
        };
        self.step_all(KERNEL_BASE + page);
    }

    fn results(&self) -> Vec<(Associativity, Option<Arity>, TlbStats)> {
        self.tlbs
            .iter()
            .map(|(assoc, t)| (*assoc, t.arity.map(|a| Arity::new(a as usize)), t.stats))
            .collect()
    }
}

/// Loads and stores over a small page pool, so streams revisit pages
/// (TLB hits), touch fresh ones (walks + OS growth), and straddle mosaic
/// ToC boundaries.
fn any_access() -> impl Strategy<Value = Access> {
    (0u64..512, any::<bool>()).prop_map(|(page, store)| {
        let addr = VirtAddr(page * 4096);
        if store {
            Access::store(addr)
        } else {
            Access::load(addr)
        }
    })
}

/// Kernel pages mapped by [`any_kernel`]'s model.
const KERNEL_PAGES: u64 = 64;

/// A dense kernel model (one injection every `period` user accesses
/// over 64 kernel pages), so short streams still exercise huge pages.
fn any_kernel() -> impl Strategy<Value = Option<KernelConfig>> {
    (any::<bool>(), 1u64..8)
        .prop_map(|(on, period)| on.then_some(KernelConfig { pages: KERNEL_PAGES, period }))
}

/// Same-page runs: each run is one to eight loads and stores to one
/// page, drawn from a 192-page pool or, one run in eight, from the
/// kernel model's hot core (where injections concentrate). Chunkings cut
/// runs at any position, and a user run can follow or precede an
/// injection of its own page.
fn any_run_stream() -> impl Strategy<Value = Vec<Access>> {
    let hot = KERNEL_PAGES / 16;
    let page = (0u64..8, 0u64..192, 0..hot)
        .prop_map(|(pick, user, kernel)| if pick == 0 { KERNEL_BASE + kernel } else { user });
    vec((page, 1usize..9, any::<u8>()), 1..60).prop_map(|runs| {
        runs.into_iter()
            .flat_map(|(page, len, stores)| {
                (0..len).map(move |i| {
                    let addr = VirtAddr(page * 4096 + (i as u64 * 64) % 4096);
                    if stores >> i & 1 == 1 {
                        Access::store(addr)
                    } else {
                        Access::load(addr)
                    }
                })
            })
            .collect()
    })
}

/// Splits `accesses` into consecutive chunks whose sizes cycle through
/// `sizes`, calling `f` after each chunk.
fn feed(
    sim: &mut DualSim,
    accesses: &[Access],
    sizes: &[usize],
    mut f: impl FnMut(&DualSim) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let mut rest = accesses;
    for &size in sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(size.min(rest.len()));
        sim.access_batch(chunk);
        f(sim)?;
        rest = tail;
    }
    Ok(())
}

/// `(assoc, design) -> tlb.<label>` as the engine names its counters.
fn label(assoc: Associativity, arity: Option<Arity>) -> String {
    let assoc = assoc.to_string().to_lowercase();
    match arity {
        None => format!("vanilla.{assoc}"),
        Some(a) => format!("mosaic-{}.{assoc}", a.get()),
    }
}

/// Exported counters equal the engine's own: every TLB counter, and the
/// walker walk counts (huge walks bypass the radix walker and are not
/// exported).
fn exports_match(obs: &mosaic_obs::ObsHandle, sim: &DualSim) -> Result<(), TestCaseError> {
    for (assoc, arity, st) in sim.results() {
        let l = label(assoc, arity);
        let exported = |name: &str| obs.counter_value(&format!("tlb.{l}.{name}"));
        prop_assert_eq!(exported("accesses"), st.accesses, "{}", l);
        prop_assert_eq!(exported("hits"), st.hits, "{}", l);
        prop_assert_eq!(exported("misses"), st.misses, "{}", l);
        prop_assert_eq!(exported("sub_misses"), st.sub_entry_misses, "{}", l);
        prop_assert_eq!(exported("evictions"), st.evictions, "{}", l);
    }
    let (vanilla, _, mosaic) = sim.os().walk_counts();
    prop_assert_eq!(obs.counter_value("ptw.vanilla.walks"), vanilla);
    let mosaic_exported: u64 = ARITIES
        .iter()
        .map(|a| obs.counter_value(&format!("ptw.mosaic-{a}.walks")))
        .sum();
    prop_assert_eq!(mosaic_exported, mosaic);
    Ok(())
}

/// The engine agrees with the naive model on every counter for
/// `accesses` at chunks of one and at `sizes` (cycled), and every batch
/// leaves each arity's page table fully remirrored.
fn check_naive_model(
    accesses: &[Access],
    sizes: &[usize],
    kernel: Option<KernelConfig>,
    entries: usize,
) -> Result<(), TestCaseError> {
    let mut model = NaiveGrid::new(entries, kernel);
    for &a in accesses {
        model.push(a);
    }
    for sizes in [&[1][..], sizes] {
        let mut sim = sim(entries, kernel);
        // Every batch leaves each arity's page table fully
        // remirrored: the ToCs agree with the manager's CPFNs.
        feed(&mut sim, accesses, sizes, |sim| {
            let verified = sim.os().verify();
            prop_assert!(verified.is_ok(), "after a batch: {:?}", verified);
            Ok(())
        })?;
        prop_assert_eq!(sim.user_accesses(), accesses.len() as u64);
        prop_assert_eq!(sim.results(), model.results(), "chunk sizes {:?}", sizes);
        prop_assert_eq!(sim.os().walk_counts(), model.walks, "chunk sizes {:?}", sizes);
    }
    Ok(())
}

/// With attribution on and off, the exported TLB and walker counters
/// equal the engine's own after every chunk, and the full JSONL export
/// (every counter, gauge, histogram and 3C table) at chunks of one
/// equals the export at `sizes` (cycled).
fn check_exports(
    accesses: &[Access],
    sizes: &[usize],
    kernel: Option<KernelConfig>,
) -> Result<(), TestCaseError> {
    for attrib in [false, true] {
        let mut jsonl = Vec::new();
        for sizes in [&[1][..], sizes] {
            let obs = mosaic_obs::ObsHandle::enabled();
            obs.set_attrib(attrib);
            let mut sim = sim(64, kernel);
            sim.set_obs(&obs);
            feed(&mut sim, accesses, sizes, |sim| exports_match(&obs, sim))?;
            obs.snapshot(accesses.len() as u64);
            jsonl.push(obs.render_jsonl());
        }
        prop_assert_eq!(jsonl[0].contains("\"t\":\"attrib\""), attrib);
        prop_assert_eq!(&jsonl[0], &jsonl[1], "attrib {}", attrib);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The engine agrees with the naive model on every counter for any
    /// stream and any chunking of it (including chunks of one), with
    /// and without kernel injection.
    #[test]
    fn access_batch_matches_naive_model(
        accesses in vec(any_access(), 1..300),
        sizes in vec(1usize..64, 1..8),
        kernel in any_kernel(),
        wide in any::<bool>(),
    ) {
        check_naive_model(&accesses, &sizes, kernel, if wide { 96 } else { 16 })?;
    }

    /// [`access_batch_matches_naive_model`] on same-page runs: counting
    /// a run's repeats as hits instead of looking them up changes no
    /// counter, wherever the chunking cuts the runs.
    #[test]
    fn same_page_runs_match_naive_model(
        accesses in any_run_stream(),
        sizes in vec(1usize..64, 1..8),
        kernel in any_kernel(),
        wide in any::<bool>(),
    ) {
        check_naive_model(&accesses, &sizes, kernel, if wide { 96 } else { 16 })?;
    }

    /// Obs is published at batch end: after every chunk of any stream,
    /// with attribution on and off, the exported TLB and walker counters
    /// equal the engine's own, and the full JSONL export (every counter,
    /// gauge, histogram and 3C table) at chunks of one equals the export
    /// at any other chunking.
    #[test]
    fn exports_are_current_at_batch_end(
        accesses in vec(any_access(), 1..200),
        sizes in vec(1usize..64, 1..8),
        kernel in any_kernel(),
    ) {
        check_exports(&accesses, &sizes, kernel)?;
    }

    /// [`exports_are_current_at_batch_end`] on same-page runs: the 3C
    /// tables and counters a run's skipped repeats would have produced
    /// are all in the export.
    #[test]
    fn same_page_run_exports_match(
        accesses in any_run_stream(),
        sizes in vec(1usize..64, 1..8),
        kernel in any_kernel(),
    ) {
        check_exports(&accesses, &sizes, kernel)?;
    }

    /// Re-chunking is self-consistent: two different chunkings of the
    /// same stream agree with each other (catches any chunk-boundary
    /// state leak independently of the model).
    #[test]
    fn chunking_is_invisible(
        accesses in vec(any_access(), 1..300),
        chunk_a in 1usize..48,
        chunk_b in 1usize..48,
    ) {
        let mut sim_a = sim(64, Some(KernelConfig::default()));
        for c in accesses.chunks(chunk_a) {
            sim_a.access_batch(c);
        }
        let mut sim_b = sim(64, Some(KernelConfig::default()));
        for c in accesses.chunks(chunk_b) {
            sim_b.access_batch(c);
        }
        prop_assert_eq!(sim_a.results(), sim_b.results());
        prop_assert_eq!(sim_a.os().walk_counts(), sim_b.os().walk_counts());
    }
}
