//! The dual-TLB simulator: the paper's Figure 6 methodology.
//!
//! "For ease of simulation, we maintain one TLB for the conventional
//! (vanilla) mode and another TLB for the mosaic mode; results are
//! computed for both modes simultaneously. Each memory access is fed to
//! both TLBs with a separate page table walker for each TLB" (§3.1).
//! This simulator generalises that to a whole grid: one pass over the
//! workload trace drives a vanilla TLB and a mosaic TLB *per
//! associativity per arity*, so the entire Figure 6 sweep for a workload
//! costs one trace generation.
//!
//! The kernel-access model injects periodic references to a kernel region
//! that vanilla maps with 2 MiB pages while mosaic maps it with ordinary
//! mosaic pages — reproducing the paper's artifact that fully-associative
//! vanilla can edge out Mosaic-4 (§4.1).

use crate::os::{frames_for_footprint, OsModel, TocMemoSlot, VanillaTranslation, KERNEL_VPN_BASE};
use mosaic_hash::SplitMix64;
use mosaic_mem::{AccessKind, Asid, Cpfn, MemoryLayout, Vpn};
use mosaic_mmu::tlb::{ClassPass, ClassTally, MissClass};
use mosaic_mmu::{
    Arity, Associativity, MosaicLookup, MosaicTlb, TlbConfig, TlbStats, VanillaTlb,
};
use mosaic_workloads::Access;

/// The kernel-access injection model.
///
/// Kernel text/data accesses are heavily skewed in practice (syscall
/// entry paths, scheduler data): most references hit a small hot core
/// while the long tail covers the whole mapped region. The model sends
/// seven of every eight kernel references to the hot core (1/16 of the
/// region) and the rest uniformly over all `pages`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Kernel pages mapped (text + data touched by syscalls/interrupts).
    pub pages: u64,
    /// Inject one kernel access every `period` user accesses.
    pub period: u64,
}

impl KernelConfig {
    /// Pages in the hot core (1/16 of the region, at least one).
    pub fn hot_pages(&self) -> u64 {
        (self.pages / 16).max(1)
    }

    /// Draws the next kernel page to touch.
    fn next_page(&self, rng: &mut SplitMix64) -> u64 {
        if rng.next_below(8) < 7 {
            rng.next_below(self.hot_pages())
        } else {
            rng.next_below(self.pages)
        }
    }
}

impl Default for KernelConfig {
    /// 4 MiB of mapped kernel pages, one kernel access per 64 user
    /// accesses.
    fn default() -> Self {
        Self {
            pages: 1024,
            period: 64,
        }
    }
}

/// A TLB instance's obs label, `<design>.<associativity>` in lowercase
/// (`vanilla.direct`, `mosaic-4.full`): [`DualSim::set_obs`] registers
/// instance counters as `tlb.<label>.*` and 3C tables as `tlb.<label>`.
pub(crate) fn instance_label(assoc: Associativity, arity: Option<Arity>) -> String {
    let assoc = assoc.to_string().to_lowercase();
    match arity {
        None => format!("vanilla.{assoc}"),
        Some(a) => format!("mosaic-{}.{assoc}", a.get()),
    }
}

/// One simultaneously-simulated TLB configuration and its counters.
#[derive(Debug)]
enum Instance {
    Vanilla(VanillaTlb),
    /// `usize` is the index into the OS model's per-arity page tables.
    Mosaic(usize, MosaicTlb),
}

impl Instance {
    /// This instance's tag granularity in the shared [`ClassPass`].
    fn granularity(&self) -> usize {
        match self {
            Instance::Vanilla(_) => ClassPass::granularity(None),
            Instance::Mosaic(idx, _) => ClassPass::granularity(Some(*idx)),
        }
    }

    /// Counts `n` further lookups of the translation just looked up or
    /// filled (see [`VanillaTlb::count_mru_hits`]).
    fn count_mru_hits(&mut self, n: u64) {
        match self {
            Instance::Vanilla(tlb) => tlb.count_mru_hits(n),
            Instance::Mosaic(_, tlb) => tlb.count_mru_hits(n),
        }
    }

    /// Pushes the TLB's counter movement since the last publish.
    fn publish_obs(&mut self) {
        match self {
            Instance::Vanilla(tlb) => tlb.publish_obs(),
            Instance::Mosaic(_, tlb) => tlb.publish_obs(),
        }
    }
}

/// A dual-TLB simulation over one shared OS model.
#[derive(Debug)]
pub struct DualSim {
    os: OsModel,
    asid: Asid,
    /// `(associativity, instance)` pairs, all fed every access.
    instances: Vec<(Associativity, Instance)>,
    /// The shared 3C classification pass (attribution on only).
    classes: Option<ClassPass>,
    /// Per-instance 3C counts, parallel to `instances` (noop sinks until
    /// attribution is on), flushed at the end of every batch.
    tallies: Vec<ClassTally>,
    kernel: Option<KernelConfig>,
    /// Draws the injected kernel pages.
    kernel_rng: SplitMix64,
    /// User accesses since the last kernel injection.
    kernel_due: u64,
    user_accesses: u64,
    /// Batch scratch (reused allocation): the run heads of the expanded
    /// reference stream — every reference except those that repeat the
    /// previous head's page without a first touch.
    batch_refs: Vec<Vpn>,
    /// References of the current batch left out of `batch_refs` as
    /// repeats of the previous head's page.
    batch_repeats: u64,
    /// Batch scratch: first-touch growth events as `(position, vpn,
    /// cpfn)`, the CPFN recorded once by the pre-pass for every rewind.
    batch_growth: Vec<(u32, Vpn, Cpfn)>,
    /// Batch scratch: per-position 3C class (attribution on only).
    batch_class: Vec<MissClass>,
    /// Batch scratch: per-position CPFN memo shared across instances.
    batch_cpfn: Vec<Option<Cpfn>>,
    /// Batch scratch: per-position vanilla-translation memo (result plus
    /// walk depth, so reuses can recount the walk exactly).
    batch_vwalk: Vec<Option<(VanillaTranslation, u32)>>,
    /// Batch scratch: per-(position, arity) leaf-ToC memo, indexed
    /// `position * arity_count + arity_idx`. Slots are
    /// generation-stamped rather than cleared, so their ToC buffers
    /// survive across batches and refills never allocate.
    batch_toc: Vec<TocMemoSlot>,
    /// Current batch generation for `batch_toc` staleness checks.
    /// Starts at 1 so default (gen-0) slots always read as stale.
    batch_gen: u64,
}

impl DualSim {
    /// Builds a simulation: a vanilla TLB and one mosaic TLB per arity,
    /// for every associativity, over memory sized for `footprint_pages`,
    /// running as the default [`crate::os::USER_ASID`].
    pub fn new(
        tlb_entries: usize,
        associativities: &[Associativity],
        arities: &[Arity],
        footprint_pages: u64,
        kernel: Option<KernelConfig>,
        seed: u64,
    ) -> Self {
        Self::with_asid(
            tlb_entries,
            associativities,
            arities,
            footprint_pages,
            kernel,
            seed,
            crate::os::USER_ASID,
        )
    }

    /// Like [`DualSim::new`], but tags every mapping and TLB entry with an
    /// explicit `asid` (a tenant identity minted by a registry).
    #[allow(clippy::too_many_arguments)]
    pub fn with_asid(
        tlb_entries: usize,
        associativities: &[Associativity],
        arities: &[Arity],
        footprint_pages: u64,
        kernel: Option<KernelConfig>,
        seed: u64,
        asid: Asid,
    ) -> Self {
        let kernel_pages = kernel.map_or(0, |k| k.pages);
        let frames = frames_for_footprint(footprint_pages, kernel_pages);
        let layout = MemoryLayout::default().with_at_least_frames(frames);
        let os = OsModel::with_asid(layout, arities, seed, asid);

        let mut instances = Vec::new();
        for &assoc in associativities {
            let cfg = TlbConfig::new(tlb_entries, assoc);
            instances.push((assoc, Instance::Vanilla(VanillaTlb::new(cfg))));
            for (idx, &arity) in arities.iter().enumerate() {
                instances.push((
                    assoc,
                    Instance::Mosaic(idx, MosaicTlb::new(cfg, arity)),
                ));
            }
        }

        let tallies = vec![ClassTally::default(); instances.len()];
        Self {
            os,
            asid,
            instances,
            classes: None,
            tallies,
            kernel,
            kernel_rng: SplitMix64::new(seed ^ 0x4B45_524E),
            kernel_due: 0,
            user_accesses: 0,
            batch_refs: Vec::new(),
            batch_repeats: 0,
            batch_growth: Vec::new(),
            batch_class: Vec::new(),
            batch_cpfn: Vec::new(),
            batch_vwalk: Vec::new(),
            batch_toc: Vec::new(),
            batch_gen: 0,
        }
    }

    /// Feeds a batch of workload accesses (plus any due kernel
    /// injections) to every TLB instance — the only way to step a
    /// simulation; a single access is a batch of one. The batch is
    /// replayed **instance-major** — one TLB instance over the whole
    /// batch, then the next — so each instance's ToC lines and set
    /// metadata stay hot and the instance dispatch is amortized over the
    /// batch instead of paid per reference.
    ///
    /// Two mechanisms make every instance see the OS state of its
    /// position in the stream, so results are independent of how the
    /// stream is chunked:
    ///
    /// * an OS pre-pass touches every reference (expanding kernel
    ///   injections inline) in stream order, so allocator clocks and
    ///   walk tables advance in stream order;
    /// * first-touch **growth events** recorded by the pre-pass, each
    ///   with its CPFN read once, are unmirrored from the instance's
    ///   own arity's ToC leaves (`mosaic_pts[ai]`, no other arity's)
    ///   before each mosaic instance's replay and remirrored from the
    ///   recorded CPFN as the replay cursor passes them, so a mid-batch
    ///   `mosaic_walk` copies the point-in-time ToC of its position
    ///   (vanilla translations never change after first touch, so
    ///   vanilla instances replay without rewinding).
    ///
    /// The pre-pass also cuts the stream into **same-page runs**: a
    /// reference that is not a first touch and whose VPN equals the
    /// previous run head's is not replayed, only counted, and every
    /// instance adds the batch's repeat total to its `accesses` and
    /// `hits` once ([`VanillaTlb::count_mru_hits`],
    /// [`MosaicTlb::count_mru_hits`]). This is exact: a repeat is never
    /// a growth event, no TLB is invalidated inside `DualSim`, and after
    /// the head's lookup-or-fill its entry (base, huge, or mosaic
    /// sub-entry) is valid and most recently used in its set in every
    /// instance, as is its tag in every 3C shadow, so the skipped lookup
    /// would hit and move no LRU state. Replay positions below are run
    /// heads.
    ///
    /// Per-position memos are shared across all instances: the sub-page
    /// CPFN, the vanilla translation, and the per-arity leaf ToC.
    /// Results are resolved once per position; every consuming instance
    /// still *counts* its own page walk (it models a per-TLB walker).
    /// A whole-ToC fill copies the memoized leaf into the TLB's inline
    /// ToC arena, so replay allocates nothing.
    ///
    /// Exported obs (TLB counters, walker walks and depths, 3C tables)
    /// counts locally during the batch and is published when it returns.
    pub fn access_batch(&mut self, accesses: &[Access]) {
        // Phase 1: stream-order OS pre-pass.
        self.batch_refs.clear();
        self.batch_growth.clear();
        self.batch_repeats = 0;
        for access in accesses {
            self.user_accesses += 1;
            self.pre_touch(access.addr.vpn(), access.kind);
            if let Some(k) = self.kernel {
                self.kernel_due += 1;
                if self.kernel_due >= k.period {
                    self.kernel_due = 0;
                    let kvpn = Vpn(KERNEL_VPN_BASE + k.next_page(&mut self.kernel_rng));
                    self.pre_touch(kvpn, AccessKind::Load);
                }
            }
        }
        // The shared 3C pass classifies every run head once, in stream
        // order, for all instances (a repeat would touch every shadow's
        // MRU tag: a hit that moves nothing).
        self.batch_class.clear();
        if let Some(pass) = &mut self.classes {
            let asid = self.asid;
            self.batch_class
                .extend(self.batch_refs.iter().map(|&vpn| pass.classify(asid, vpn)));
        }
        let n = self.batch_refs.len();
        self.batch_cpfn.clear();
        self.batch_cpfn.resize(n, None);
        self.batch_vwalk.clear();
        self.batch_vwalk.resize(n, None);
        let arity_count = self.os.arity_count();
        // ToC memo slots are invalidated by bumping the generation, not
        // by clearing: stale slots keep their buffers for reuse.
        self.batch_gen += 1;
        if self.batch_toc.len() < n * arity_count {
            self.batch_toc
                .resize_with(n * arity_count, TocMemoSlot::default);
        }

        // Phase 2: instance-major replay. The variant match is hoisted
        // out of the position loop so each instance replays the batch
        // through a straight-line body.
        let asid = self.asid;
        let os = &mut self.os;
        let classes = &self.batch_class;
        let refs = &self.batch_refs;
        let growth = &self.batch_growth;
        let cpfns = &mut self.batch_cpfn;
        let vwalks = &mut self.batch_vwalk;
        let tocs = &mut self.batch_toc;
        let gen = self.batch_gen;
        let repeats = self.batch_repeats;
        for ((_, inst), tally) in self.instances.iter_mut().zip(&mut self.tallies) {
            // A miss at position `j` charges its shared class (the class
            // slice is empty when attribution is off).
            let g = inst.granularity();
            let mut charge = |j: usize| {
                if let Some(c) = classes.get(j) {
                    tally.record(c.category(g));
                }
            };
            match inst {
                Instance::Vanilla(tlb) => {
                    // Vanilla translations never change after first
                    // touch, so no rewind is needed.
                    for (j, &vpn) in refs.iter().enumerate() {
                        if !tlb.lookup(asid, vpn).is_hit() {
                            charge(j);
                            match os.vanilla_walk_memo(vpn, &mut vwalks[j]) {
                                VanillaTranslation::Base(pfn) => tlb.fill_base(asid, vpn, pfn),
                                VanillaTranslation::Huge(first) => tlb.fill_huge(asid, vpn, first),
                            }
                        }
                    }
                }
                Instance::Mosaic(ai, tlb) => {
                    // Rewind and replay only this instance's own arity
                    // table, from the CPFNs the pre-pass recorded.
                    let ai = *ai;
                    for &(_, vpn, _) in growth {
                        os.unmirror(ai, vpn);
                    }
                    let mut cursor = 0;
                    for (j, &vpn) in refs.iter().enumerate() {
                        while cursor < growth.len() && growth[cursor].0 as usize == j {
                            let (_, gvpn, cpfn) = growth[cursor];
                            os.remirror(ai, gvpn, cpfn);
                            cursor += 1;
                        }
                        match tlb.lookup(asid, vpn) {
                            MosaicLookup::Hit(_) => {}
                            MosaicLookup::SubMiss => {
                                charge(j);
                                let cpfn = *cpfns[j].get_or_insert_with(|| {
                                    os.cpfn_of(vpn).expect("touched page must be mapped")
                                });
                                tlb.fill_sub(asid, vpn, cpfn);
                            }
                            MosaicLookup::Miss => {
                                charge(j);
                                let slot = &mut tocs[j * arity_count + ai];
                                let toc = os.mosaic_walk_memo(ai, vpn, slot, gen);
                                tlb.fill_toc_ref(asid, vpn, toc);
                            }
                        }
                    }
                    debug_assert_eq!(cursor, growth.len());
                }
            }
            inst.count_mru_hits(repeats);
        }
        self.flush_obs();
    }

    /// Phase 1 for one reference: touches the OS model, then appends the
    /// reference to `batch_refs` as a run head, or — when it repeats the
    /// last head's page and is not a first touch — only counts it in
    /// `batch_repeats`.
    #[inline]
    fn pre_touch(&mut self, vpn: Vpn, kind: AccessKind) {
        match self.os.touch_cpfn(vpn, kind) {
            Some(cpfn) => self
                .batch_growth
                .push((self.batch_refs.len() as u32, vpn, cpfn)),
            None if self.batch_refs.last() == Some(&vpn) => {
                self.batch_repeats += 1;
                return;
            }
            None => {}
        }
        self.batch_refs.push(vpn);
    }

    /// Publishes every instance's TLB counters and 3C tally and the OS
    /// walkers' walks, so exported obs is current at every batch end.
    fn flush_obs(&mut self) {
        for ((_, inst), tally) in self.instances.iter_mut().zip(&mut self.tallies) {
            inst.publish_obs();
            tally.flush(self.asid);
        }
        self.os.publish_walk_obs();
    }

    /// Binds every TLB instance (and the shared OS model) to a live
    /// metrics registry. Instance labels are [`instance_label`]s — e.g.
    /// `tlb.vanilla.direct.misses`, `tlb.mosaic-4.full.accesses` — so a
    /// whole Figure 6 grid exports into one stream.
    ///
    /// When `obs` has attribution opted in
    /// ([`mosaic_obs::ObsHandle::set_attrib`]), this also starts one
    /// shared [`ClassPass`] for the grid and charges each instance's 3C
    /// classes into its `tlb.<label>` attribution table.
    pub fn set_obs(&mut self, obs: &mosaic_obs::ObsHandle) {
        self.bind_obs(obs, true);
    }

    /// [`DualSim::set_obs`], leaving the mosaic allocator unbound when
    /// `alloc_obs` is false: a grid split across several simulations
    /// rebuilds the same deterministic OS model in each, so only one of
    /// them may export the `mosaic.*` allocator counters, and a grid
    /// whose stream also carries a Mosaic memory manager (`attrib`)
    /// must leave that prefix to the manager.
    pub(crate) fn bind_obs(&mut self, obs: &mosaic_obs::ObsHandle, alloc_obs: bool) {
        if alloc_obs {
            self.os.set_obs(obs);
        } else {
            self.os.set_walker_obs(obs);
        }
        let arities = self.os.arities();
        let mut entries = 0;
        for ((assoc, inst), tally) in self.instances.iter_mut().zip(&mut self.tallies) {
            let label = match inst {
                Instance::Vanilla(tlb) => {
                    let label = instance_label(*assoc, None);
                    tlb.set_obs(obs, &label);
                    entries = tlb.config().entries();
                    label
                }
                Instance::Mosaic(idx, tlb) => {
                    let label = instance_label(*assoc, Some(arities[*idx]));
                    tlb.set_obs(obs, &label);
                    label
                }
            };
            *tally = ClassTally::new(obs.attrib(&format!("tlb.{label}")));
        }
        self.classes = obs
            .attrib_enabled()
            .then(|| ClassPass::new(entries, &arities));
    }

    /// Publishes point-in-time gauges (allocator utilization).
    pub fn publish_obs(&self) {
        self.os.publish_obs();
    }

    /// User (workload) accesses driven so far.
    pub fn user_accesses(&self) -> u64 {
        self.user_accesses
    }

    /// The OS model (inspection).
    pub fn os(&self) -> &OsModel {
        &self.os
    }

    /// Per-instance results: `(associativity, arity-or-None, stats)`.
    pub fn results(&self) -> Vec<(Associativity, Option<Arity>, TlbStats)> {
        let arities = self.os.arities();
        self.instances
            .iter()
            .map(|(assoc, inst)| match inst {
                Instance::Vanilla(tlb) => (*assoc, None, *tlb.stats()),
                Instance::Mosaic(idx, tlb) => (*assoc, Some(arities[*idx]), *tlb.stats()),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_mem::VirtAddr;

    fn sim(entries: usize, kernel: Option<KernelConfig>) -> DualSim {
        DualSim::new(
            entries,
            &[Associativity::Ways(1), Associativity::Full],
            &[Arity::new(4)],
            4096,
            kernel,
            7,
        )
    }

    fn touch_pages(sim: &mut DualSim, pages: impl Iterator<Item = u64>) {
        let accesses: Vec<Access> = pages.map(|p| Access::load(VirtAddr(p * 4096))).collect();
        sim.access_batch(&accesses);
    }

    #[test]
    fn instance_grid_shape() {
        let s = sim(64, None);
        // 2 associativities x (1 vanilla + 1 arity).
        assert_eq!(s.results().len(), 4);
    }

    #[test]
    fn sequential_pages_benefit_mosaic() {
        let mut s = sim(64, None);
        // Cycle over 128 sequential pages, twice the vanilla TLB's reach
        // but well within mosaic-4's.
        for _ in 0..20 {
            touch_pages(&mut s, 0..128);
        }
        let res = s.results();
        let vanilla_full = res
            .iter()
            .find(|(a, k, _)| *a == Associativity::Full && k.is_none())
            .unwrap()
            .2;
        let mosaic_full = res
            .iter()
            .find(|(a, k, _)| *a == Associativity::Full && k.is_some())
            .unwrap()
            .2;
        // Vanilla: 64 entries over a 128-page LRU cycle => ~every access
        // misses. Mosaic-4: 32 entries cover the whole set.
        assert!(vanilla_full.misses > 2000, "vanilla {:?}", vanilla_full);
        // Mosaic-4's only misses are the 128 cold fills (one per page:
        // 32 whole-ToC misses + 96 sub-entry fills).
        assert!(
            mosaic_full.misses <= 130,
            "mosaic should cover the set: {mosaic_full:?}"
        );
    }

    #[test]
    fn all_instances_see_every_access() {
        let mut s = sim(64, None);
        touch_pages(&mut s, 0..500);
        for (_, _, st) in s.results() {
            assert_eq!(st.accesses, 500);
        }
        assert_eq!(s.user_accesses(), 500);
    }

    #[test]
    fn same_page_run_misses_at_most_once() {
        const N: u64 = 100;
        for pages in [vec![5], vec![5, 9]] {
            let mut s = sim(64, None);
            // One page N times; then two pages alternating in runs of N.
            touch_pages(&mut s, pages.iter().flat_map(|&p| std::iter::repeat_n(p, N as usize)));
            let runs = pages.len() as u64;
            for (assoc, arity, st) in s.results() {
                assert_eq!(st.accesses, N * runs, "{assoc} {arity:?}");
                assert!(st.misses <= runs, "{assoc} {arity:?}: {st:?}");
                assert!(st.hits >= (N - 1) * runs, "{assoc} {arity:?}: {st:?}");
                assert_eq!(st.hits + st.misses, st.accesses);
            }
        }
    }

    #[test]
    fn kernel_injection_adds_accesses() {
        let mut s = sim(
            64,
            Some(KernelConfig {
                pages: 16,
                period: 10,
            }),
        );
        touch_pages(&mut s, 0..100);
        for (_, _, st) in s.results() {
            assert_eq!(st.accesses, 110, "100 user + 10 kernel");
        }
        assert_eq!(s.user_accesses(), 100);
    }

    #[test]
    fn kernel_pages_walk_huge_in_vanilla() {
        let mut s = sim(
            64,
            Some(KernelConfig {
                pages: 8,
                period: 1,
            }),
        );
        touch_pages(&mut s, 0..50);
        let (_, huge_walks, _) = s.os().walk_counts();
        assert!(huge_walks > 0, "kernel misses must walk as huge pages");
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut s = sim(64, Some(KernelConfig::default()));
            touch_pages(&mut s, (0..400).map(|i| (i * 37) % 512));
            s.results()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn single_access_batches_match_chunked() {
        for kernel in [None, Some(KernelConfig { pages: 16, period: 10 })] {
            let trace: Vec<Access> = (0..400u64)
                .map(|i| Access::load(VirtAddr(((i * 37) % 512) * 4096)))
                .collect();
            let mut ones = sim(64, kernel);
            for a in &trace {
                ones.access_batch(std::slice::from_ref(a));
            }
            let mut batched = sim(64, kernel);
            for chunk in trace.chunks(33) {
                batched.access_batch(chunk);
            }
            assert_eq!(ones.results(), batched.results());
            assert_eq!(ones.user_accesses(), batched.user_accesses());
            assert_eq!(ones.os().walk_counts(), batched.os().walk_counts());
            batched.os().verify().expect("ToCs fully remirrored");
        }
    }
}
