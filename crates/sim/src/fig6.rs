//! The Figure 6 experiment: TLB misses across workloads, mosaic arity,
//! and TLB associativity.
//!
//! Two execution engines produce byte-identical results:
//!
//! * the **serial** engine ([`run_workload`]) drives one [`DualSim`]
//!   whose grid of TLBs shares a single pass over the trace;
//! * the **parallel** engine ([`run_workload_jobs`]) records the
//!   combined user+kernel reference stream once into a
//!   [`TraceBuffer`], resolves all demand mapping in that single
//!   reference pass, then fans the (associativity × design) cells out
//!   across threads — each cell replaying the shared stream against its
//!   own TLB and page-table walker. Results are collected in the serial
//!   engine's instance order, so output is identical at any `--jobs`.

use crate::dual::{instance_label, reference_os, DualSim, KernelConfig, KernelInjector};
use crate::os::OsModel;
use crate::parallel::run_cells;
use crate::report::{humanize, Table};
use crate::trace_buffer::{TraceBuffer, TraceBufferBuilder};
use mosaic_mem::{AccessKind, Asid, Cpfn, Pfn, VirtAddr, PAGE_SIZE};
use mosaic_mmu::tlb::{ClassPass, ClassTally, MissClass};
use mosaic_mmu::{
    Arity, Associativity, MosaicLookup, MosaicTlb, PageWalker, RadixTable, TlbConfig, TlbStats,
    Toc, VanillaTlb,
};
use mosaic_workloads::{Access, Workload};
use std::collections::HashMap;

/// Which TLB design a result row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbKind {
    /// The conventional VPN → PFN TLB.
    Vanilla,
    /// A mosaic TLB with the given arity.
    Mosaic(Arity),
}

impl core::fmt::Display for TlbKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TlbKind::Vanilla => write!(f, "Vanilla"),
            TlbKind::Mosaic(a) => write!(f, "{a}"),
        }
    }
}

/// Figure 6 sweep parameters.
#[derive(Debug, Clone)]
pub struct Fig6Config {
    /// TLB entries (paper: 1024).
    pub tlb_entries: usize,
    /// Associativities to sweep (paper: direct, 2, 4, 8, full).
    pub associativities: Vec<Associativity>,
    /// Mosaic arities to sweep (paper: 4–64).
    pub arities: Vec<Arity>,
    /// Kernel-access model; `None` disables the huge-page artifact.
    pub kernel: Option<KernelConfig>,
    /// Simulation seed.
    pub seed: u64,
    /// Accesses per [`DualSim::access_batch`] chunk in the serial
    /// engine (`0` is treated as `1`). Only the chunk size changes:
    /// results and obs exports are bit-identical at every value.
    pub batch: usize,
}

/// Default serial-engine batch: 4096 accesses ≈ 32 KiB of decoded
/// trace, big enough to amortize instance dispatch, small enough to
/// stay cache-resident alongside the TLB arrays.
pub const DEFAULT_BATCH: usize = 4096;

impl Fig6Config {
    /// The full paper sweep: 1024 entries, associativity {1, 2, 4, 8,
    /// full}, arities {4, 8, 16, 32, 64}, kernel model on.
    pub fn paper() -> Self {
        Self {
            tlb_entries: 1024,
            associativities: Associativity::FIGURE6_SWEEP.to_vec(),
            arities: [4, 8, 16, 32, 64].map(Arity::new).to_vec(),
            kernel: Some(KernelConfig::default()),
            seed: 0xF16_6EED,
            batch: DEFAULT_BATCH,
        }
    }

    /// A tiny grid for unit tests and doctests.
    pub fn quick_test() -> Self {
        Self {
            tlb_entries: 64,
            associativities: vec![Associativity::Ways(1), Associativity::Full],
            arities: vec![Arity::new(4)],
            kernel: None,
            seed: 42,
            batch: DEFAULT_BATCH,
        }
    }
}

/// One cell of Figure 6: a (workload, associativity, TLB design) triple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig6Row {
    /// Workload name.
    pub workload: String,
    /// TLB associativity.
    pub assoc: Associativity,
    /// Which design.
    pub kind: TlbKind,
    /// Full TLB counters (misses are Figure 6's y-axis).
    pub stats: TlbStats,
}

impl Fig6Row {
    /// The quantity Figure 6 plots.
    pub fn misses(&self) -> u64 {
        self.stats.misses
    }
}

/// Runs the sweep for one workload: a single pass over its trace feeds
/// every (associativity × design) TLB simultaneously.
pub fn run_workload(cfg: &Fig6Config, workload: &mut dyn Workload) -> Vec<Fig6Row> {
    run_workload_observed(cfg, workload, &mosaic_obs::ObsHandle::noop(), 0)
}

/// [`run_workload`] with metric export: every TLB instance and page-table
/// walker registers on `obs` (see [`DualSim::set_obs`] for the labeling),
/// and — when `obs_interval > 0` — the registry is snapshotted every
/// `obs_interval` user accesses, producing the per-interval miss-rate
/// series. With a noop handle this is exactly [`run_workload`].
pub fn run_workload_observed(
    cfg: &Fig6Config,
    workload: &mut dyn Workload,
    obs: &mosaic_obs::ObsHandle,
    obs_interval: u64,
) -> Vec<Fig6Row> {
    let meta = workload.meta();
    let footprint_pages = meta.footprint_bytes.div_ceil(PAGE_SIZE) + 16;
    let mut sim = DualSim::new(
        cfg.tlb_entries,
        &cfg.associativities,
        &cfg.arities,
        footprint_pages,
        cfg.kernel,
        cfg.seed,
    );
    if obs.is_enabled() {
        sim.set_obs(obs);
        obs.event(
            0,
            "drive.begin",
            &[("workload", mosaic_obs::Value::from(meta.name))],
        );
    }
    // Buffer the stream into batches, flushing early at every
    // `obs_interval` user-access boundary: a batch publishes its obs when
    // it returns, so every snapshot sees the totals at its boundary.
    let batch = cfg.batch.max(1);
    let mut buf: Vec<Access> = Vec::with_capacity(batch);
    workload.run(&mut |a| {
        buf.push(a);
        let at_interval = obs_interval > 0
            && (sim.user_accesses() + buf.len() as u64).is_multiple_of(obs_interval);
        if at_interval || buf.len() >= batch {
            sim.access_batch(&buf);
            buf.clear();
            if at_interval {
                sim.publish_obs();
                obs.snapshot(sim.user_accesses());
            }
        }
    });
    if !buf.is_empty() {
        sim.access_batch(&buf);
    }
    if obs.is_enabled() {
        sim.publish_obs();
        obs.snapshot(sim.user_accesses());
    }
    sim.results()
        .into_iter()
        .map(|(assoc, arity, stats)| Fig6Row {
            workload: meta.name.to_string(),
            assoc,
            kind: arity.map_or(TlbKind::Vanilla, TlbKind::Mosaic),
            stats,
        })
        .collect()
}

/// One cell of the parallel grid: which TLB design at which
/// associativity. Shared with the attribution experiment
/// ([`crate::attrib`]), whose TLB cells are exactly Figure 6 cells.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CellSpec {
    Vanilla(Associativity),
    Mosaic(Associativity, Arity),
}

impl CellSpec {
    /// The cell's tag granularity in a [`ClassPass`] over `arities`.
    fn granularity(self, arities: &[Arity]) -> usize {
        ClassPass::granularity(match self {
            CellSpec::Vanilla(_) => None,
            CellSpec::Mosaic(_, arity) => Some(
                arities
                    .iter()
                    .position(|&a| a == arity)
                    .expect("cell arity is one of the OS model's"),
            ),
        })
    }

    /// The cell's TLB label (the serial engine's [`instance_label`]).
    pub(crate) fn label(self) -> String {
        match self {
            CellSpec::Vanilla(a) => instance_label(a, None),
            CellSpec::Mosaic(a, k) => instance_label(a, Some(k)),
        }
    }
}

/// Classifies a recorded stream once for a whole grid of `tlb_entries`
/// TLBs when `obs` has attribution on (empty otherwise): one
/// [`MissClass`] per reference, shared read-only by every cell, which
/// reads its class on its own misses only.
pub(crate) fn classify_stream(
    obs: &mosaic_obs::ObsHandle,
    trace: &TraceBuffer,
    asid: Asid,
    tlb_entries: usize,
    arities: &[Arity],
) -> Vec<MissClass> {
    if !obs.attrib_enabled() {
        return Vec::new();
    }
    let mut pass = ClassPass::new(tlb_entries, arities);
    let mut classes = Vec::with_capacity(trace.len() as usize);
    trace
        .replay_chunks(&mut |chunk| {
            classes.extend(chunk.iter().map(|a| pass.classify(asid, a.addr.vpn())));
        })
        .expect("reference trace replay failed");
    classes
}

/// A cell's private simulation state: its TLB plus its own page-table
/// walker over state derived from the frozen reference [`OsModel`].
enum CellSim<'a> {
    Vanilla {
        tlb: VanillaTlb,
        /// A private walker over a clone of the final vanilla table.
        /// Mapped 4 KiB walks always touch all four levels and the
        /// translations never change after first touch, so walking the
        /// final table reproduces the serial engine's walk counters and
        /// depth histograms exactly.
        walker: PageWalker<Pfn>,
        /// Kernel 2 MiB mappings, shared read-only (huge walks bypass
        /// the radix walker in the serial engine too).
        huge: &'a HashMap<u64, Pfn>,
    },
    Mosaic {
        tlb: MosaicTlb,
        /// An incremental *shadow* page table, grown on each VPN's
        /// first occurrence in the stream. A cell cannot walk the
        /// frozen reference table: a ToC fill caches the leaf's
        /// point-in-time validity, and the fully-populated final ToCs
        /// would turn later sub-entry misses into hits.
        shadow: PageWalker<Toc>,
        arity: Arity,
        sentinel: Cpfn,
        os: &'a OsModel,
    },
}

impl CellSim<'_> {
    /// Feeds one reference through the cell, as
    /// [`DualSim::access_batch`] steps this instance at the same stream
    /// position. Returns whether the lookup hit.
    fn step(&mut self, asid: Asid, a: Access) -> bool {
        let vpn = a.addr.vpn();
        match self {
            CellSim::Vanilla { tlb, walker, huge } => {
                let hit = tlb.lookup(asid, vpn).is_hit();
                if !hit {
                    if OsModel::is_kernel(vpn) {
                        let idx = mosaic_mmu::arity::huge_index(vpn);
                        let first = *huge.get(&idx).expect("kernel page touched before walk");
                        tlb.fill_huge(asid, vpn, first);
                    } else {
                        let pfn = *walker.walk(vpn.0).expect("page touched before walk");
                        tlb.fill_base(asid, vpn, pfn);
                    }
                }
                hit
            }
            CellSim::Mosaic {
                tlb,
                shadow,
                arity,
                sentinel,
                os,
            } => {
                let (mvpn, offset) = arity.split(vpn);
                // First occurrence of this VPN in the stream: mirror the
                // mapping into the shadow table, exactly as the
                // reference pass mapped it (pages are never evicted, so
                // "absent from the shadow" ⟺ "not yet touched").
                let mapped = shadow
                    .table()
                    .get(mvpn.0)
                    .and_then(|toc| toc.get(offset))
                    .is_some();
                if !mapped {
                    let cpfn = os.cpfn_of(vpn).expect("page in stream must be mapped");
                    match shadow.table_mut().get_mut(mvpn.0) {
                        Some(toc) => toc.set(offset, cpfn),
                        None => {
                            let mut toc = Toc::new(*arity, *sentinel);
                            toc.set(offset, cpfn);
                            shadow.table_mut().insert(mvpn.0, toc);
                        }
                    }
                }
                match tlb.lookup(asid, vpn) {
                    MosaicLookup::Hit(_) => true,
                    MosaicLookup::SubMiss => {
                        let cpfn = os.cpfn_of(vpn).expect("touched page must be mapped");
                        tlb.fill_sub(asid, vpn, cpfn);
                        false
                    }
                    MosaicLookup::Miss => {
                        let toc = shadow.walk(mvpn.0).expect("page touched before walk");
                        tlb.fill_toc_ref(asid, vpn, toc);
                        false
                    }
                }
            }
        }
    }

    /// Pushes the TLB's and walker's counter movement since the last
    /// publish.
    fn publish_obs(&mut self) {
        match self {
            CellSim::Vanilla { tlb, walker, .. } => {
                tlb.publish_obs();
                walker.publish_obs();
            }
            CellSim::Mosaic { tlb, shadow, .. } => {
                tlb.publish_obs();
                shadow.publish_obs();
            }
        }
    }

    fn stats(&self) -> TlbStats {
        match self {
            CellSim::Vanilla { tlb, .. } => *tlb.stats(),
            CellSim::Mosaic { tlb, .. } => *tlb.stats(),
        }
    }
}

/// Runs one cell: replays the shared reference stream against a private
/// TLB + walker, snapshotting its child registry at the recorded
/// positions so merged observability matches a serial run's cadence.
///
/// `classes` is the stream's shared 3C classification
/// ([`classify_stream`], empty when attribution is off): each miss at
/// position `i` charges `classes[i]`'s class for this cell's tag
/// granularity into the `tlb.<label>` attribution table.
pub(crate) fn run_fig6_cell(
    os: &OsModel,
    trace: &TraceBuffer,
    tlb_entries: usize,
    spec: CellSpec,
    child: &mosaic_obs::ObsHandle,
    snapshots: &[(u64, u64)],
    classes: &[MissClass],
) -> TlbStats {
    let label = spec.label();
    let mut sim = match spec {
        CellSpec::Vanilla(assoc) => {
            let mut tlb = VanillaTlb::new(TlbConfig::new(tlb_entries, assoc));
            let mut walker = PageWalker::new(os.vanilla_table().clone());
            if child.is_enabled() {
                tlb.set_obs(child, &label);
                walker.set_obs(child, "vanilla");
            }
            CellSim::Vanilla {
                tlb,
                walker,
                huge: os.vanilla_huge_map(),
            }
        }
        CellSpec::Mosaic(assoc, arity) => {
            let mut tlb = MosaicTlb::new(TlbConfig::new(tlb_entries, assoc), arity);
            let mvpn_bits = 36 - arity.offset_bits();
            let mut shadow = PageWalker::new(RadixTable::new(mvpn_bits, 9));
            if child.is_enabled() {
                tlb.set_obs(child, &label);
                shadow.set_obs(child, &format!("mosaic-{}", arity.get()));
            }
            CellSim::Mosaic {
                tlb,
                shadow,
                arity,
                sentinel: os.unmapped_sentinel(),
                os,
            }
        }
    };
    let mut tally = ClassTally::new(child.attrib(&format!("tlb.{label}")));
    let g = spec.granularity(&os.arities());
    let mut refs = 0u64;
    let mut snap = snapshots.iter().copied().peekable();
    let asid = os.asid();
    // Chunked replay amortizes record decode; stepping stays per-access
    // so snapshot positions land exactly where the serial engine's did.
    trace
        .replay_chunks(&mut |chunk| {
            for &a in chunk {
                if !sim.step(asid, a) {
                    if let Some(c) = classes.get(refs as usize) {
                        tally.record(c.category(g));
                    }
                }
                refs += 1;
                if snap.peek().is_some_and(|&(r, _)| r == refs) {
                    let (_, user_accesses) = snap.next().expect("peeked position");
                    sim.publish_obs();
                    tally.flush(asid);
                    child.snapshot(user_accesses);
                }
            }
        })
        .expect("reference trace replay failed");
    sim.publish_obs();
    tally.flush(asid);
    sim.stats()
}

/// [`run_workload`] on `jobs` threads, byte-identical at any job count.
///
/// `jobs == 1` routes to the serial engine; otherwise the reference
/// stream is recorded once and the grid's cells replay it in parallel.
/// `jobs == 0` uses the machine's available parallelism.
pub fn run_workload_jobs(
    cfg: &Fig6Config,
    workload: &mut dyn Workload,
    jobs: usize,
) -> Vec<Fig6Row> {
    run_workload_observed_jobs(cfg, workload, &mosaic_obs::ObsHandle::noop(), 0, jobs)
}

/// [`run_workload_observed`] on `jobs` threads.
///
/// The reference pass registers the allocator and emits the interval
/// snapshots it can observe (allocator gauges evolve during recording);
/// each cell registers its TLB and walker on a private child registry
/// under the serial engine's labels and snapshots it at the same
/// user-access positions. Children merge into `obs` in cell-index order
/// after the join, so the export is deterministic at any `--jobs` and
/// merged counter totals equal a serial run's.
pub fn run_workload_observed_jobs(
    cfg: &Fig6Config,
    workload: &mut dyn Workload,
    obs: &mosaic_obs::ObsHandle,
    obs_interval: u64,
    jobs: usize,
) -> Vec<Fig6Row> {
    if jobs == 1 {
        return run_workload_observed(cfg, workload, obs, obs_interval);
    }
    let meta = workload.meta();
    let footprint_pages = meta.footprint_bytes.div_ceil(PAGE_SIZE) + 16;
    let kernel_pages = cfg.kernel.map_or(0, |k| k.pages);
    let mut os = reference_os(
        &cfg.arities,
        footprint_pages,
        kernel_pages,
        cfg.seed,
        crate::os::USER_ASID,
    );
    if obs.is_enabled() {
        os.set_obs(obs);
        obs.event(
            0,
            "drive.begin",
            &[("workload", mosaic_obs::Value::from(meta.name))],
        );
    }
    let mut kernel = cfg.kernel.map(|k| KernelInjector::new(k, cfg.seed));

    // Reference pass: record the combined user+kernel stream once while
    // resolving every demand mapping in stream order.
    let mut builder = TraceBufferBuilder::new();
    let mut user_accesses = 0u64;
    let mut refs = 0u64;
    let mut snapshots: Vec<(u64, u64)> = Vec::new();
    workload.run(&mut |a| {
        user_accesses += 1;
        os.touch(a.addr.vpn(), a.kind);
        builder.push(a);
        refs += 1;
        if let Some(injector) = kernel.as_mut() {
            if let Some(kvpn) = injector.after_user_access() {
                os.touch(kvpn, AccessKind::Load);
                builder.push(Access {
                    addr: VirtAddr(kvpn.0 * PAGE_SIZE),
                    kind: AccessKind::Load,
                });
                refs += 1;
            }
        }
        if obs_interval > 0 && user_accesses.is_multiple_of(obs_interval) && obs.is_enabled() {
            snapshots.push((refs, user_accesses));
            os.publish_obs();
            obs.snapshot(user_accesses);
        }
    });
    let trace = builder
        .finish(meta.clone())
        .expect("failed to record reference trace");
    let classes = classify_stream(obs, &trace, os.asid(), cfg.tlb_entries, &cfg.arities);

    // Fan the grid out: serial instance order (per associativity, the
    // vanilla cell then one mosaic cell per arity).
    let mut inputs: Vec<(CellSpec, mosaic_obs::ObsHandle)> = Vec::new();
    for &assoc in &cfg.associativities {
        inputs.push((CellSpec::Vanilla(assoc), obs.child()));
        for &arity in &cfg.arities {
            inputs.push((CellSpec::Mosaic(assoc, arity), obs.child()));
        }
    }
    let outcomes = run_cells(jobs, inputs, |_, (spec, child)| {
        let stats = run_fig6_cell(
            &os,
            &trace,
            cfg.tlb_entries,
            spec,
            &child,
            &snapshots,
            &classes,
        );
        (spec, stats, child)
    });

    let mut rows = Vec::with_capacity(outcomes.len());
    for (spec, stats, child) in outcomes {
        if obs.is_enabled() {
            obs.merge_from(&child);
        }
        let (assoc, kind) = match spec {
            CellSpec::Vanilla(assoc) => (assoc, TlbKind::Vanilla),
            CellSpec::Mosaic(assoc, arity) => (assoc, TlbKind::Mosaic(arity)),
        };
        rows.push(Fig6Row {
            workload: meta.name.to_string(),
            assoc,
            kind,
            stats,
        });
    }
    if obs.is_enabled() {
        os.publish_obs();
        obs.snapshot(user_accesses);
    }
    rows
}

/// Renders one workload's rows as the paper lays Figure 6 out: one row
/// per design, one column per associativity.
pub fn render(workload: &str, rows: &[Fig6Row]) -> Table {
    let mut assocs: Vec<Associativity> = Vec::new();
    for r in rows {
        if !assocs.contains(&r.assoc) {
            assocs.push(r.assoc);
        }
    }
    let mut kinds: Vec<TlbKind> = Vec::new();
    for r in rows {
        if !kinds.contains(&r.kind) {
            kinds.push(r.kind);
        }
    }
    let mut header = vec!["TLB design".to_string()];
    header.extend(assocs.iter().map(ToString::to_string));
    let mut table =
        Table::new(header).with_title(&format!("Figure 6: TLB misses — {workload}"));
    for kind in kinds {
        let mut cells = vec![kind.to_string()];
        for &assoc in &assocs {
            let cell = rows
                .iter()
                .find(|r| r.kind == kind && r.assoc == assoc)
                .map_or_else(|| "-".to_string(), |r| humanize(r.misses()));
            cells.push(cell);
        }
        table.row(cells);
    }
    table
}

/// The headline claim of §4.1 in checkable form: per associativity, the
/// reduction of Mosaic-`a` misses relative to vanilla, in percent
/// (positive = mosaic wins).
pub fn reduction_percent(rows: &[Fig6Row], assoc: Associativity, arity: Arity) -> Option<f64> {
    let vanilla = rows
        .iter()
        .find(|r| r.assoc == assoc && r.kind == TlbKind::Vanilla)?
        .misses();
    let mosaic = rows
        .iter()
        .find(|r| r.assoc == assoc && r.kind == TlbKind::Mosaic(arity))?
        .misses();
    if vanilla == 0 {
        return None;
    }
    Some((1.0 - mosaic as f64 / vanilla as f64) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_workloads::{Gups, GupsConfig};

    fn quick_rows() -> Vec<Fig6Row> {
        let cfg = Fig6Config::quick_test();
        let mut w = Gups::new(
            GupsConfig {
                table_bytes: 1 << 20,
                updates: 20_000,
            },
            5,
        );
        run_workload(&cfg, &mut w)
    }

    #[test]
    fn grid_is_complete() {
        let rows = quick_rows();
        assert_eq!(rows.len(), 2 * 2); // 2 assoc x (vanilla + 1 arity)
        for r in &rows {
            // 20 000 updates x 2 + 256 init stores.
            assert_eq!(r.stats.accesses, 40_256);
            assert!(r.misses() <= r.stats.accesses);
        }
    }

    #[test]
    fn full_assoc_beats_direct_for_vanilla() {
        let rows = quick_rows();
        let direct = rows
            .iter()
            .find(|r| r.kind == TlbKind::Vanilla && r.assoc == Associativity::Ways(1))
            .unwrap()
            .misses();
        let full = rows
            .iter()
            .find(|r| r.kind == TlbKind::Vanilla && r.assoc == Associativity::Full)
            .unwrap()
            .misses();
        assert!(full <= direct, "full {full} vs direct {direct}");
    }

    #[test]
    fn render_has_all_cells() {
        let rows = quick_rows();
        let text = render("GUPS", &rows).render();
        assert!(text.contains("Vanilla"));
        assert!(text.contains("Mosaic-4"));
        assert!(text.contains("Direct"));
        assert!(text.contains("Full"));
    }

    #[test]
    fn reduction_percent_is_computable() {
        let rows = quick_rows();
        let red = reduction_percent(&rows, Associativity::Full, Arity::new(4));
        assert!(red.is_some());
        assert!(red.unwrap() <= 100.0);
    }

    fn gups_at(seed: u64) -> Gups {
        Gups::new(
            GupsConfig {
                table_bytes: 1 << 20,
                updates: 20_000,
            },
            seed,
        )
    }

    #[test]
    fn parallel_engine_matches_serial_without_kernel() {
        let cfg = Fig6Config::quick_test();
        let serial = run_workload(&cfg, &mut gups_at(5));
        for jobs in [2, 4] {
            let par = run_workload_jobs(&cfg, &mut gups_at(5), jobs);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_engine_matches_serial_with_kernel_injection() {
        // The kernel model exercises the huge-page path and the
        // record-once combined stream (user + injected accesses).
        let mut cfg = Fig6Config::quick_test();
        cfg.kernel = Some(KernelConfig {
            pages: 64,
            period: 16,
        });
        cfg.arities = vec![Arity::new(4), Arity::new(8)];
        let serial = run_workload(&cfg, &mut gups_at(9));
        for jobs in [2, 8] {
            let par = run_workload_jobs(&cfg, &mut gups_at(9), jobs);
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_obs_merge_matches_serial_counter_totals() {
        let mut cfg = Fig6Config::quick_test();
        cfg.kernel = Some(KernelConfig {
            pages: 32,
            period: 8,
        });
        let serial_obs = mosaic_obs::ObsHandle::enabled();
        let serial = run_workload_observed(&cfg, &mut gups_at(7), &serial_obs, 5_000);
        let par_obs = mosaic_obs::ObsHandle::enabled();
        let par = run_workload_observed_jobs(&cfg, &mut gups_at(7), &par_obs, 5_000, 4);
        assert_eq!(par, serial);
        for name in [
            "tlb.vanilla.direct.misses",
            "tlb.vanilla.full.misses",
            "tlb.mosaic-4.direct.misses",
            "tlb.mosaic-4.full.accesses",
            "ptw.vanilla.walks",
            "ptw.mosaic-4.walks",
        ] {
            assert_eq!(
                par_obs.counter_value(name),
                serial_obs.counter_value(name),
                "counter {name}"
            );
        }
    }

    #[test]
    fn parallel_obs_export_is_deterministic_across_job_counts() {
        let cfg = Fig6Config::quick_test();
        let export = |jobs| {
            let obs = mosaic_obs::ObsHandle::enabled();
            run_workload_observed_jobs(&cfg, &mut gups_at(3), &obs, 5_000, jobs);
            obs.render_jsonl()
        };
        let two = export(2);
        assert_eq!(two, export(4));
        assert_eq!(two, export(8));
    }
}
