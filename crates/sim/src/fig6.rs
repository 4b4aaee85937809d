//! The Figure 6 experiment: TLB misses across workloads, mosaic arity,
//! and TLB associativity.
//!
//! One [`DualSim`] replays a workload's stream through the whole
//! (associativity × design) grid ([`run_workload`]). With `jobs > 1`
//! ([`run_workload_jobs`]) the stream is recorded once and the grid's
//! associativities split into contiguous parts, each replayed by its own
//! [`DualSim`] on its own thread; rows come back in serial instance
//! order, so output is identical at any `--jobs`.

use crate::dual::{DualSim, KernelConfig};
use crate::parallel::run_cells;
use crate::report::{humanize, Table};
use crate::trace_buffer::TraceBuffer;
use mosaic_mem::PAGE_SIZE;
use mosaic_mmu::{Arity, Associativity, TlbStats};
use mosaic_workloads::{Access, Workload};

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
    /// Accesses per [`DualSim::access_batch`] chunk (`0` is treated as
    /// `1`). Only the chunk size changes: results and obs exports are
    /// bit-identical at every value.
    pub batch: usize,
}

/// Default batch: 4096 accesses ≈ 32 KiB of decoded trace, big enough
/// to amortize instance dispatch, small enough to stay cache-resident
/// alongside the TLB arrays.
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
    run_workload_observed_jobs(cfg, workload, obs, obs_interval, 1)
}

/// Replays `workload` through one [`DualSim`] over `cfg`'s grid and
/// returns its rows in instance order.
///
/// When `obs` is enabled the simulation binds to it (the mosaic
/// allocator only if `alloc_obs`, see [`DualSim::bind_obs`]) and the
/// registry is snapshotted every `obs_interval` user accesses and once
/// at the end. The stream is fed in `cfg.batch`-sized batches that end
/// early at every interval boundary: a batch publishes its obs when it
/// returns, so every snapshot sees the totals at its boundary.
pub(crate) fn run_grid(
    cfg: &Fig6Config,
    workload: &mut dyn Workload,
    obs: &mosaic_obs::ObsHandle,
    obs_interval: u64,
    alloc_obs: bool,
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
        sim.bind_obs(obs, alloc_obs);
    }
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

/// [`run_workload`] on `jobs` threads, byte-identical at any job count.
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
/// The associativities split into at most `jobs` contiguous parts. One
/// part streams the workload straight through one [`DualSim`].
/// Otherwise the workload's stream is recorded once and each part
/// replays it through its own [`DualSim`] (which injects the same kernel references, since every
/// part rebuilds the same deterministic OS model), registering on a
/// private child registry that snapshots at the same user-access
/// positions. Rows concatenate and children merge into `obs` in part
/// order, so rows equal a serial run's and the export is deterministic
/// for a given part count. Only part 0 binds the mosaic allocator, and
/// each part's walkers count only its own instances' walks, so merged
/// counter totals equal a serial run's.
pub fn run_workload_observed_jobs(
    cfg: &Fig6Config,
    workload: &mut dyn Workload,
    obs: &mosaic_obs::ObsHandle,
    obs_interval: u64,
    jobs: usize,
) -> Vec<Fig6Row> {
    let jobs = match jobs {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    };
    if obs.is_enabled() {
        obs.event(
            0,
            "drive.begin",
            &[("workload", mosaic_obs::Value::from(workload.meta().name))],
        );
    }
    let assocs = &cfg.associativities;
    let parts = jobs.min(assocs.len());
    if parts <= 1 {
        return run_grid(cfg, workload, obs, obs_interval, true);
    }
    let trace = TraceBuffer::record(workload).expect("failed to record reference trace");
    // Earlier parts take the extra associativities: the wide sets at the
    // end of a sweep cost more per lookup.
    let bound = |p: usize| (p * assocs.len()).div_ceil(parts);
    let cells: Vec<_> = (0..parts)
        .map(|p| Fig6Config {
            associativities: assocs[bound(p)..bound(p + 1)].to_vec(),
            ..cfg.clone()
        })
        .collect();
    let rows: Vec<Fig6Row> = run_cells(parts, obs, cells, |p, part, child| {
        let mut replay = trace.replayer();
        let rows = run_grid(&part, &mut replay, child, obs_interval, p == 0);
        if let Some(e) = replay.into_error() {
            panic!("reference trace replay failed: {e}");
        }
        rows
    })
    .into_iter()
    .flatten()
    .collect();
    if obs.is_enabled() {
        obs.snapshot(trace.len());
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
        // The kernel model exercises the huge-page path, and every part
        // injects the same kernel references into the recorded stream.
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

    /// The last exported value of every counter and the last exported
    /// (count, sum) of every histogram, keyed by record type and name.
    fn final_exports(jsonl: &str) -> std::collections::BTreeMap<String, (u64, u64)> {
        let mut out = std::collections::BTreeMap::new();
        for line in jsonl.lines() {
            let rec = mosaic_obs::json::parse(line).expect("exported JSONL parses");
            let field = |k: &str| rec.get(k).and_then(|v| v.as_u64()).expect("numeric field");
            let name = rec.get("name").and_then(|n| n.as_str()).unwrap_or_default();
            match rec.get("t").and_then(|t| t.as_str()) {
                Some("counter") => out.insert(format!("counter {name}"), (field("value"), 0)),
                Some("hist") => out.insert(format!("hist {name}"), (field("count"), field("sum"))),
                _ => None,
            };
        }
        out
    }

    #[test]
    fn parallel_obs_merge_matches_serial_counter_totals() {
        // Five associativities split into 2, 3 and 5 parts at jobs 2, 3
        // and 8; kernel injection and attribution on.
        let cfg = Fig6Config {
            associativities: Associativity::FIGURE6_SWEEP.to_vec(),
            kernel: Some(KernelConfig {
                pages: 32,
                period: 8,
            }),
            ..Fig6Config::quick_test()
        };
        let observed = |jobs| {
            let obs = mosaic_obs::ObsHandle::enabled();
            obs.set_attrib(true);
            let rows = run_workload_observed_jobs(&cfg, &mut gups_at(7), &obs, 5_000, jobs);
            let tables: Vec<_> = obs
                .attrib_names()
                .into_iter()
                .map(|name| (obs.attrib_table(&name), name))
                .collect();
            (rows, final_exports(&obs.render_jsonl()), tables)
        };
        let (serial_rows, serial, serial_tables) = observed(1);
        for prefix in [
            "counter tlb.",
            "counter ptw.",
            "hist ptw.",
            "counter mosaic.",
        ] {
            assert!(
                serial.keys().any(|k| k.starts_with(prefix)),
                "serial run exports no {prefix}*"
            );
        }
        for jobs in [2, 3, 8] {
            let (rows, par, tables) = observed(jobs);
            assert_eq!(rows, serial_rows, "rows at jobs={jobs}");
            for (name, value) in &serial {
                assert_eq!(par.get(name), Some(value), "{name} at jobs={jobs}");
            }
            assert_eq!(tables, serial_tables, "3C tables at jobs={jobs}");
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
