//! The memory-pressure experiments: Table 3 (utilization) and Table 4
//! (swap I/O), comparing Mosaic against the Linux-like baseline.
//!
//! Each run builds a workload with a footprint that is a configured ratio
//! of physical memory (the paper sweeps ≈101 %–157 %), then drives the
//! workload's page-reference stream through both memory managers,
//! recording:
//!
//! * the utilization at Mosaic's **first associativity conflict**
//!   (Table 3 predicts ≈98 %, i.e. δ ≈ 2 %);
//! * the **steady-state utilization** (ghosts push it past `1 − δ`);
//! * total **swap I/O** for each manager (Table 4's columns).

use crate::parallel::{derive_seed, run_cells};
use crate::report::{group_digits, Table};
use crate::trace_buffer::TraceBuffer;
use mosaic_mem::{
    AccessKind, AccessOutcome, Asid, FaultPlan, IcebergConfig, LinuxMemory, MemoryLayout,
    MemoryManager, MosaicError, MosaicMemory, MosaicResult, PageKey, ResilienceStats, PAGE_SIZE,
};
use mosaic_obs::{ObsHandle, Value};
use mosaic_workloads::{BTreeWorkload, Graph500, Workload, XsBench};

/// The workloads the swapping experiments use (the paper's Tables 3–4
/// run Graph500, XSBench, and BTree; GUPS is Figure-6-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PressureWorkload {
    /// BFS over a Kronecker graph.
    Graph500,
    /// XSBench cross-section lookups.
    XsBench,
    /// B+-tree point lookups.
    BTree,
}

impl PressureWorkload {
    /// The three workloads in the paper's table order.
    pub const ALL: [PressureWorkload; 3] = [
        PressureWorkload::Graph500,
        PressureWorkload::XsBench,
        PressureWorkload::BTree,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PressureWorkload::Graph500 => "Graph500",
            PressureWorkload::XsBench => "XSBench",
            PressureWorkload::BTree => "BTree",
        }
    }

    /// Builds the workload at approximately `footprint_bytes`.
    pub fn build(self, footprint_bytes: u64, seed: u64) -> Box<dyn Workload> {
        let pages = footprint_bytes / PAGE_SIZE;
        match self {
            PressureWorkload::Graph500 => {
                Box::new(Graph500::with_footprint(footprint_bytes, 2, seed))
            }
            PressureWorkload::XsBench => {
                // Enough lookups that every grid page is touched and the
                // working set cycles several times.
                Box::new(XsBench::with_footprint(footprint_bytes, pages * 8, seed))
            }
            PressureWorkload::BTree => {
                Box::new(BTreeWorkload::with_footprint(footprint_bytes, pages * 4, seed))
            }
        }
    }
}

/// Parameters of a pressure run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PressureConfig {
    /// Iceberg buckets of memory (64 frames each) under management.
    pub mem_buckets: usize,
    /// Run seed.
    pub seed: u64,
    /// Accesses per replay chunk fed to the drive loop (`0` is treated
    /// as `1`). Results are bit-identical at every value (the chunking
    /// only amortizes trace decode and sink dispatch).
    pub batch: usize,
}

impl PressureConfig {
    /// 4096 frames (16 MiB) — a fast default that preserves the paper's
    /// footprint-to-memory ratios.
    pub fn quick() -> Self {
        Self {
            mem_buckets: 64,
            seed: 0x7AB1E,
            batch: crate::fig6::DEFAULT_BATCH,
        }
    }

    /// 16 Ki frames (64 MiB) — the benchmark default.
    pub fn default_size() -> Self {
        Self {
            mem_buckets: 256,
            seed: 0x7AB1E,
            batch: crate::fig6::DEFAULT_BATCH,
        }
    }

    /// Memory under management, in bytes.
    pub fn mem_bytes(&self) -> u64 {
        (self.mem_buckets * 64) as u64 * PAGE_SIZE
    }

    /// The paper's footprint ratios: Table 4 sweeps 4158–6459 MiB over
    /// 4096 MiB of memory.
    pub fn paper_ratios() -> Vec<f64> {
        vec![
            1.0151, 1.0774, 1.1399, 1.2021, 1.2646, 1.3271, 1.3894, 1.4519, 1.5144, 1.5769,
        ]
    }

    /// Table 3's four footprint ratios (4158–4924 MiB over 4096 MiB).
    pub fn table3_ratios() -> Vec<f64> {
        vec![1.0151, 1.0774, 1.1399, 1.2021]
    }
}

/// The measured outcome of one (workload, footprint) run.
#[derive(Debug, Clone, PartialEq)]
pub struct PressureRow {
    /// Which workload.
    pub workload: &'static str,
    /// Actual footprint of the built workload, in bytes.
    pub footprint_bytes: u64,
    /// Swap I/O (pages in + out) under the Linux baseline.
    pub linux_swaps: u64,
    /// Swap I/O under Mosaic (Horizon LRU).
    pub mosaic_swaps: u64,
    /// Mosaic utilization at its first conflict, percent.
    pub first_conflict_pct: Option<f64>,
    /// Mosaic steady-state utilization, percent.
    pub steady_state_pct: Option<f64>,
    /// Linux steady-state utilization, percent.
    pub linux_steady_pct: Option<f64>,
}

impl PressureRow {
    /// Table 4's "Difference (%)" column: the percent reduction in swap
    /// I/O Mosaic achieves (positive = Mosaic swaps less).
    pub fn difference_pct(&self) -> f64 {
        if self.linux_swaps == 0 {
            0.0
        } else {
            (1.0 - self.mosaic_swaps as f64 / self.linux_swaps as f64) * 100.0
        }
    }
}

/// A Table 3 row: utilization milestones for one (workload, footprint).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table3Row {
    /// Which workload.
    pub workload: &'static str,
    /// Footprint in bytes.
    pub footprint_bytes: u64,
    /// Utilization at the first associativity conflict, percent.
    pub first_conflict_pct: f64,
    /// Steady-state utilization, percent.
    pub steady_state_pct: f64,
}

const PRESSURE_ASID: Asid = Asid(1);

/// Fault-injection parameters of a resilience run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// What to inject, and at what rates.
    pub plan: FaultPlan,
    /// Seed of the injector's decision stream (independent of the
    /// workload seed, so fault placement can be varied separately).
    pub fault_seed: u64,
    /// Accesses between structural `verify()` passes; `0` disables
    /// interval checking (a final pass still runs).
    pub verify_every: u64,
}

impl ResilienceConfig {
    /// No faults, no interval verification: `run_pressure` semantics.
    pub fn none() -> Self {
        Self {
            plan: FaultPlan::NONE,
            fault_seed: 0,
            verify_every: 0,
        }
    }

    /// The `--fault-ppm N` plan: transient allocation failures, swap-I/O
    /// error bursts of two, and ToC bit-flips, each at `ppm` per million,
    /// with the injectors seeded from `fault_seed` and a structural
    /// `verify()` every `verify_every` accesses. `ppm == 0` is
    /// [`ResilienceConfig::none`].
    pub fn at_ppm(ppm: u32, fault_seed: u64, verify_every: u64) -> Self {
        if ppm == 0 {
            return Self::none();
        }
        Self {
            plan: FaultPlan::NONE
                .with_alloc_failures(ppm)
                .with_io_failures(ppm, 2)
                .with_toc_flips(ppm),
            fault_seed,
            verify_every,
        }
    }

    /// Grid cell `index`'s copy: the same plan and verify cadence, with
    /// the injector seed derived from (`fault_seed`, `index`) via
    /// [`derive_seed`] — so fault placement is a function of the grid
    /// position at every job count, never of the thread that ran it.
    pub fn for_cell(&self, index: usize) -> Self {
        Self {
            fault_seed: derive_seed(self.fault_seed, index as u64),
            ..*self
        }
    }

    /// A Mosaic manager over `layout` (hash seed `seed`) with this
    /// config's injector attached, drawing from `fault_seed`, and — when
    /// `obs` is enabled — its counters registered under `mosaic.*`.
    pub fn mosaic_memory(&self, layout: MemoryLayout, seed: u64, obs: &ObsHandle) -> MosaicMemory {
        let mut m = MosaicMemory::new(layout, seed);
        if !self.plan.is_none() {
            m = m.with_fault_injector(self.plan, self.fault_seed);
        }
        if obs.is_enabled() {
            m.set_obs(obs, "mosaic");
        }
        m
    }

    /// The Linux baseline over `layout`, like
    /// [`ResilienceConfig::mosaic_memory`] but drawing from
    /// `fault_seed ^ 0x11` (so the two managers see unrelated fault
    /// streams) and registered under `linux.*`.
    pub fn linux_memory(&self, layout: MemoryLayout, obs: &ObsHandle) -> LinuxMemory {
        let mut l = LinuxMemory::new(layout);
        if !self.plan.is_none() {
            l = l.with_fault_injector(self.plan, self.fault_seed ^ 0x11);
        }
        if obs.is_enabled() {
            l.set_obs(obs, "linux");
        }
        l
    }
}

/// What the fault-injection harness observed in one pressure run.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceReport {
    /// Injection/recovery counters of the Mosaic manager.
    pub mosaic: ResilienceStats,
    /// Injection/recovery counters of the Linux baseline.
    pub linux: ResilienceStats,
    /// Mosaic accesses abandoned with a typed error (retry budget spent).
    pub mosaic_dropped: u64,
    /// Linux accesses abandoned with a typed error.
    pub linux_dropped: u64,
    /// Structural `verify()` passes that ran (all of which succeeded —
    /// a failing pass aborts the run with the violation instead).
    pub verify_passes: u64,
    /// Total accesses driven through the managers (both drives of the
    /// shared trace), the denominator of a wall-clock ns/access figure.
    pub accesses_driven: u64,
    /// A sample of the last typed error surfaced, for diagnostics.
    pub last_error: Option<MosaicError>,
}

impl ResilienceReport {
    /// Merged counters of both managers.
    pub fn combined(&self) -> ResilienceStats {
        let mut all = self.mosaic;
        all.merge(&self.linux);
        all
    }

    /// Total accesses dropped across both managers.
    pub fn dropped(&self) -> u64 {
        self.mosaic_dropped + self.linux_dropped
    }
}

/// What [`MemDrive::step`] made of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driven {
    /// The manager served the access.
    Served(AccessOutcome),
    /// Quota backpressure deferred it ([`MosaicError::QuotaExceeded`]):
    /// the policy working, not a fault — the tenant retries from its own
    /// schedule position and nothing is lost.
    Deferred,
    /// A typed error abandoned it (an injected fault outlasted its retry
    /// budget); the manager stays consistent and the run keeps going.
    Dropped,
}

/// The one memory replay loop: the utilization and swap experiments
/// (Tables 3–4, tenants, attribution's memory cells, the ablations)
/// feed their reference streams to a [`MemoryManager`] through
/// [`MemDrive::step`], one access at a time, and end with
/// [`MemDrive::finish`].
///
/// Per access: the reference clock advances and the access is tried;
/// typed errors are absorbed ([`Driven`]); after `warmup` accesses,
/// steady-state utilization is sampled every 64 Ki accesses; every
/// `obs_interval` accesses the manager (and its idle `peer`, so each
/// snapshot shows both managers current) publishes and the registry is
/// snapshotted; every `verify_every` accesses the structural invariants
/// are checked. The cadence counts accesses only, so it is independent
/// of how callers chunk the stream.
pub struct MemDrive<'a> {
    /// The manager being driven; the ops between accesses (tenant
    /// exits, quota changes) go to it directly.
    pub manager: &'a mut dyn MemoryManager,
    peer: Option<&'a dyn MemoryManager>,
    obs: &'a ObsHandle,
    obs_interval: u64,
    verify_every: u64,
    warmup: u64,
    start: u64,
    now: u64,
    /// Accesses abandoned with a typed error.
    pub dropped: u64,
    /// Accesses deferred by quota backpressure.
    pub deferred: u64,
    /// Structural `verify()` passes that ran (each succeeded).
    pub verify_passes: u64,
    /// The last typed error that dropped an access.
    pub last_error: Option<MosaicError>,
}

impl<'a> MemDrive<'a> {
    /// A drive of `manager` whose clock starts at `start_now`; `0` for
    /// `obs_interval` or `verify_every` turns that cadence off.
    pub fn new(
        manager: &'a mut dyn MemoryManager,
        peer: Option<&'a dyn MemoryManager>,
        obs: &'a ObsHandle,
        obs_interval: u64,
        verify_every: u64,
        warmup: u64,
        start_now: u64,
    ) -> Self {
        Self {
            manager,
            peer,
            obs,
            obs_interval,
            verify_every,
            warmup,
            start: start_now,
            now: start_now,
            dropped: 0,
            deferred: 0,
            verify_passes: 0,
            last_error: None,
        }
    }

    /// Drives one access.
    ///
    /// # Errors
    ///
    /// Returns the violation if this access's interval `verify()` fails
    /// — a bug, which ends the run. Access errors never surface here.
    #[inline]
    pub fn step(&mut self, key: PageKey, kind: AccessKind) -> MosaicResult<Driven> {
        self.now += 1;
        let driven = match self.manager.try_access(key, kind, self.now) {
            Ok(outcome) => Driven::Served(outcome),
            Err(MosaicError::QuotaExceeded { .. }) => {
                self.deferred += 1;
                Driven::Deferred
            }
            Err(e) => {
                self.dropped += 1;
                self.last_error = Some(e);
                Driven::Dropped
            }
        };
        let accesses = self.now - self.start;
        if accesses > self.warmup && accesses.is_multiple_of(65_536) {
            self.manager.sample_utilization();
        }
        if self.obs_interval > 0 && accesses.is_multiple_of(self.obs_interval) {
            self.manager.publish_obs();
            if let Some(peer) = self.peer {
                peer.publish_obs();
            }
            self.obs.snapshot(self.now);
        }
        if self.verify_every > 0 && accesses.is_multiple_of(self.verify_every) {
            self.manager.verify()?;
            self.verify_passes += 1;
        }
        Ok(driven)
    }

    /// Ends the drive: a last utilization sample and a full structural
    /// check.
    ///
    /// # Errors
    ///
    /// Returns the violation if the final `verify()` fails.
    pub fn finish(&mut self) -> MosaicResult<()> {
        self.manager.sample_utilization();
        self.manager.verify()?;
        self.verify_passes += 1;
        Ok(())
    }

    /// The reference clock: `start_now` plus the accesses driven.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Accesses driven so far.
    pub fn accesses(&self) -> u64 {
        self.now - self.start
    }
}

/// One Mosaic-then-Linux run over a shared reference stream, as
/// [`drive_pair`] needs it.
pub struct PairRun<'a> {
    /// The row's workload name.
    pub workload: &'static str,
    /// The row's footprint: the actual footprint of the driven stream.
    pub footprint_bytes: u64,
    /// Accesses before steady-state sampling starts.
    pub warmup: u64,
    /// Fields of each manager's `drive.begin` event, after `mgr`.
    pub begin: &'a [(&'a str, Value)],
    /// Accesses between structural `verify()` passes (`0`: final only).
    pub verify_every: u64,
    /// Where both managers export.
    pub obs: &'a ObsHandle,
    /// Accesses between registry snapshots (`0`: final snapshot only).
    pub obs_interval: u64,
}

/// Drives `mosaic`, then `linux`, each through `drive` on its own
/// [`MemDrive`] (finished here), and measures the pair.
///
/// When exporting, the reference timeline is continuous across the two
/// managers — the baseline resumes at the reference after Mosaic's last
/// — so snapshot and event timestamps are strictly increasing; `close`
/// then adds its own exports before the final snapshot of both managers.
/// Without export both clocks start at 0.
///
/// # Errors
///
/// The first error `drive` or a structural `verify()` returns.
pub fn drive_pair<T>(
    mosaic: &mut MosaicMemory,
    linux: &mut LinuxMemory,
    run: &PairRun<'_>,
    mut drive: impl FnMut(&mut MemDrive<'_>) -> MosaicResult<T>,
    close: impl FnOnce(&T, &T),
) -> MosaicResult<(PressureRow, ResilienceReport, [T; 2])> {
    let obs = run.obs;
    let (mut verify_passes, mut last_error) = (0, None);
    let mut one =
        |mgr: &str, manager: &mut dyn MemoryManager, peer: &dyn MemoryManager, start: u64| {
            if obs.is_enabled() {
                let mut fields = vec![("mgr", Value::from(mgr))];
                fields.extend_from_slice(run.begin);
                obs.event(start, "drive.begin", &fields);
            }
            let mut d = MemDrive::new(
                manager,
                Some(peer),
                obs,
                run.obs_interval,
                run.verify_every,
                run.warmup,
                start,
            );
            let out = drive(&mut d)?;
            d.finish()?;
            verify_passes += d.verify_passes;
            last_error = d.last_error.take().or(last_error.take());
            MosaicResult::Ok((out, d.dropped, d.now()))
        };
    let (m, mosaic_dropped, end) = one("mosaic", mosaic, linux, 0)?;
    let start = if obs.is_enabled() { end } else { 0 };
    let (l, linux_dropped, end) = one("linux", linux, mosaic, start)?;
    if obs.is_enabled() {
        mosaic.publish_obs();
        linux.publish_obs();
        close(&m, &l);
        obs.snapshot(end);
    }
    let pct = |u: f64| u * 100.0;
    let row = PressureRow {
        workload: run.workload,
        footprint_bytes: run.footprint_bytes,
        linux_swaps: linux.stats().swap_ops(),
        mosaic_swaps: mosaic.stats().swap_ops(),
        first_conflict_pct: mosaic.utilization_tracker().first_conflict().map(pct),
        steady_state_pct: mosaic.utilization_tracker().steady_state_mean().map(pct),
        linux_steady_pct: linux.utilization_tracker().steady_state_mean().map(pct),
    };
    let report = ResilienceReport {
        mosaic: *mosaic.resilience(),
        linux: *linux.resilience(),
        mosaic_dropped,
        linux_dropped,
        verify_passes,
        accesses_driven: 0, // counted by callers that replay one trace twice
        last_error,
    };
    Ok((row, report, [m, l]))
}

/// Runs one workload at one footprint through both managers.
pub fn run_pressure(
    workload: PressureWorkload,
    footprint_ratio: f64,
    cfg: &PressureConfig,
) -> PressureRow {
    let (row, _) = run_pressure_resilient(workload, footprint_ratio, cfg, &ResilienceConfig::none())
        .unwrap_or_else(|e| panic!("fault-free pressure run cannot fail: {e}"));
    row
}

/// Runs one workload at one footprint through both managers under a fault
/// plan, verifying structural invariants along the way.
///
/// With [`ResilienceConfig::none`] this is exactly [`run_pressure`]: no
/// injectors are attached and the resulting row is bit-identical to a
/// fault-free run.
///
/// # Errors
///
/// Returns the violation if any structural `verify()` pass fails — that is
/// a bug, not a tolerable fault. Injected faults never surface here; they
/// are absorbed (retried or dropped) and counted in the report.
pub fn run_pressure_resilient(
    workload: PressureWorkload,
    footprint_ratio: f64,
    cfg: &PressureConfig,
    res: &ResilienceConfig,
) -> MosaicResult<(PressureRow, ResilienceReport)> {
    run_pressure_observed(workload, footprint_ratio, cfg, res, &ObsHandle::noop(), 0)
}

/// [`run_pressure_resilient`] with metric/event export: both managers
/// register their counters (under `mosaic.*` and `linux.*`) on `obs`, and
/// — when `obs_interval > 0` — a full registry snapshot is taken every
/// `obs_interval` references, yielding the interval time series
/// `obs_report` renders. With a [`ObsHandle::noop`] handle this is
/// exactly [`run_pressure_resilient`].
///
/// The workload is recorded once and replayed read-only for each manager
/// ([`drive_pair`]), in `cfg.batch`-sized chunks; warmup is one target
/// footprint's worth of touches.
///
/// # Errors
///
/// Returns the violation if any structural `verify()` pass fails.
pub fn run_pressure_observed(
    workload: PressureWorkload,
    footprint_ratio: f64,
    cfg: &PressureConfig,
    res: &ResilienceConfig,
    obs: &ObsHandle,
    obs_interval: u64,
) -> MosaicResult<(PressureRow, ResilienceReport)> {
    let target = (cfg.mem_bytes() as f64 * footprint_ratio) as u64;
    let layout = MemoryLayout::new(IcebergConfig::paper_default(cfg.mem_buckets));
    let mut mosaic = res.mosaic_memory(layout, cfg.seed, obs);
    let mut linux = res.linux_memory(layout, obs);
    let mut source = workload.build(target, cfg.seed);
    let trace = TraceBuffer::record(source.as_mut()).map_err(MosaicError::from)?;
    drop(source);
    let begin = [
        ("workload", Value::from(workload.name())),
        ("ratio", Value::from(footprint_ratio)),
    ];
    let run = PairRun {
        workload: workload.name(),
        footprint_bytes: trace.meta().footprint_bytes,
        warmup: target / PAGE_SIZE,
        begin: &begin,
        verify_every: res.verify_every,
        obs,
        obs_interval,
    };
    let (row, mut report, _) = drive_pair(
        &mut mosaic,
        &mut linux,
        &run,
        |d| {
            let mut replay = trace.replayer();
            let mut violation = None;
            replay.run_chunks(cfg.batch, &mut |chunk| {
                for &a in chunk {
                    if violation.is_none() {
                        let key = PageKey::new(PRESSURE_ASID, a.addr.vpn());
                        if let Err(e) = d.step(key, a.kind) {
                            violation = Some(e);
                        }
                    }
                }
            });
            match violation {
                Some(e) => Err(e),
                None => replay.into_error().map_or(Ok(()), |e| Err(e.into())),
            }
        },
        |_, _| {},
    )?;
    report.accesses_driven = trace.len() * 2;
    Ok((row, report))
}

/// Extracts Table 3 rows (runs that conflicted) from pressure results.
pub fn table3_rows(rows: &[PressureRow]) -> Vec<Table3Row> {
    rows.iter()
        .filter_map(|r| {
            Some(Table3Row {
                workload: r.workload,
                footprint_bytes: r.footprint_bytes,
                first_conflict_pct: r.first_conflict_pct?,
                steady_state_pct: r.steady_state_pct?,
            })
        })
        .collect()
}

/// Renders Table 4.
pub fn render_table4(rows: &[PressureRow]) -> Table {
    let mut t = Table::new(vec![
        "Workload".into(),
        "Footprint (MiB)".into(),
        "Linux (pages)".into(),
        "Mosaic (pages)".into(),
        "Difference (%)".into(),
    ])
    .with_title("Table 4: swap I/O while increasing workload size");
    for r in rows {
        t.row(vec![
            r.workload.to_string(),
            format!("{:.0}", r.footprint_bytes as f64 / (1 << 20) as f64),
            group_digits(r.linux_swaps),
            group_digits(r.mosaic_swaps),
            format!("{:+.2}", r.difference_pct()),
        ]);
    }
    t
}

/// Runs the Table 4 grid — every (workload, ratio) cell through
/// [`run_pressure_observed`] — on `jobs` threads via [`run_cells`].
///
/// Cells are independent (own managers, own recorded trace) and each
/// exports into its own child of `obs`; results come back, and children
/// merge into `obs`, in grid order (workloads outer, ratios inner), so
/// rows and the exported stream are byte-identical at any `jobs`. Each
/// cell's injector seed is [`ResilienceConfig::for_cell`] of its grid
/// index.
///
/// A cell that dies under fault injection comes back as `Err` *in
/// place*, so callers can skip the row and keep the rest of the sweep —
/// the graceful-degradation contract the resilience harness promises.
pub fn run_table4(
    cfg: &PressureConfig,
    ratios: &[f64],
    res: &ResilienceConfig,
    obs: &ObsHandle,
    obs_interval: u64,
    jobs: usize,
) -> Vec<MosaicResult<(PressureRow, ResilienceReport)>> {
    let mut cells = Vec::new();
    for &w in &PressureWorkload::ALL {
        for &r in ratios {
            cells.push((w, r));
        }
    }
    run_cells(jobs, obs, cells, |i, (w, r), child| {
        run_pressure_observed(w, r, cfg, &res.for_cell(i), child, obs_interval)
    })
}

/// Renders the fault-injection summary: what was injected and how the
/// managers absorbed it (combined over Mosaic and the baseline).
pub fn render_resilience(rows: &[(PressureRow, ResilienceReport)]) -> Table {
    let mut t = Table::new(vec![
        "Workload".into(),
        "Footprint (MiB)".into(),
        "Faults injected".into(),
        "Retries".into(),
        "Backoff (ticks)".into(),
        "ToC re-walks".into(),
        "Dropped accesses".into(),
        "Recovered (%)".into(),
        "Verify passes".into(),
    ])
    .with_title("Resilience: injected faults and recovery under pressure");
    for (row, rep) in rows {
        let all = rep.combined();
        t.row(vec![
            row.workload.to_string(),
            format!("{:.0}", row.footprint_bytes as f64 / (1 << 20) as f64),
            group_digits(all.faults_injected()),
            group_digits(all.retries()),
            group_digits(all.io_backoff_ticks),
            group_digits(all.toc_rewalks),
            group_digits(rep.dropped()),
            crate::report::percent_or_dash(all.recoveries(), all.faults_injected()),
            group_digits(rep.verify_passes),
        ]);
    }
    t
}

/// Renders Table 3.
pub fn render_table3(rows: &[Table3Row]) -> Table {
    let mut t = Table::new(vec![
        "Workload".into(),
        "Footprint (MiB)".into(),
        "First conflict (1-δ, %)".into(),
        "Steady-state util (%)".into(),
    ])
    .with_title("Table 3: memory utilization under Mosaic page allocation");
    for r in rows {
        t.row(vec![
            r.workload.to_string(),
            format!("{:.0}", r.footprint_bytes as f64 / (1 << 20) as f64),
            format!("{:.2}", r.first_conflict_pct),
            format!("{:.2}", r.steady_state_pct),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> PressureConfig {
        PressureConfig {
            mem_buckets: 16, // 1024 frames = 4 MiB
            seed: 5,
            batch: crate::fig6::DEFAULT_BATCH,
        }
    }

    #[test]
    fn mem_drive_cadence() {
        // Three 64 Ki sampling points, ending off every interval.
        const REFS: u64 = 3 * 65_536 + 1_000;
        const OBS_INTERVAL: u64 = 20_000;
        let layout = MemoryLayout::new(IcebergConfig::paper_default(8));
        let res = ResilienceConfig {
            verify_every: 30_000,
            ..ResilienceConfig::none()
        };
        // Warmup 0 samples from access 1 (ablation's cadence); a warmup
        // past the first sampling point skips it. Both end on a sample.
        for (warmup, samples) in [(0, 4), (100_000, 3)] {
            for prefix in ["mosaic", "linux"] {
                let obs = ObsHandle::enabled();
                let mut mgr: Box<dyn MemoryManager> = if prefix == "mosaic" {
                    Box::new(res.mosaic_memory(layout, 1, &obs))
                } else {
                    Box::new(res.linux_memory(layout, &obs))
                };
                // Tenant 2 may hold no frame: each of its accesses defers.
                mgr.set_quota(Asid(2), mosaic_mem::TenantQuota { frames: 0, priority: 0 });
                let mut d = MemDrive::new(
                    mgr.as_mut(),
                    None,
                    &obs,
                    OBS_INTERVAL,
                    res.verify_every,
                    warmup,
                    0,
                );
                let mut quota_refs = 0;
                for i in 0..REFS {
                    let asid = if i % 97 == 0 { Asid(2) } else { Asid(1) };
                    let key = PageKey::new(asid, mosaic_mem::Vpn(i % 2_048));
                    let driven = d.step(key, AccessKind::Load).unwrap();
                    if asid == Asid(2) {
                        quota_refs += 1;
                        assert_eq!(driven, Driven::Deferred, "{prefix} ref {i}");
                    }
                }
                d.finish().unwrap();
                assert_eq!((d.deferred, d.dropped), (quota_refs, 0), "{prefix}");
                assert_eq!(d.last_error, None, "{prefix}");
                assert_eq!(d.verify_passes, REFS / res.verify_every + 1, "{prefix}");
                assert_eq!((d.accesses(), d.now()), (REFS, REFS), "{prefix}");
                let accesses = format!("\"name\":\"{prefix}.accesses\"");
                let jsonl = obs.render_jsonl();
                let snapshots = jsonl.lines().filter(|l| l.contains(&accesses)).count();
                assert_eq!(snapshots as u64, REFS / OBS_INTERVAL, "{prefix}");
                assert_eq!(
                    mgr.utilization_tracker().samples(),
                    samples,
                    "{prefix} warmup {warmup}"
                );
            }
        }
    }

    #[test]
    fn overcommitted_run_swaps_in_both_managers() {
        let row = run_pressure(PressureWorkload::XsBench, 1.25, &tiny_cfg());
        assert!(row.linux_swaps > 0, "Linux must swap at 125%");
        assert!(row.mosaic_swaps > 0, "Mosaic must swap at 125%");
        assert!(row.first_conflict_pct.is_some());
    }

    #[test]
    fn first_conflict_is_near_98_percent() {
        let row = run_pressure(PressureWorkload::XsBench, 1.25, &tiny_cfg());
        let fc = row.first_conflict_pct.unwrap();
        assert!(
            (94.0..100.0).contains(&fc),
            "first conflict at {fc:.2}% (paper: ~98%)"
        );
    }

    #[test]
    fn steady_state_exceeds_first_conflict() {
        // Ghosts let utilization climb past 1 - δ (§4.2).
        let row = run_pressure(PressureWorkload::BTree, 1.2, &tiny_cfg());
        let fc = row.first_conflict_pct.unwrap();
        let ss = row.steady_state_pct.unwrap();
        assert!(ss > fc - 2.0, "steady {ss:.2} vs first conflict {fc:.2}");
    }

    #[test]
    fn undercommitted_run_never_swaps() {
        let row = run_pressure(PressureWorkload::XsBench, 0.60, &tiny_cfg());
        assert_eq!(row.linux_swaps, 0);
        assert_eq!(row.mosaic_swaps, 0);
        assert_eq!(row.first_conflict_pct, None);
    }

    #[test]
    fn difference_sign_convention() {
        let row = PressureRow {
            workload: "X",
            footprint_bytes: 0,
            linux_swaps: 100,
            mosaic_swaps: 80,
            first_conflict_pct: None,
            steady_state_pct: None,
            linux_steady_pct: None,
        };
        assert!((row.difference_pct() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn renders_are_complete() {
        let rows = vec![run_pressure(PressureWorkload::XsBench, 1.2, &tiny_cfg())];
        let t4 = render_table4(&rows).render();
        assert!(t4.contains("XSBench"));
        let t3 = render_table3(&table3_rows(&rows)).render();
        assert!(t3.contains("XSBench"));
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_plain_run() {
        let plain = run_pressure(PressureWorkload::BTree, 1.2, &tiny_cfg());
        let (resilient, rep) = run_pressure_resilient(
            PressureWorkload::BTree,
            1.2,
            &tiny_cfg(),
            &ResilienceConfig::none(),
        )
        .unwrap();
        assert_eq!(plain, resilient);
        assert_eq!(rep.combined(), ResilienceStats::ZERO);
        assert_eq!(rep.dropped(), 0);
    }

    #[test]
    fn faulty_run_survives_and_reports() {
        let res = ResilienceConfig {
            plan: FaultPlan::NONE
                .with_alloc_failures(10_000) // 1% of allocations
                .with_io_failures(10_000, 1)
                .with_toc_flips(1_000),
            fault_seed: 0xF00D,
            verify_every: 50_000,
        };
        let (row, rep) =
            run_pressure_resilient(PressureWorkload::XsBench, 1.25, &tiny_cfg(), &res)
                .expect("invariants must hold under injected faults");
        assert!(row.mosaic_swaps > 0, "overcommit still swaps");
        let all = rep.combined();
        assert!(all.faults_injected() > 0, "plan injected nothing");
        assert!(all.retries() > 0, "no transient fault was retried");
        assert!(rep.verify_passes >= 2, "interval verification never ran");
        // Retry budgets (3-4 retries at 1% fault rate) absorb almost
        // everything; only multi-failure streaks drop an access.
        assert!(rep.dropped() < all.faults_injected());
        let table = render_resilience(&[(row, rep)]).render();
        assert!(table.contains("Faults injected") && table.contains("XSBench"));
    }

    #[test]
    fn resilience_report_sample_error_is_transient() {
        // Drive hard enough that at least one retry budget is exhausted;
        // the surfaced error must be a typed transient failure.
        let res = ResilienceConfig {
            plan: FaultPlan::NONE.with_io_failures(60_000, 6),
            fault_seed: 9,
            verify_every: 0,
        };
        let (_, rep) =
            run_pressure_resilient(PressureWorkload::BTree, 1.3, &tiny_cfg(), &res).unwrap();
        if let Some(e) = &rep.last_error {
            assert!(e.is_transient(), "unexpected error class: {e}");
        }
        assert!(rep.verify_passes >= 2, "final verify always runs");
    }
}
